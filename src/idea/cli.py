"""Command-line entry point: train, eval, ablate, gradcheck, export, synthesize."""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import statistics
import sys
from dataclasses import replace

import numpy as np

from . import synthetic
from .autodiff import grad_check
from .data import Document, LabelSet, Vocab, atomic_open, load_documents, make_batches
from .encoder import INIT_STD, EncoderConfig
from .head import ABLATION_MODES
from .model import IdeaModel
from .training import TrainConfig, evaluate, export_features, train, welch_t_test

# preset -> (label names in class order, default epoch count)
DATASETS = {
    "agnews": (["world", "sports", "business", "sci tech"], 2),
    "dbpedia": (
        [
            "company", "educational institution", "artist", "athlete", "office holder",
            "mean of transportation", "building", "natural place", "village", "animal",
            "plant", "album", "film", "written work",
        ],
        3,
    ),
    "yahoo": (
        [
            "society & culture", "science & mathematics", "health", "education & reference",
            "computers & internet", "sports", "business & finance", "entertainment & music",
            "family & relationships", "politics & government",
        ],
        2,
    ),
    "yelpp": (["negative", "positive"], 5),
    "yelpf": (["bad", "poor", "fair", "good", "excellent"], 5),
}

ABLATION_FLAGS = {
    "full": "full",
    "only-text": "only_text_features",
    "only-fusing": "only_fusing",
    "no-abs-diff": "no_abs_diff",
    "no-ele-prod": "no_ele_prod",
}

GRADCHECK_THRESHOLD = 1e-4

# flag dest -> TrainConfig field, where the two names differ
_FIELD_NAMES = {"lr": "learning_rate", "labels": "label_names", "out": "out_dir"}


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    # a required flag has no default to show
    def _get_help_string(self, action):
        return action.help if action.required else super()._get_help_string(action)


def positive_int(text: str) -> int:
    """An int >= 1; argparse names the flag in the error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """An int >= 0, as numpy's seeds must be; argparse names the flag in the error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_train_args(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Add the train/ablate flags and return them by dest, the --config file's keys.

    Each flag defaults to SUPPRESS, so the namespace holds only the flags
    that were given; its help shows the default of its TrainConfig field.
    """
    def flag(option, help, **kwargs):
        action = p.add_argument(option, default=argparse.SUPPRESS, **kwargs)
        # non-fields, the CSV paths ("") and label_names (a factory) have no default: None
        default = getattr(TrainConfig, _FIELD_NAMES.get(action.dest, action.dest), None)
        action.help = f"{help} (default: {None if default == '' else default})"
        return action

    flag("--config", "JSON config file; flags override it")
    flags = [
        flag("--dataset", "preset supplying label names and the default epoch count",
             choices=sorted(DATASETS)),
        flag("--train-csv", "training CSV (class index, text fields)"),
        flag("--test-csv", "test CSV"),
        flag("--labels", "comma-separated label names in class order"),
        flag("--epochs", "training epochs", type=int),
        flag("--lr", "learning rate", type=float),
        flag("--batch-size", "documents per optimizer step", type=int),
        flag("--lambda", "squared-norm regularization coefficient", dest="lambda_l2", type=float),
        flag("--dropout", "dropout rate", type=float),
        flag("--seed", "random seed", type=int),
        flag("--ablation", "feature blocks entering the classifier input",
             choices=sorted(ABLATION_FLAGS)),
        flag("--train-limit", "stratified subsample size for the training CSV", type=int),
        flag("--test-limit", "stratified subsample size for the test CSV", type=int),
        flag("--max-len", "document truncation length in tokens", type=int),
        flag("--max-steps", "stop after this many optimizer steps", type=int),
        flag("--d", "embedding width", type=int),
        flag("--n-layers", "encoder layers", type=int),
        flag("--n-heads", "attention heads", type=int),
        flag("--min-freq", "minimum token frequency kept in the vocabulary", type=int),
        flag("--vocab-max-size", "vocabulary size cap including specials", type=int),
        flag("--out", "output directory"),
    ]
    return {action.dest: action for action in flags}


def build_parser() -> argparse.ArgumentParser:
    fmt = _HelpFormatter  # argparse appends a default only to help text, so every flag has some
    parser = _Parser(prog="idea", description=__doc__, formatter_class=fmt)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", formatter_class=fmt, help="train and report test metrics")
    p_train.set_defaults(run=cmd_train, train_flags=_add_train_args(p_train))

    p_eval = sub.add_parser("eval", formatter_class=fmt, help="evaluate a saved model")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("--test-csv", required=True, help="CSV to evaluate")
    _add_model_args(p_eval, "--test-limit")

    p_ablate = sub.add_parser(
        "ablate", formatter_class=fmt,
        help="run every ablation mode over a seed sweep and compare against the full model",
    )
    p_ablate.set_defaults(run=cmd_ablate, train_flags=_add_train_args(p_ablate))
    p_ablate.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")

    p_grad = sub.add_parser(
        "gradcheck", formatter_class=fmt,
        help="finite-difference check of every gradient on a tiny model",
    )
    p_grad.set_defaults(run=cmd_gradcheck)
    p_grad.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_grad.add_argument("--step", type=float, default=1e-5, help="central-difference step")

    p_exp = sub.add_parser("export-features", formatter_class=fmt,
                           help="dump per-sample fused feature vectors as TSV")
    p_exp.set_defaults(run=cmd_export_features)
    p_exp.add_argument("--csv", required=True, help="dataset to featurize")
    p_exp.add_argument("--out", required=True, help="output TSV path")
    _add_model_args(p_exp, "--limit")

    p_syn = sub.add_parser("make-synthetic", formatter_class=fmt,
                           help="emit a synthetic keyword-bag CSV corpus")
    p_syn.set_defaults(run=cmd_make_synthetic)
    generator = inspect.signature(synthetic.generate_rows).parameters

    def knob(option, type, help, **kwargs):
        """A generate_rows argument, in the namespace only when given; its help shows generate_rows' default."""
        action = p_syn.add_argument(option, type=type, default=argparse.SUPPRESS, **kwargs)
        action.help = f"{help} (default: {generator[action.dest].default})"

    p_syn.add_argument("--out", required=True, help="output CSV path")
    p_syn.add_argument("--docs", type=int, default=300, help="documents to generate")
    knob("--classes", int, "number of classes", dest="n_classes", metavar="CLASSES")
    p_syn.add_argument("--seed", type=non_negative_int, default=0, help="random seed")
    p_syn.add_argument("--label-names", default=None, help="override the generated label names")
    knob("--keywords-per-class", int, "keywords made for each class besides its label-name tokens")
    knob("--doc-keywords", int, "class keywords drawn per document")
    knob("--doc-noise", int, "noise words per document")
    knob("--label-token-rate", float, "probability that a document holds its label name's tokens")
    knob("--overlap", int, "shared ambiguous keywords added to every class")
    knob("--confusion", float, "per-slot probability of a keyword from a different class")
    return parser


def _add_model_args(p: argparse.ArgumentParser, limit: str) -> None:
    """eval's and export-features' flags for the saved model, the CSV's subsample and the batching."""
    p.add_argument("--model-dir", required=True,
                   help="directory written by train; only its model.ckpt is read (its header holds the vocabulary)")
    p.add_argument(limit, type=positive_int, default=None, help="stratified subsample size for the CSV")
    p.add_argument("--batch-size", type=positive_int, default=TrainConfig.batch_size, help="documents per batch")
    p.add_argument("--max-len", type=positive_int, default=TrainConfig.max_len,
                   help="document truncation length in tokens")
    p.add_argument("--seed", type=non_negative_int, default=0, help=f"seed for {limit} subsampling")


def _load_config_file(path, flags: dict[str, argparse.Action]) -> dict:
    """The file's settings, each checked by its flag's type and choices; null means unset."""
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is skipped, as load_csv does
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(flags)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    settings = {}
    for key, raw in data.items():
        if raw is None:
            continue
        action = flags[key]
        try:
            if isinstance(raw, bool) or not isinstance(raw, (str, int, float) if action.type else str):
                raise ValueError("expected a string or a number" if action.type else "expected a string")
            value = action.type(str(raw)) if action.type else raw
            if action.choices and value not in action.choices:
                raise ValueError(f"choose from {', '.join(action.choices)}")
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r}: invalid value {raw!r} ({exc})") from None
        settings[key] = value
    return settings


def _train_config(ns) -> TrainConfig:
    """TrainConfig() defaults < dataset preset < --config file < flags."""
    config_path = getattr(ns, "config", None)
    settings = _load_config_file(config_path, ns.train_flags) if config_path else {}
    settings.update((dest, getattr(ns, dest)) for dest in ns.train_flags if hasattr(ns, dest))
    dataset = settings.pop("dataset", None)
    if dataset:
        names, epochs = DATASETS[dataset]
        settings = {"labels": ",".join(names), "epochs": epochs, **settings}
    if not settings.get("train_csv") or not settings.get("test_csv"):
        raise ValueError("train: --train-csv and --test-csv are required")
    if not settings.get("labels"):
        raise ValueError("train: label names required (--labels or --dataset)")
    settings["labels"] = LabelSet.parse(settings["labels"]).names
    if "ablation" in settings:
        settings["ablation"] = ABLATION_FLAGS[settings["ablation"]]
    return TrainConfig(**{_FIELD_NAMES.get(k, k): v for k, v in settings.items()})


def cmd_train(ns) -> int:
    result = train(_train_config(ns))
    print(result.report(), end="")
    return 0


def _load_model_and_batches(ns, csv_path, limit):
    """(model, document count, batches): --model-dir's model over csv_path, maybe subsampled."""
    ckpt = os.path.join(ns.model_dir, "model.ckpt")
    model = IdeaModel.load(ckpt)
    enc = model.encoder_config
    if ns.max_len > enc.max_positions - 2:  # [CLS] and [SEP] take two positions
        raise ValueError(
            f"{ns.command}: --max-len {ns.max_len} exceeds max_positions - 2 "
            f"= {enc.max_positions - 2} of {ckpt}"
        )
    docs = load_documents(csv_path, model.n_classes, limit, ns.seed, ns.command)
    return model, len(docs), make_batches(docs, model.vocab, ns.batch_size, max_len=ns.max_len)


def cmd_eval(ns) -> int:
    model, _, batches = _load_model_and_batches(ns, ns.test_csv, ns.test_limit)
    metrics = evaluate(model, batches)
    print("\n".join(metrics.report_lines()))
    return 0


def cmd_ablate(ns) -> int:
    base = _train_config(ns)
    seeds = _parse_seeds(ns.seeds)
    if base.out_dir:  # before the first training, so an --out that is a file fails at once
        os.makedirs(base.out_dir, exist_ok=True)
    accs: dict[str, list[float]] = {}
    for mode in ABLATION_MODES:
        accs[mode] = []
        for seed in seeds:
            cfg = replace(base, ablation=mode, seed=seed, out_dir=None)
            result = train(cfg, log=lambda msg: None)
            accs[mode].append(result.test_metrics.accuracy)
            print(f"# {mode} seed={seed} test_acc={result.test_metrics.accuracy:.4f}")

    header = ["mode", "seeds", "mean_acc", "std", "stderr", "t_vs_full", "p_value"]
    rows = [header]
    for mode in ABLATION_MODES:
        xs = accs[mode]
        n = len(xs)
        mean = 0.0  # a loop, not sum(): since Python 3.12 sum() compensates float rounding
        for x in xs:
            mean += x
        mean /= n
        std = statistics.stdev(xs) if n > 1 else 0.0
        stderr = std / math.sqrt(n)
        if n > 1:
            res = welch_t_test(xs, accs["full"])
            t_str, p_str = f"{res.t:.4f}", f"{res.p:.4f}"
        else:
            t_str = p_str = "n/a"
        rows.append([mode, str(n), f"{mean:.4f}", f"{std:.4f}", f"{stderr:.4f}", t_str, p_str])

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if base.out_dir:
        table_path = os.path.join(base.out_dir, "ablation.tsv")
        with atomic_open(table_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(row) + "\n")
        print(f"# table written to {table_path}")
    return 0


def gradcheck_setup(seed: int):
    """Tiny 64-bit model and batch for finite-difference checking.

    Two documents (6 and 4 tokens, so one row is padded), three
    single-token labels, d=8 over 2 transformer layers; the loss takes
    the default squared-norm coefficient.
    """
    rng = np.random.default_rng(seed)
    labels = LabelSet(["red", "green", "blue"])
    pool = ["alpha", "beta", "delta", "kappa", "sigma", "omega", "zeta", "theta"]
    vocab = Vocab.from_tokens(pool + labels.vocab_tokens())

    def sample_text(n_tokens):
        return " ".join(pool[int(rng.integers(len(pool)))] for _ in range(n_tokens))

    docs = [
        Document(sample_text(6), int(rng.integers(3))),
        Document(sample_text(4), int(rng.integers(3))),
    ]
    batch = make_batches(docs, vocab, batch_size=2)[0]
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab), d=8, n_layers=2, n_heads=2, max_positions=16, dropout=0.1
    )
    model = IdeaModel.build(enc_cfg, labels, vocab, dtype=np.float64, rng=rng)
    # a nonzero classifier, or no gradient reaches the layers below it
    clf_w = model.params["clf.W"].data
    clf_w[...] = rng.normal(0.0, INIT_STD, size=clf_w.shape)
    # evaluate at a generic point: at the tiny training init the score
    # biases sit in a near-flat region (uniform tanh curvature cancels
    # against softmax shift invariance) and their gradients drown in
    # finite-difference noise
    for name in ("attn.W_m", "attn.b_m", "attn.W_t", "attn.b_t"):
        p = model.params[name]
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)

    def fn():
        return model.loss(batch, TrainConfig.lambda_l2, training=False)[0]

    return model, batch, fn


def cmd_gradcheck(ns) -> int:
    if not 0.0 < ns.step < math.inf:  # NaN fails too
        raise ValueError(f"gradcheck: --step must be positive and finite, got {ns.step}")
    worst = 0.0
    for seed in _parse_seeds(ns.seeds):
        model, _, fn = gradcheck_setup(seed)
        report = grad_check(fn, model.params, step=ns.step)
        print(f"seed {seed}:")
        print(report.format())
        status = "PASS" if report.max_relative_error < GRADCHECK_THRESHOLD else "FAIL"
        print(f"seed {seed}: {status} (max {report.max_relative_error:.3e}, "
              f"threshold {GRADCHECK_THRESHOLD})")
        worst = max(worst, report.max_relative_error)
    return 0 if worst < GRADCHECK_THRESHOLD else 1


def cmd_export_features(ns) -> int:
    model, n_docs, batches = _load_model_and_batches(ns, ns.csv, ns.limit)
    export_features(model, batches, ns.out)
    print(f"wrote {n_docs} rows to {ns.out}")
    return 0


def cmd_make_synthetic(ns) -> int:
    # --seed, --label-names and the knobs that were given
    settings = {k: v for k, v in vars(ns).items() if k in inspect.signature(synthetic.generate_rows).parameters}
    settings["label_names"] = LabelSet.parse(ns.label_names).names if ns.label_names else None
    rows, names = synthetic.generate_rows(ns.docs, **settings)
    synthetic.write_csv(rows, ns.out)
    print(f"wrote {len(rows)} rows to {ns.out}")
    print(f"labels: {','.join(names)}")
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad seed list {text!r}")
    if not seeds:
        raise ValueError("empty seed list")
    if min(seeds) < 0:
        raise ValueError(f"bad seed list {text!r}: seeds must be >= 0")
    for i, seed in enumerate(seeds):  # a repeat would compare copies of one run
        if seed in seeds[:i]:
            raise ValueError(f"bad seed list {text!r}: seed {seed} repeats")
    return seeds


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except (ValueError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"idea: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a NonFiniteLossError from training among them
        print(f"idea: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
