"""Command-line entry point: train, eval, ablate, gradcheck, export, synthesize."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import synthetic
from .autodiff import grad_check
from .data import Document, LabelSet, Vocab, load_csv, make_batches, stratified_sample
from .encoder import EncoderConfig
from .head import ABLATION_MODES, AblationConfig
from .model import IdeaModel
from .training import (
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    export_features,
    train,
    welch_t_test,
)

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
        flag("--gamma-mode", "similarity-weight granularity (per-batch-literal couples samples)",
             choices=["per-sample", "per-batch-literal"]),
        flag("--train-limit", "stratified subsample size for the training CSV", type=int),
        flag("--test-limit", "stratified subsample size for the test CSV", type=int),
        flag("--max-len", "document truncation length in tokens", type=int),
        flag("--max-steps", "stop after this many optimizer steps", type=int),
        flag("--d", "embedding width", type=int),
        flag("--n-layers", "encoder layers", type=int),
        flag("--n-heads", "attention heads", type=int),
        flag("--backend", "encoder backend", choices=["mini-transformer", "bag-of-embeddings"]),
        flag("--min-freq", "minimum token frequency kept in the vocabulary", type=int),
        flag("--vocab-max-size", "vocabulary size cap including specials", type=int),
        flag("--out", "output directory"),
    ]
    return {action.dest: action for action in flags}


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = _Parser(prog="idea", description=__doc__, formatter_class=fmt)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", formatter_class=fmt, help="train and report test metrics")
    p_train.set_defaults(train_flags=_add_train_args(p_train))

    p_eval = sub.add_parser("eval", formatter_class=fmt, help="evaluate a saved model")
    p_eval.add_argument("--model-dir", required=True, help="directory with model.ckpt and vocab.txt")
    p_eval.add_argument("--test-csv", required=True)
    p_eval.add_argument("--test-limit", type=int, default=None)
    p_eval.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_eval.add_argument("--max-len", type=int, default=TrainConfig.max_len)
    p_eval.add_argument("--seed", type=int, default=0, help="seed for --test-limit subsampling")

    p_ablate = sub.add_parser(
        "ablate", formatter_class=fmt,
        help="run every ablation mode over a seed sweep and compare against the full model",
    )
    p_ablate.set_defaults(train_flags=_add_train_args(p_ablate))
    p_ablate.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")

    p_grad = sub.add_parser(
        "gradcheck", formatter_class=fmt,
        help="finite-difference check of every gradient on a tiny model",
    )
    p_grad.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_grad.add_argument("--step", type=float, default=1e-5, help="central-difference step")

    p_exp = sub.add_parser("export-features", formatter_class=fmt,
                           help="dump per-sample fused feature vectors as TSV")
    p_exp.add_argument("--model-dir", required=True)
    p_exp.add_argument("--csv", required=True, help="dataset to featurize")
    p_exp.add_argument("--out", required=True, help="output TSV path")
    p_exp.add_argument("--limit", type=int, default=None)
    p_exp.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_exp.add_argument("--max-len", type=int, default=TrainConfig.max_len)
    p_exp.add_argument("--seed", type=int, default=0)

    p_syn = sub.add_parser("make-synthetic", formatter_class=fmt,
                           help="emit a synthetic keyword-bag CSV corpus")
    p_syn.add_argument("--out", required=True, help="output CSV path")
    p_syn.add_argument("--docs", type=int, default=300)
    p_syn.add_argument("--classes", type=int, default=3)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--label-names", default=None, help="override the generated label names")
    p_syn.add_argument("--keywords-per-class", type=int, default=8)
    p_syn.add_argument("--doc-keywords", type=int, default=8)
    p_syn.add_argument("--doc-noise", type=int, default=4)
    p_syn.add_argument("--label-token-rate", type=float, default=0.9)
    p_syn.add_argument("--overlap", type=int, default=0,
                       help="shared ambiguous keywords added to every class")
    p_syn.add_argument("--confusion", type=float, default=0.0,
                       help="per-slot probability of a keyword from a different class")
    return parser


def _load_config_file(path, flags: dict[str, argparse.Action]) -> dict:
    """The file's settings, each checked by its flag's type and choices; null means unset."""
    with open(path, encoding="utf-8") as fh:
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
            if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
                raise ValueError("expected a string or a number")
            value = action.type(str(raw)) if action.type else str(raw)
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
    settings["labels"] = [name.strip() for name in settings["labels"].split(",")]
    if not all(settings["labels"]):
        raise ValueError("train: empty label name in --labels")
    if "ablation" in settings:
        settings["ablation"] = ABLATION_FLAGS[settings["ablation"]]
    return TrainConfig(**{_FIELD_NAMES.get(k, k): v for k, v in settings.items()})


def cmd_train(ns) -> int:
    result = train(_train_config(ns))
    print(result.report(), end="")
    return 0


def _load_model_dir(model_dir):
    ckpt = os.path.join(model_dir, "model.ckpt")
    vocab_path = os.path.join(model_dir, "vocab.txt")
    for path in (ckpt, vocab_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"eval: missing {path}")
    return IdeaModel.load(ckpt), Vocab.load(vocab_path)


def cmd_eval(ns) -> int:
    model, vocab = _load_model_dir(ns.model_dir)
    docs = load_csv(ns.test_csv, model.n_classes)
    if ns.test_limit is not None:
        docs = stratified_sample(docs, ns.test_limit, ns.seed)
    metrics = evaluate(model, make_batches(docs, vocab, ns.batch_size, max_len=ns.max_len))
    print("\n".join(metrics.report_lines(prefix="test_")))
    return 0


def cmd_ablate(ns) -> int:
    base = _train_config(ns)
    seeds = _parse_seeds(ns.seeds)
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
        mean = sum(xs) / n
        std = float(np.std(xs, ddof=1)) if n > 1 else 0.0
        stderr = std / np.sqrt(n) if n > 1 else 0.0
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
        os.makedirs(base.out_dir, exist_ok=True)
        table_path = os.path.join(base.out_dir, "ablation.tsv")
        with open(table_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(row) + "\n")
        print(f"# table written to {table_path}")
    return 0


def gradcheck_setup(seed: int, lambda_l2: float = 0.01):
    """Tiny 64-bit model and batch for finite-difference checking.

    Two documents (6 and 4 tokens, so one row is padded), three
    single-token labels, d=8 over 2 transformer layers.
    """
    rng = np.random.default_rng(seed)
    label_names = ["red", "green", "blue"]
    pool = ["alpha", "beta", "delta", "kappa", "sigma", "omega", "zeta", "theta"]
    vocab = Vocab.from_tokens(pool + label_names + [","])

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
    model = IdeaModel.build(
        enc_cfg,
        LabelSet(label_names),
        vocab,
        dtype=np.float64,
        rng=rng,
        classifier_init="normal",
    )
    # evaluate at a generic point: at the tiny training init the score
    # biases sit in a near-flat region (uniform tanh curvature cancels
    # against softmax shift invariance) and their gradients drown in
    # finite-difference noise
    for name in ("attn.W_m", "attn.b_m", "attn.W_t", "attn.b_t"):
        p = model.params[name]
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)

    def fn():
        return model.loss(batch, lambda_l2, training=False)[0]

    return model, batch, fn


def cmd_gradcheck(ns) -> int:
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
    model, vocab = _load_model_dir(ns.model_dir)
    docs = load_csv(ns.csv, model.n_classes)
    if ns.limit is not None:
        docs = stratified_sample(docs, ns.limit, ns.seed)
    batches = make_batches(docs, vocab, ns.batch_size, max_len=ns.max_len)
    export_features(model, batches, ns.out)
    print(f"wrote {len(docs)} rows to {ns.out}")
    return 0


def cmd_make_synthetic(ns) -> int:
    label_names = None
    if ns.label_names:
        label_names = [name.strip() for name in ns.label_names.split(",")]
    rows, names = synthetic.generate_rows(
        n_docs=ns.docs,
        n_classes=ns.classes,
        seed=ns.seed,
        label_names=label_names,
        keywords_per_class=ns.keywords_per_class,
        doc_keywords=ns.doc_keywords,
        doc_noise=ns.doc_noise,
        label_token_rate=ns.label_token_rate,
        overlap=ns.overlap,
        confusion=ns.confusion,
    )
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
    return seeds


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "train":
            return cmd_train(ns)
        if ns.command == "eval":
            return cmd_eval(ns)
        if ns.command == "ablate":
            return cmd_ablate(ns)
        if ns.command == "gradcheck":
            return cmd_gradcheck(ns)
        if ns.command == "export-features":
            return cmd_export_features(ns)
        if ns.command == "make-synthetic":
            return cmd_make_synthetic(ns)
        raise ValueError(f"unknown command {ns.command!r}")
    except (ValueError, FileNotFoundError) as exc:
        print(f"idea: error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteLossError as exc:
        print(f"idea: runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"idea: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
