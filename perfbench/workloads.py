"""The benchmark's three workloads: train-agnews, eval-dbpedia and gradcheck-tiny.

Each workload generates its inputs from the workload seed with
idea.synthetic, sets up several times, warms up, runs a closed loop of
operations from a single caller until the time is up, and sets up several
times again; the fastest set-up is setup_s. The untraced run calls the
program the way training.train, training.evaluate and `idea gradcheck` do.
The traced run alternates untraced operations with traced ones, which wrap
a span around every layer call, and reports per-layer figures and the
tracing overhead. Counts (tape nodes, label encodes) come from the
program's own untraced calls.
"""
from __future__ import annotations

import copy
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import idea.encoder
import idea.model
from idea import synthetic
from idea.autodiff import backward, grad_check
from idea.cli import DATASETS, GRADCHECK_THRESHOLD, gradcheck_setup
from idea.data import PAD, LabelSet, Vocab, build_vocab, load_csv, make_batches, stratified_split
from idea.encoder import EncoderConfig
from idea.head import AblationConfig
from idea.model import IdeaModel
from idea.training import AdamW, RunResult, TrainConfig, clip_grads, evaluate, train

from replay import TAPE_OPS, tape_stats, traced_forward, traced_loss
from tracer import Tracer, no_span

WARMUP_OPS = 2  # an unwarmed first OpenBLAS GEMM costs ~25x a warm one

AGNEWS_LABELS = DATASETS["agnews"][0]
# criterion 9's generator settings: about 24 tokens per row with CLS and SEP
AGNEWS_GEN = dict(n_classes=4, label_names=AGNEWS_LABELS, doc_keywords=12, doc_noise=8,
                  keywords_per_class=10, overlap=3, confusion=0.25)
DBPEDIA_LABELS = DATASETS["dbpedia"][0]  # a 35-token label sequence
DBPEDIA_GEN = dict(n_classes=14, label_names=DBPEDIA_LABELS, doc_keywords=28, doc_noise=18,
                   keywords_per_class=10, confusion=0.1)
EVAL_BATCH = 8
CKPT_SEED = 0
CKPT_LR = 1e-3  # only to reach a trained checkpoint in a few dozen steps
GRADCHECK_LAMBDA = 0.01  # gradcheck_setup's default
GRADCHECK_STEP = 1e-5  # `idea gradcheck`'s default

LAYERS = ("encoder", "head", "autodiff", "training")  # the layers that run inside timed ops
IN_OP_SPANS = (
    "encoder.encode_docs", "encoder.encode_labels", "autodiff.forward_call", "autodiff.backward",
    "head.text_attention", "head.label_attention", "head.fusion", "head.classify", "head.loss",
    "training.zero_grads", "training.clip_grads", "training.adamw_step",
)
SETUP_SPANS = ("data.make_batches", "data.load_csv", "data.build_vocab", "model.load", "model.save")


@dataclass(frozen=True)
class Size:
    train_docs: int  # train-agnews corpus rows
    replay_docs: tuple[int, int]  # train/test rows of the metrics.txt replay check
    ckpt_docs: tuple[int, int]  # train/test rows of the eval-dbpedia checkpoint run
    ckpt_steps: int
    eval_docs: int
    setup_reps: int
    setup_min_s: float  # a set-up round lasts at least this long
    gradcheck_prefix: str  # parameters gradcheck-tiny checks, by name prefix ("" = all)


FULL = Size(5000, (320, 64), (700, 140), 40, 1120, 5, 4.0, "")
SMOKE = Size(64, (120, 24), (140, 28), 2, 56, 2, 0.0, "clf.")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    size: Size
    work: Path  # per-run working directory inside the checkout
    src: Path


@dataclass
class Outcome:
    """Operation and check counts, metrics and the human-readable report of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    tracer: Tracer | None = None
    # traced runs only: the program's label encodes and tape_stats per untraced batch
    label_encodes: list[int] = field(default_factory=list)
    tapes: list[tuple[Counter, int]] = field(default_factory=list)

    def __post_init__(self):
        self.counter = LabelEncodeCounter() if self.tracer is not None else None

    def record_program_batch(self, tape: tuple[Counter, int], label_encodes: int) -> None:
        """Counts of one untraced batch: what the program itself did, not the replay."""
        self.tapes.append(tape)
        self.label_encodes.append(label_encodes)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed: {detail}")

    def attempt(self, fn, *args):
        """Run one operation; an exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the loop must go on and report every failure
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=4))
            return None


# ---------------------------------------------------------------------------
# shared helpers


def derive_seed(*entropy) -> int:
    # the derivation training.train uses for its split, init, dropout and shuffle seeds
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def write_corpus(path: Path, n_docs: int, seed: int, gen: dict) -> str:
    rows, _ = synthetic.generate_rows(n_docs, seed=seed, **gen)
    synthetic.write_csv(rows, path)
    return str(path)


def timed_setup(setup, size: Size):
    """One set-up round: setup() at least size.setup_reps times and for size.setup_min_s.

    Returns (seconds of the fastest set-up, last result). Other work on the
    machine can only slow a set-up down, so the fastest of many is the
    steadiest figure. The workloads run one such round before the timed
    loop and one after it, since a shared host's slow phases last seconds to
    minutes. No garbage collection is forced between set-ups: on
    gradcheck-tiny a collection before each set-up doubled its time (cold
    caches) and tripled the spread of the fastest.
    """
    times, result = [], None
    end = time.perf_counter() + size.setup_min_s
    while len(times) < size.setup_reps or time.perf_counter() < end:
        result = None  # free the previous set-up's objects before timing the next
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return min(times), result


class LabelEncodeCounter:
    """Counts the program's calls of encoder.encode_labels_once, whichever module they go through.

    Installed only in traced runs. The benchmark's replay bound the function
    when it was imported, so its calls are not counted.
    """

    MODULES = (idea.encoder, idea.model)

    def __init__(self):
        self.calls = 0
        self.original = idea.encoder.encode_labels_once

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        for module in self.MODULES:
            if getattr(module, "encode_labels_once", None) is self.original:
                module.encode_labels_once = counted


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class BatchStats:
    """Width and PAD share of the batches the timed ops consumed."""

    def __init__(self):
        self.widths: list[int] = []
        self.pad = 0
        self.cells = 0

    def add(self, batch) -> None:
        self.widths.append(batch.token_ids.shape[1])
        self.pad += int(np.sum(batch.token_ids == PAD))
        self.cells += batch.token_ids.size


def check_forward_replay(out: Outcome, model, batch, training: bool, rng) -> None:
    """The traced replay must give IdeaModel.forward's logits bit for bit."""
    rng_a, rng_b = copy.deepcopy(rng), copy.deepcopy(rng)
    want, _ = model.forward(batch.token_ids, batch.pad_mask, training, rng_a)
    got = traced_forward(model, batch.token_ids, batch.pad_mask, training, rng_b, no_span)
    same = want.data.shape == got.data.shape and want.data.tobytes() == got.data.tobytes()
    out.check(f"replay_bit_identical(training={training})", same,
              "traced replay logits differ from IdeaModel.forward")


def checkpoint_roundtrip(out: Outcome, model, path: Path, span) -> None:
    with span("model.save"):
        model.save(path)
    with span("model.load"):
        loaded = IdeaModel.load(path, dtype=model.dtype)
    same = list(loaded.params) == list(model.params) and all(
        np.array_equal(loaded.params[n].data, p.data.astype("<f4").astype(model.dtype))
        for n, p in model.params.items()
    )
    out.check("checkpoint_roundtrip", same, "reloaded parameters differ from the saved ones")
    out.per_layer["model.params"] = (float(sum(p.data.size for p in model.params.values())), "count")
    out.per_layer["model.checkpoint_mb"] = (os.path.getsize(path) / 2**20, "MB")


def finish(out: Outcome, samples: dict, docs: int, loop_s: float, rss_mb: float,
           setup_s: float, stats: BatchStats, names: tuple[str, str, str, str]) -> None:
    """End-to-end metrics from untraced ops, per-layer metrics from traced ones.

    Called last, so that the per-layer figures include the spans of the checks.
    The batch median is reported but not bounded: a shared host alternates
    between fast and contended phases, and on gradcheck-tiny the median falls
    between the two modes (23% spread between 20 s windows, against 10% for
    p90 and 13% for the mean behind docs_per_s).
    """
    p50, p90 = (float(v) for v in np.percentile(samples[False], [50, 90]))
    out.end_to_end.update(
        setup_s=(setup_s, "s"),
        docs_per_s=(docs / loop_s, "docs/s"),
        batch_ms_p90=(p90, "ms"),
        peak_rss_mb=(rss_mb, "MB"),
    )
    rate, p50_name, p90_name, count_name = names
    out.report += [
        (rate, docs / loop_s, "docs/s"), (p50_name, p50, "ms"), (p90_name, p90, "ms"),
        (count_name, float(len(samples[False])), "count"),
    ]
    if out.tracer is None:
        return
    tracer, layers = out.tracer, out.per_layer
    for name in IN_OP_SPANS + SETUP_SPANS:
        durations = tracer.durations_ms(name, in_ops=name in IN_OP_SPANS)
        layers[name + "_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    encodes = out.label_encodes
    layers["encoder.label_encodes_per_batch"] = (statistics.fmean(encodes) if encodes else 0.0, "count")
    self_ms = tracer.layer_self_ms(len(samples[True]))
    for layer in LAYERS:
        layers[layer + ".self_ms"] = (self_ms.get(layer, 0.0), "ms")
    tapes = out.tapes
    ops = tapes[0][0] if tapes else Counter()
    out.check("tape_counts_repeat", all(t[0] == ops for t in tapes), "tape op counts differ between ops")
    layers["autodiff.tape_nodes"] = (float(sum(ops.values())), "count")
    for op in TAPE_OPS + ("other",):
        layers["autodiff.tape_nodes." + op] = (float(ops.get(op, 0)), "count")
    layers["autodiff.tape_mb"] = (statistics.median(t[1] for t in tapes) / 2**20 if tapes else 0.0, "MB")
    layers["data.pad_ratio"] = (stats.pad / stats.cells, "ratio")
    layers["data.batch_width_mean"] = (statistics.fmean(stats.widths), "tokens")
    overhead = statistics.median(samples[True]) / statistics.median(samples[False]) - 1.0
    layers["trace.overhead_pct"] = (100.0 * overhead, "%")
    layers["trace.spans"] = (float(len(tracer.spans)), "count")


def closed_loop(out: Outcome, ctx: Context, op, alternate: bool = True):
    """Call op(traced) for about ctx.seconds; the traced run alternates untraced and traced ops.

    With alternate=False every op of the traced run is traced; such an op
    interleaves traced and untraced work itself.

    op returns (its own duration in ms, payload). Returns ({traced: [ms]},
    [payloads], loop seconds, peak RSS in MB at the end of the loop). No op
    starts that would, at the last op's length, end more than half an op past
    the deadline; but at least one op of each kind the run needs is made.
    """
    samples: dict[bool, list[float]] = {False: [], True: []}
    payloads = []
    t_start = time.perf_counter()
    deadline = t_start + ctx.seconds
    i, last = 0, 0.0
    while time.perf_counter() + last / 2 < deadline or i < (2 if ctx.trace and alternate else 1):
        traced = ctx.trace and (i % 2 == 1 or not alternate)
        if out.tracer is not None:
            out.tracer.op = i if traced else -1
        t0 = time.perf_counter()
        result = out.attempt(op, traced)
        last = time.perf_counter() - t0
        if out.tracer is not None:
            out.tracer.op = -1
        i += 1
        if result is not None:
            samples[traced].append(result[0])
            payloads.append(result[1])
    return samples, payloads, time.perf_counter() - t_start, peak_rss_mb()


# ---------------------------------------------------------------------------
# train-agnews


def build_model(config: TrainConfig, labels: LabelSet, vocab: Vocab):
    """Model and optimizer exactly as training.train builds them."""
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab), d=config.d, n_layers=config.n_layers, n_heads=config.n_heads,
        max_positions=config.max_positions, backend=config.backend, dropout=config.dropout,
    )
    model = IdeaModel.build(
        enc_cfg, labels, vocab, ablation=AblationConfig(config.ablation),
        gamma_mode=config.gamma_mode, dtype=np.float32,
        rng=np.random.default_rng(derive_seed(config.seed, 4)),
    )
    opt = AdamW(model.params, lr=config.learning_rate, beta1=config.adam_beta1,
                beta2=config.adam_beta2, eps=config.adam_epsilon)
    return model, opt


def epoch_batches(docs, vocab, config: TrainConfig, epoch: int):
    return make_batches(docs, vocab, config.batch_size, shuffle=True,
                        seed=derive_seed(config.seed, 6, epoch), max_len=config.max_len)


def train_step(model, opt, batch, config: TrainConfig, rng, tracer: Tracer | None,
               walk_tape: bool = False):
    """One optimizer step in training.train's order.

    Returns (loss, tape_stats of IdeaModel.loss's tape or None, seconds spent
    walking it). walk_tape is for untraced steps; the walk has to sit between
    loss and backward, which frees the tape.
    """
    span = tracer.span if tracer is not None else no_span
    tape, walk_s = None, 0.0
    with span("training.step"):
        with span("training.zero_grads"):
            model.zero_grads()
        with span("autodiff.forward_call"):
            if tracer is not None:
                loss = traced_loss(model, batch, config.lambda_l2, True, rng, span)
            else:
                loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=rng)
        loss_val = float(loss.data)
        if not math.isfinite(loss_val):
            raise FloatingPointError(f"non-finite loss {loss_val}")
        if walk_tape:
            t0 = time.perf_counter()
            tape = tape_stats(loss)
            walk_s = time.perf_counter() - t0
        with span("autodiff.backward"):
            backward(loss)
        with span("training.clip_grads"):
            norm = clip_grads(model.params, config.grad_clip)
        if not math.isfinite(norm):
            raise FloatingPointError(f"non-finite gradient norm at loss {loss_val}")
        with span("training.adamw_step"):
            opt.step()
    return loss_val, tape, walk_s


def replay_training_report(config: TrainConfig) -> str:
    """training.train's orchestration around train_step; returns its metrics.txt text.

    Covers the configurations the replay check uses: no limits, no max_steps.
    """
    labels = LabelSet(list(config.label_names))
    train_docs = load_csv(config.train_csv, len(labels))
    test_docs = load_csv(config.test_csv, len(labels))
    train_docs, val_docs = stratified_split(train_docs, len(test_docs), derive_seed(config.seed, 3))
    vocab = build_vocab(train_docs, config.min_freq, config.vocab_max_size, labels)
    model, opt = build_model(config, labels, vocab)
    rng = np.random.default_rng(derive_seed(config.seed, 5))
    val_batches = make_batches(val_docs, vocab, config.batch_size, max_len=config.max_len)
    test_batches = make_batches(test_docs, vocab, config.batch_size, max_len=config.max_len)
    val_metrics, best, snapshot = [], None, None
    for epoch in range(1, config.epochs + 1):
        for batch in epoch_batches(train_docs, vocab, config, epoch):
            train_step(model, opt, batch, config, rng, None)
        metrics = evaluate(model, val_batches)
        val_metrics.append(metrics)
        if best is None or metrics.accuracy > best[0]:
            best = (metrics.accuracy, len(val_metrics))
            snapshot = model.copy_param_data()
    model.load_param_data(snapshot)
    return RunResult(config.seed, val_metrics, evaluate(model, test_batches), best[1], []).report()


def check_metrics_replay(out: Outcome, ctx: Context) -> None:
    """On a short configuration, train_step's loop reproduces training.train's metrics.txt."""
    n_train, n_test = ctx.size.replay_docs
    config = TrainConfig(
        train_csv=write_corpus(ctx.work / "replay_train.csv", n_train, derive_seed(ctx.seed, 1), AGNEWS_GEN),
        test_csv=write_corpus(ctx.work / "replay_test.csv", n_test, derive_seed(ctx.seed, 2), AGNEWS_GEN),
        label_names=list(AGNEWS_LABELS), epochs=2, seed=ctx.seed, out_dir=str(ctx.work / "replay_run"),
    )
    train(config, log=lambda msg: None)
    want = (ctx.work / "replay_run" / "metrics.txt").read_bytes()
    got = replay_training_report(config).encode("utf-8")
    out.check("metrics_txt_replay", got == want, "benchmark step loop diverged from training.train")


def train_agnews(ctx: Context, out: Outcome) -> None:
    csv_path = write_corpus(ctx.work / "agnews_train.csv", ctx.size.train_docs, ctx.seed, AGNEWS_GEN)
    config = TrainConfig(train_csv=csv_path, label_names=list(AGNEWS_LABELS), seed=ctx.seed)
    labels = LabelSet(list(AGNEWS_LABELS))
    span = out.tracer.span if out.tracer is not None else no_span

    def setup():
        with span("data.load_csv"):
            docs = load_csv(csv_path, len(labels))
        with span("data.build_vocab"):
            vocab = build_vocab(docs, config.min_freq, config.vocab_max_size, labels)
        with span("model.build"):
            model, opt = build_model(config, labels, vocab)
        with span("data.make_batches"):
            batches = epoch_batches(docs, vocab, config, 1)
        return docs, vocab, model, opt, batches

    setup_s, (docs, vocab, model, opt, batches) = timed_setup(setup, ctx.size)
    rng = np.random.default_rng(derive_seed(config.seed, 5))
    epoch, queue = 1, iter(batches)

    def next_batch():
        nonlocal epoch, queue
        batch = next(queue, None)
        if batch is None:  # reshuffle each epoch, as training.train does
            epoch += 1
            with span("data.make_batches"):
                queue = iter(epoch_batches(docs, vocab, config, epoch))
            batch = next(queue)
        return batch

    if out.tracer is not None:
        first = batches[0]
        check_forward_replay(out, model, first, True, rng)
        check_forward_replay(out, model, first, False, rng)
    for _ in range(WARMUP_OPS):
        out.attempt(train_step, model, opt, next_batch(), config, rng, None)

    stats = BatchStats()

    def op(traced):
        batch = next_batch()  # a step's time excludes the epoch reshuffle this may run
        counted = out.counter is not None and not traced
        encodes = out.counter.calls if counted else 0
        t0 = time.perf_counter()
        loss, tape, walk_s = train_step(model, opt, batch, config, rng,
                                        out.tracer if traced else None, walk_tape=counted)
        ms = 1e3 * (time.perf_counter() - t0 - walk_s)
        if counted:
            out.record_program_batch(tape, out.counter.calls - encodes)
        stats.add(batch)
        return ms, (loss, len(batch))

    samples, results, loop_s, rss_mb = closed_loop(out, ctx, op)
    setup_s = min(setup_s, timed_setup(setup, ctx.size)[0])  # a second round, after the loop
    check_metrics_replay(out, ctx)
    if out.tracer is not None:
        checkpoint_roundtrip(out, model, ctx.work / "model.ckpt", span)
    finish(out, samples, sum(r[1] for r in results), loop_s, rss_mb, setup_s, stats,
           ("train_docs_per_s", "train_step_ms_p50", "train_step_ms_p90", "train_steps"))
    out.report.append(("train_loss_final", statistics.fmean(r[0] for r in results[-20:]), "nats"))


# ---------------------------------------------------------------------------
# eval-dbpedia


def train_checkpoint(ctx: Context, out_dir: Path) -> None:
    """Train the fixed-seed checkpoint with the CLI, in a child process so its memory is not ours."""
    n_train, n_test = ctx.size.ckpt_docs
    train_csv = write_corpus(ctx.work / "dbpedia_train.csv", n_train, derive_seed(ctx.seed, 1), DBPEDIA_GEN)
    test_csv = write_corpus(ctx.work / "dbpedia_test.csv", n_test, derive_seed(ctx.seed, 2), DBPEDIA_GEN)
    cmd = [
        sys.executable, "-m", "idea.cli", "train", "--dataset", "dbpedia",
        "--train-csv", train_csv, "--test-csv", test_csv, "--lr", str(CKPT_LR),
        "--max-steps", str(ctx.size.ckpt_steps), "--seed", str(CKPT_SEED), "--out", str(out_dir),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ctx.src), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"checkpoint training exited {proc.returncode}: {proc.stderr[-2000:]}")


def eval_batch(model, batch, tracer: Tracer | None):
    """IdeaModel.forward(training=False) plus argmax, as training.evaluate scores a batch.

    Returns (correct predictions, logits).
    """
    span = tracer.span if tracer is not None else no_span
    with span("training.evaluate_batch"):
        with span("autodiff.forward_call"):
            if tracer is not None:
                logits = traced_forward(model, batch.token_ids, batch.pad_mask, False, None, span)
            else:
                logits, _ = model.forward(batch.token_ids, batch.pad_mask, training=False)
        if not np.all(np.isfinite(logits.data)):
            raise FloatingPointError("non-finite logits")
        pred = np.argmax(logits.data, axis=1)
    return int(np.sum(pred == batch.gold)), logits


def eval_dbpedia(ctx: Context, out: Outcome) -> None:
    ckpt_dir = ctx.work / "dbpedia_ckpt"
    train_checkpoint(ctx, ckpt_dir)
    eval_csv = write_corpus(ctx.work / "dbpedia_eval.csv", ctx.size.eval_docs, ctx.seed, DBPEDIA_GEN)
    span = out.tracer.span if out.tracer is not None else no_span

    def setup():
        with span("data.load_csv"):
            docs = load_csv(eval_csv, len(DBPEDIA_LABELS))
        with span("data.load_vocab"):
            vocab = Vocab.load(ckpt_dir / "vocab.txt")
        with span("model.load"):
            model = IdeaModel.load(ckpt_dir / "model.ckpt")
        with span("data.make_batches"):
            batches = make_batches(docs, vocab, EVAL_BATCH, max_len=128)
        return model, batches

    setup_s, (model, batches) = timed_setup(setup, ctx.size)
    if out.tracer is not None:
        check_forward_replay(out, model, batches[0], False, None)
    for i in range(WARMUP_OPS):
        out.attempt(eval_batch, model, batches[i % len(batches)], None)

    stats = BatchStats()
    first_pass: dict[int, int] = {}
    position = 0

    def op(traced):
        nonlocal position
        index = position % len(batches)
        position += 1
        batch = batches[index]
        counted = out.counter is not None and not traced
        encodes = out.counter.calls if counted else 0
        t0 = time.perf_counter()
        correct, logits = eval_batch(model, batch, out.tracer if traced else None)
        ms = 1e3 * (time.perf_counter() - t0)
        if counted:
            out.record_program_batch(tape_stats(logits), out.counter.calls - encodes)
        first_pass.setdefault(index, correct)
        stats.add(batch)
        return ms, (correct, len(batch))

    samples, results, loop_s, rss_mb = closed_loop(out, ctx, op)
    setup_s = min(setup_s, timed_setup(setup, ctx.size)[0])  # a second round, after the loop
    # the benchmark's scoring must agree with training.evaluate on the batches it saw first
    seen = [i for i in range(min(20, len(batches))) if i in first_pass]
    if seen:
        want = evaluate(model, [batches[i] for i in seen]).accuracy
        got = sum(first_pass[i] for i in seen) / sum(len(batches[i]) for i in seen)
        out.check("eval_matches_training_evaluate", got == want, f"{got!r} != {want!r}")
    if out.tracer is not None:
        checkpoint_roundtrip(out, model, ctx.work / "resaved.ckpt", span)
    scored = sum(r[1] for r in results)
    finish(out, samples, scored, loop_s, rss_mb, setup_s, stats,
           ("eval_docs_per_s", "eval_batch_ms_p50", "eval_batch_ms_p90", "eval_batches"))
    out.report.append(("eval_accuracy", sum(r[0] for r in results) / scored, "ratio"))


# ---------------------------------------------------------------------------
# gradcheck-tiny


def gradcheck_tiny(ctx: Context, out: Outcome) -> None:
    span = out.tracer.span if out.tracer is not None else no_span

    def setup():
        with span("cli.gradcheck_setup"):
            return gradcheck_setup(ctx.seed)

    setup_s, (model, batch, fn) = timed_setup(setup, ctx.size)
    params = {n: p for n, p in model.params.items() if n.startswith(ctx.size.gradcheck_prefix)}
    forward_ms: dict[bool, list[float]] = {False: [], True: []}

    def plain_fn():
        t0 = time.perf_counter()
        loss = fn()
        forward_ms[False].append(1e3 * (time.perf_counter() - t0))
        return loss

    def traced_fn():
        t0 = time.perf_counter()
        with span("autodiff.forward_call"):
            loss = traced_loss(model, batch, GRADCHECK_LAMBDA, False, None, span)
        forward_ms[True].append(1e3 * (time.perf_counter() - t0))
        return loss

    calls = 0

    def mixed_fn():
        # a grad_check call lasts ~10 s, so the traced run alternates per forward call
        nonlocal calls
        calls += 1
        if calls % 2:
            return traced_fn()
        with span("bench.untraced_forward"):  # keeps its time out of the layers' self time
            return plain_fn()

    if out.tracer is not None:
        want, got = fn(), traced_loss(model, batch, GRADCHECK_LAMBDA, False, None, no_span)
        out.check("replay_bit_identical(gradcheck)", want.data.tobytes() == got.data.tobytes(),
                  "traced replay loss differs from the gradcheck closure")
    for _ in range(WARMUP_OPS):
        backward(fn())
    stats = BatchStats()

    def op(traced):
        if traced:  # one program forward and backward, ahead of the timed call
            encodes = out.counter.calls
            loss = fn()
            out.record_program_batch(tape_stats(loss), out.counter.calls - encodes)
            with span("autodiff.backward"):
                backward(loss)
        t0 = time.perf_counter()
        with (span if traced else no_span)("autodiff.grad_check"):
            report = grad_check(mixed_fn if traced else plain_fn, params, step=GRADCHECK_STEP)
        stats.add(batch)
        return 1e3 * (time.perf_counter() - t0), report.max_relative_error

    samples, results, loop_s, rss_mb = closed_loop(out, ctx, op, alternate=False)
    setup_s = min(setup_s, timed_setup(setup, ctx.size)[0])  # a second round, after the loop
    for err in results:  # criterion 1's gate, on every call
        out.check("gradcheck_max_rel_err", err < GRADCHECK_THRESHOLD,
                  f"{err:.3e} >= {GRADCHECK_THRESHOLD}")
    if out.tracer is not None:
        checkpoint_roundtrip(out, model, ctx.work / "model.ckpt", span)
    forwards = len(forward_ms[False]) + len(forward_ms[True])
    finish(out, forward_ms, len(batch) * forwards, loop_s, rss_mb, setup_s, stats,
           ("gradcheck_docs_per_s", "gradcheck_forward_ms_p50", "gradcheck_forward_ms_p90",
            "gradcheck_forwards"))
    calls_ms = samples[False] + samples[True]  # the traced run's calls are all mixed
    out.report += [
        ("gradcheck_s", statistics.median(calls_ms) / 1e3, "s"),
        ("gradcheck_calls", float(len(calls_ms)), "count"),
        ("gradcheck_max_rel_err", max(results), "ratio"),
    ]


WORKLOADS = {
    "train-agnews": train_agnews,
    "eval-dbpedia": eval_dbpedia,
    "gradcheck-tiny": gradcheck_tiny,
}
