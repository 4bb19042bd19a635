"""Optimization, the training loop, evaluation metrics and seed-sweep statistics."""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .autodiff import Tensor, backward
from .data import (
    Batch,
    LabelSet,
    Vocab,
    atomic_open,
    build_vocab,
    load_csv,
    make_batches,
    stratified_sample,
    stratified_split,
)
from .encoder import EncoderConfig
from .head import GAMMA_MODE, AblationConfig
from .model import IdeaModel


class NonFiniteLossError(RuntimeError):
    """Training hit a NaN/inf loss; the message carries step diagnostics."""


@dataclass
class TrainConfig:
    """The train/ablate flags, one field each; the ClassVars are the recipe's fixed values."""

    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_epsilon: ClassVar[float] = 1e-6
    grad_clip: ClassVar[float] = 1.0
    gamma_mode: ClassVar[str] = GAMMA_MODE
    backend: ClassVar[str] = EncoderConfig.backend
    max_positions: ClassVar[int] = EncoderConfig.max_positions

    train_csv: str = ""
    test_csv: str = ""
    label_names: list[str] = field(default_factory=list)
    learning_rate: float = 5e-5
    batch_size: int = 32
    dropout: float = EncoderConfig.dropout
    lambda_l2: float = 0.01
    epochs: int = 2
    seed: int = 0
    ablation: str = "full"
    max_len: int = 128
    max_steps: int | None = None
    train_limit: int | None = None
    test_limit: int | None = None
    # encoder size knobs, defaulting to EncoderConfig's desk-scale values
    d: int = EncoderConfig.d
    n_layers: int = EncoderConfig.n_layers
    n_heads: int = EncoderConfig.n_heads
    min_freq: int = 1
    vocab_max_size: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        # NaN fails every comparison; a NaN or inf rate would end training at its first step
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"TrainConfig.learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ValueError("TrainConfig.batch_size must be positive")
        if not 0 <= self.lambda_l2 < math.inf:
            raise ValueError(f"TrainConfig.lambda_l2 must be >= 0 and finite, got {self.lambda_l2}")
        if self.epochs < 1:
            raise ValueError("TrainConfig.epochs must be >= 1")
        if self.max_len > self.max_positions - 2:  # [CLS] and [SEP] take two positions
            raise ValueError(
                f"TrainConfig.max_len {self.max_len} exceeds max_positions - 2 "
                f"= {self.max_positions - 2}"
            )


@dataclass
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list[dict]  # tp/fp/fn per class, dataset order
    n_samples: int

    def report_lines(self, prefix: str = "") -> list[str]:
        lines = [
            f"{prefix}accuracy={self.accuracy!r}",
            f"{prefix}macro_precision={self.macro_precision!r}",
            f"{prefix}macro_recall={self.macro_recall!r}",
            f"{prefix}macro_f1={self.macro_f1!r}",
            f"{prefix}n_samples={self.n_samples}",
        ]
        for i, counts in enumerate(self.per_class):
            lines.append(f"{prefix}class_{i}_tp={counts['tp']}")
            lines.append(f"{prefix}class_{i}_fp={counts['fp']}")
            lines.append(f"{prefix}class_{i}_fn={counts['fn']}")
        return lines


@dataclass
class RunResult:
    seed: int
    val_metrics: list[Metrics]
    test_metrics: Metrics
    selected_epoch: int  # 1-based
    epoch_seconds: list[float]

    def report(self) -> str:
        """Deterministic key=value report; timing deliberately excluded."""
        lines = [f"seed={self.seed}", f"epochs_run={len(self.val_metrics)}", f"selected_epoch={self.selected_epoch}"]
        for i, m in enumerate(self.val_metrics, start=1):
            lines.append(f"val_accuracy_epoch_{i}={m.accuracy!r}")
        lines.extend(self.test_metrics.report_lines(prefix="test_"))
        return "\n".join(lines) + "\n"


def metrics_from_counts(per_class: list[dict], n_samples: int) -> Metrics:
    """Macro metrics from per-class tp/fp/fn; empty denominators count as 0."""
    precisions, recalls, f1s = [], [], []
    tp_total = 0
    for counts in per_class:
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        tp_total += tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    n_cls = len(per_class)
    return Metrics(
        accuracy=tp_total / n_samples,
        macro_precision=sum(precisions) / n_cls,
        macro_recall=sum(recalls) / n_cls,
        macro_f1=sum(f1s) / n_cls,
        per_class=per_class,
        n_samples=n_samples,
    )


class AdamW:
    """Adam with bias correction and epsilon inside the denominator.

    There is no decoupled weight decay: the squared-norm penalty already
    sits in the loss, and applying both would double-regularize.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = TrainConfig.adam_beta1,
        beta2: float = TrainConfig.adam_beta2,
        eps: float = TrainConfig.adam_epsilon,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g.shape != p.data.shape:
                raise ValueError(f"AdamW: grad shape {g.shape} != param {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * update


def clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; return the norm before clipping."""
    total = 0.0  # a loop, not sum(): since Python 3.12 sum() compensates float rounding
    for p in params.values():
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm and norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            p.grad *= factor
    return norm


def _derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def evaluate(model: IdeaModel, batches: list[Batch]) -> Metrics:
    """Argmax predictions with dropout disabled."""
    if not batches:
        raise ValueError("evaluate: empty dataset")
    n_cls = model.n_classes
    per_class = [{"tp": 0, "fp": 0, "fn": 0} for _ in range(n_cls)]
    n = 0
    for batch in batches:
        logits, _ = model.forward(batch.token_ids, batch.pad_mask, training=False)
        pred = np.argmax(logits.data, axis=1)
        for y_hat, y in zip(pred, batch.gold):
            n += 1
            if y_hat == y:
                per_class[y]["tp"] += 1
            else:
                per_class[y_hat]["fp"] += 1
                per_class[y]["fn"] += 1
    return metrics_from_counts(per_class, n)


def train(config: TrainConfig, log=print) -> RunResult:
    """Shuffle, batch, optimize, validate per epoch, test the best epoch."""
    labels = LabelSet(list(config.label_names))
    n_cls = len(labels)
    if n_cls < 2:
        raise ValueError("train: need at least two label names")
    for path in (config.train_csv, config.test_csv):
        if not os.path.exists(path):
            raise FileNotFoundError(f"train: dataset file not found: {path}")
    train_docs = load_csv(config.train_csv, n_cls)
    test_docs = load_csv(config.test_csv, n_cls)
    if config.train_limit is not None:
        train_docs = stratified_sample(train_docs, config.train_limit, _derive_seed(config.seed, 1))
    if config.test_limit is not None:
        test_docs = stratified_sample(test_docs, config.test_limit, _derive_seed(config.seed, 2))

    # validation carved from the training set, same size as the test set
    val_size = len(test_docs)
    if val_size < 1 or val_size >= len(train_docs):
        raise ValueError(
            f"train: cannot carve a validation set of {val_size} from "
            f"{len(train_docs)} training documents; adjust --train-limit/--test-limit"
        )
    train_docs, val_docs = stratified_split(train_docs, val_size, _derive_seed(config.seed, 3))

    vocab = build_vocab(train_docs, config.min_freq, config.vocab_max_size, labels)
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab),
        d=config.d,
        n_layers=config.n_layers,
        n_heads=config.n_heads,
        dropout=config.dropout,
    )
    rng = np.random.default_rng(_derive_seed(config.seed, 4))
    model = IdeaModel.build(
        enc_cfg,
        labels,
        vocab,
        ablation=AblationConfig(config.ablation),
        dtype=np.float32,
        rng=rng,
    )
    opt = AdamW(model.params, lr=config.learning_rate)
    dropout_rng = np.random.default_rng(_derive_seed(config.seed, 5))
    val_batches = make_batches(val_docs, vocab, config.batch_size, max_len=config.max_len)
    test_batches = make_batches(test_docs, vocab, config.batch_size, max_len=config.max_len)

    val_metrics: list[Metrics] = []
    epoch_seconds: list[float] = []
    best: tuple[float, int] | None = None  # (accuracy, epoch index)
    best_snapshot = None
    step = 0
    norm = None  # the previous step's pre-clip gradient norm while the next loss is checked
    stop = False
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batches = make_batches(
            train_docs,
            vocab,
            config.batch_size,
            shuffle=True,
            seed=_derive_seed(config.seed, 6, epoch),
            max_len=config.max_len,
        )
        loss_sum, loss_count = 0.0, 0
        for batch in batches:
            model.zero_grads()
            loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=dropout_rng)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                prev = "n/a (first step)" if norm is None else f"{norm} (previous step)"
                raise NonFiniteLossError(
                    f"non-finite loss {loss_val} at step {step + 1} "
                    f"(epoch {epoch}, lr {config.learning_rate}, grad_norm {prev})"
                )
            backward(loss)
            norm = clip_grads(model.params, config.grad_clip)
            if not math.isfinite(norm):
                raise NonFiniteLossError(
                    f"non-finite gradient norm at step {step + 1} "
                    f"(epoch {epoch}, lr {config.learning_rate}, loss {loss_val})"
                )
            opt.step()
            step += 1
            loss_sum += loss_val
            loss_count += 1
            if config.max_steps is not None and step >= config.max_steps:
                stop = True
                break
        metrics = evaluate(model.frozen(), val_batches)
        val_metrics.append(metrics)
        epoch_seconds.append(time.perf_counter() - t0)
        if best is None or metrics.accuracy > best[0]:
            best = (metrics.accuracy, len(val_metrics))
            best_snapshot = model.copy_param_data()
        log(
            f"epoch {epoch}: train_loss={loss_sum / max(1, loss_count):.4f} "
            f"val_acc={metrics.accuracy:.4f} ({epoch_seconds[-1]:.1f}s)"
        )
        if stop:
            break

    model.load_param_data(best_snapshot)
    test_metrics = evaluate(model.frozen(), test_batches)
    result = RunResult(
        seed=config.seed,
        val_metrics=val_metrics,
        test_metrics=test_metrics,
        selected_epoch=best[1],
        epoch_seconds=epoch_seconds,
    )
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        vocab.save(os.path.join(config.out_dir, "vocab.txt"))
        model.save(os.path.join(config.out_dir, "model.ckpt"))
        with atomic_open(os.path.join(config.out_dir, "metrics.txt"), "w", encoding="utf-8") as fh:
            fh.write(result.report())
        with atomic_open(os.path.join(config.out_dir, "timing.txt"), "w", encoding="utf-8") as fh:
            for i, secs in enumerate(epoch_seconds, start=1):
                fh.write(f"epoch_{i}_seconds={secs:.3f}\n")
    return result


@dataclass
class WelchResult:
    t: float
    p: float
    df: float


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Unequal-variance two-sample t-test.

    t = (mean_a - mean_b) / sqrt(va/na + vb/nb) with sample variances;
    degrees of freedom follow Welch-Satterthwaite; p is the two-sided
    tail of the t distribution. Identical samples short-circuit to
    (t=0, p=1).
    """
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("welch_t_test: each sample needs n >= 2")
    if a == b:
        va = _sample_var(a)
        df = 2.0 * (na - 1) if va > 0 else float("nan")
        return WelchResult(t=0.0, p=1.0, df=df)
    ma, mb = sum(a) / na, sum(b) / nb
    va, vb = _sample_var(a), _sample_var(b)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        if ma == mb:
            raise ValueError("welch_t_test: zero variance in both samples with equal means")
        return WelchResult(t=math.copysign(math.inf, ma - mb), p=0.0, df=float("nan"))
    from scipy.special import stdtr  # not at module level: it adds ~250 ms and ~26 MB to every command

    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return WelchResult(t=t, p=p, df=df)


def _sample_var(xs: list[float]) -> float:
    m = sum(xs) / len(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def export_features(model: IdeaModel, batches: list[Batch], path) -> None:
    """One row per sample: gold label, predicted label, then the z entries."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for batch in batches:
            logits, feats = model.forward(batch.token_ids, batch.pad_mask, training=False)
            pred = np.argmax(logits.data, axis=1)
            for row in range(len(batch)):
                cells = [str(int(batch.gold[row])), str(int(pred[row]))]
                cells.extend(repr(float(v)) for v in feats.z.data[row])
                fh.write("\t".join(cells) + "\n")
