"""Optimization, the training loop, evaluation metrics and seed-sweep statistics."""
from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .autodiff import Tensor, backward
from .data import (
    SPECIAL_TOKENS,
    Batch,
    LabelSet,
    Vocab,
    atomic_open,
    build_vocab,
    check_label_sequence_length,
    load_documents,
    make_batches,
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
        if not 0 <= self.lambda_l2 < math.inf:
            raise ValueError(f"TrainConfig.lambda_l2 must be >= 0 and finite, got {self.lambda_l2}")
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValueError(f"TrainConfig.seed must be >= 0, got {self.seed}")
        for name in ("epochs", "batch_size", "train_limit", "test_limit", "max_steps", "max_len", "min_freq"):
            value = getattr(self, name)
            if value is not None and value < 1:  # None means no limit
                raise ValueError(f"TrainConfig.{name} must be >= 1, got {value}")
        if self.vocab_max_size is not None and self.vocab_max_size <= len(SPECIAL_TOKENS):
            raise ValueError(f"TrainConfig.vocab_max_size must be > {len(SPECIAL_TOKENS)} (the special tokens), "
                             f"got {self.vocab_max_size}")
        if self.max_len > self.max_positions - 2:  # [CLS] and [SEP] take two positions
            raise ValueError(
                f"TrainConfig.max_len {self.max_len} exceeds max_positions - 2 "
                f"= {self.max_positions - 2}"
            )
        self.encoder_config(1)  # the encoder's own rules, with a placeholder vocabulary size
        check_label_sequence_length(LabelSet(list(self.label_names)), self.max_positions)  # before any CSV is read

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, d=self.d, n_layers=self.n_layers, n_heads=self.n_heads,
                             dropout=self.dropout)


@dataclass
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list[dict]  # tp/fp/fn per class, dataset order
    n_samples: int

    def report_lines(self) -> list[str]:
        lines = [
            f"test_accuracy={self.accuracy!r}",
            f"test_macro_precision={self.macro_precision!r}",
            f"test_macro_recall={self.macro_recall!r}",
            f"test_macro_f1={self.macro_f1!r}",
            f"test_n_samples={self.n_samples}",
        ]
        for i, counts in enumerate(self.per_class):
            lines.append(f"test_class_{i}_tp={counts['tp']}")
            lines.append(f"test_class_{i}_fp={counts['fp']}")
            lines.append(f"test_class_{i}_fn={counts['fn']}")
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
        lines.extend(self.test_metrics.report_lines())
        return "\n".join(lines) + "\n"


def metrics_from_counts(per_class: list[dict], n_samples: int) -> Metrics:
    """Macro metrics from per-class tp/fp/fn; empty denominators count as 0."""
    tp_total = 0
    prec_total = rec_total = f1_total = 0.0  # a loop, not sum(): since Python 3.12 sum() compensates float rounding
    for counts in per_class:
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        tp_total += tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        prec_total += prec
        rec_total += rec
        f1_total += 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    n_cls = len(per_class)
    return Metrics(
        accuracy=tp_total / n_samples,
        macro_precision=prec_total / n_cls,
        macro_recall=rec_total / n_cls,
        macro_f1=f1_total / n_cls,
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
            # in place, in the textbook's order; out= keeps a shape () step an array, not a numpy scalar
            s = np.empty_like(m)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            np.sqrt(np.divide(v, bc2, out=s), out=s)
            s += self.eps
            update = m / bc1
            update /= s
            update *= self.lr
            p.data -= update


def clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; return the norm before clipping."""
    total = 0.0  # a loop, not sum(): since Python 3.12 sum() compensates float rounding
    for p in params.values():
        sq = p.grad.astype(np.float64)
        sq *= sq
        total += float(sq.sum())
    norm = math.sqrt(total)
    if norm > max_norm:
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


@dataclass
class StepStats:
    """What train reads from one step."""

    loss: float
    grad_norm: float  # before clipping


def build(config: TrainConfig, labels: LabelSet, vocab: Vocab) -> tuple[IdeaModel, AdamW]:
    """The recipe's float32 model, initialized from config.seed, and its AdamW."""
    model = IdeaModel.build(config.encoder_config(len(vocab)), labels, vocab,
                            ablation=AblationConfig(config.ablation), dtype=np.float32,
                            rng=np.random.default_rng(_derive_seed(config.seed, 4)))
    return model, AdamW(model.params, lr=config.learning_rate)


def train_step(model: IdeaModel, opt: AdamW, batch: Batch, config: TrainConfig,
               rng: np.random.Generator) -> StepStats:
    """One optimizer step: the loss with dropout from rng, its gradients clipped, then AdamW.

    A non-finite loss or gradient norm raises NonFiniteLossError(what, detail)
    before any parameter moves; train puts the step's position into its message.
    """
    model.zero_grads()
    loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=rng)
    loss_val = float(loss.data)
    if not math.isfinite(loss_val):
        raise NonFiniteLossError(f"non-finite loss {loss_val}", None)
    backward(loss)
    norm = clip_grads(model.params, config.grad_clip)
    if not math.isfinite(norm):
        raise NonFiniteLossError("non-finite gradient norm", f"loss {loss_val}")
    opt.step()
    return StepStats(loss_val, norm)


def train(config: TrainConfig, log=print) -> RunResult:
    """Shuffle, batch, optimize, validate per epoch, test the best epoch."""
    labels = LabelSet(list(config.label_names))
    n_cls = len(labels)
    if n_cls < 2:
        raise ValueError("train: need at least two label names")
    for path in (config.train_csv, config.test_csv):
        if not os.path.exists(path):
            raise FileNotFoundError(f"train: dataset file not found: {path}")
    if config.out_dir:  # before any CSV is read, so an --out that is a file fails at once
        os.makedirs(config.out_dir, exist_ok=True)
    train_docs = load_documents(config.train_csv, n_cls, config.train_limit, _derive_seed(config.seed, 1), "train")
    test_docs = load_documents(config.test_csv, n_cls, config.test_limit, _derive_seed(config.seed, 2), "train")

    # validation carved from the training set, same size as the test set
    val_size = len(test_docs)
    if val_size < 1 or val_size >= len(train_docs):
        raise ValueError(
            f"train: cannot carve a validation set of {val_size} from "
            f"{len(train_docs)} training documents; adjust --train-limit/--test-limit"
        )
    train_docs, val_docs = stratified_split(train_docs, val_size, _derive_seed(config.seed, 3))

    vocab = build_vocab(train_docs, config.min_freq, config.vocab_max_size, labels)
    model, opt = build(config, labels, vocab)
    dropout_rng = np.random.default_rng(_derive_seed(config.seed, 5))
    val_batches = make_batches(val_docs, vocab, config.batch_size, max_len=config.max_len)
    test_batches = make_batches(test_docs, vocab, config.batch_size, max_len=config.max_len)

    val_metrics: list[Metrics] = []
    epoch_seconds: list[float] = []
    best: tuple[float, int, IdeaModel] | None = None  # (accuracy, epoch index, that epoch's frozen model)
    stats = None  # the previous step's, whose pre-clip norm a non-finite loss names
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
            try:
                stats = train_step(model, opt, batch, config, dropout_rng)
            except NonFiniteLossError as exc:  # train_step's (what, detail) gains the step's position
                what, detail = exc.args
                prev = "n/a (first step)" if stats is None else f"{stats.grad_norm} (previous step)"
                where = f"at step {opt.t + 1} (epoch {epoch}, lr {config.learning_rate}"
                raise NonFiniteLossError(f"{what} {where}, {detail or 'grad_norm ' + prev})") from None
            loss_sum += stats.loss
            loss_count += 1
            if config.max_steps is not None and opt.t >= config.max_steps:
                stop = True
                break
        frozen = model.frozen()
        metrics = evaluate(frozen, val_batches)
        val_metrics.append(metrics)
        epoch_seconds.append(time.perf_counter() - t0)
        if best is None or metrics.accuracy > best[0]:
            best = (metrics.accuracy, len(val_metrics), frozen)
        log(
            f"epoch {epoch}: train_loss={loss_sum / max(1, loss_count):.4f} "
            f"val_acc={metrics.accuracy:.4f} ({epoch_seconds[-1]:.1f}s)"
        )
        if stop:
            break

    _, selected_epoch, best_model = best
    result = RunResult(
        seed=config.seed,
        val_metrics=val_metrics,
        test_metrics=evaluate(best_model, test_batches),
        selected_epoch=selected_epoch,
        epoch_seconds=epoch_seconds,
    )
    if config.out_dir:
        vocab.save(os.path.join(config.out_dir, "vocab.txt"))
        best_model.save(os.path.join(config.out_dir, "model.ckpt"))
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

    t = (mean_a - mean_b) / sqrt(va/na + vb/nb) with sample variances,
    which statistics computes exactly, so a constant sample's is 0;
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
        df = 2.0 * (na - 1) if statistics.variance(a) > 0 else float("nan")
        return WelchResult(t=0.0, p=1.0, df=df)
    ma, mb = statistics.mean(a), statistics.mean(b)
    va, vb = statistics.variance(a), statistics.variance(b)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        if ma == mb:
            raise ValueError("welch_t_test: zero variance in both samples with equal means")
        return WelchResult(t=math.copysign(math.inf, ma - mb), p=0.0, df=float("nan"))
    t = (ma - mb) / math.sqrt(se2)
    df = 1.0 / ((va / na / se2) ** 2 / (na - 1) + (vb / nb / se2) ** 2 / (nb - 1))  # se2**2 may underflow
    return WelchResult(t=t, p=_t_two_sided_p(t, df), df=df)


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom: I_x(df/2, 1/2), x = df/(df + t^2).

    I_x(a, b) is the regularized incomplete beta function, x^a (1-x)^b / (a B(a, b))
    times a continued fraction (Press et al., Numerical Recipes, 6.4). The
    fraction converges fast below x = (a+1)/(a+b+2); above it, I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    a, b, r = 0.5 * df, 0.5, t * t / df  # x = 1/(1+r) and 1-x = r/(1+r), neither by a subtraction
    if r == 0.0:  # t = 0, or t * t underflows
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(r) - b * math.log1p(1.0 / r))
    x = 1.0 / (1.0 + r)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, r / (1.0 + r)) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """1/(1 + d1/(1 + d2/(1 + ...))), the incomplete beta's continued fraction, by modified Lentz."""
    tiny = 1e-300  # stands in for a zero denominator
    f, c, d = 1.0, 1.0, 0.0
    for m in range(10_000):
        for coef in (-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),  # d_{2m+1}
                     (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))):  # d_{2m+2}
            d = 1.0 + coef * d
            d = 1.0 / (tiny if abs(d) <= tiny else d)  # a NaN fails <= and stays NaN: it never converges
            c = 1.0 + coef / c
            c = tiny if abs(c) <= tiny else c
            f *= c * d
        if abs(c * d - 1.0) < 2.3e-16:  # the last term moved f by at most one ulp
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


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
