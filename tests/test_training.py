import math
import os

import numpy as np
import pytest

from idea import synthetic
from idea.autodiff import FREED_MEMORY_KEPT, Tensor, backward
from idea.data import Document, LabelSet, build_vocab, load_csv, make_batches
from idea.encoder import EncoderConfig
from idea.head import AblationConfig
from idea.model import IdeaModel
from idea.training import (
    AdamW,
    Metrics,
    NonFiniteLossError,
    RunResult,
    TrainConfig,
    WelchResult,
    clip_grads,
    evaluate,
    export_features,
    metrics_from_counts,
    train,
    welch_t_test,
)


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_zero_gradient_leaves_params(rng):
    p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = AdamW({"p": p}, lr=0.1)
    for _ in range(5):
        p.zero_grad()
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    lr, eps = 0.01, 1e-6
    opt = AdamW({"p": p}, lr=lr, eps=eps)
    p.grad = np.array([1.0])
    opt.step()
    # bias correction makes m_hat = v_hat = 1 at t=1
    expected = 1.0 - lr * 1.0 / (1.0 + eps)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)


def test_adamw_quadratic_bowl_monotone_after_warmin():
    # scripted run: f(x) = x0^2 + 4 x1^2, gradient 2x0, 8x1
    x = Tensor(np.array([2.0, -1.5]), requires_grad=True)
    opt = AdamW({"x": x}, lr=0.05)
    losses = []
    for _ in range(50):
        x.zero_grad()
        losses.append(float(x.data[0] ** 2 + 4 * x.data[1] ** 2))
        x.grad = np.array([2 * x.data[0], 8 * x.data[1]])
        opt.step()
    warm = losses[5:]
    assert all(b < a for a, b in zip(warm, warm[1:]))
    assert losses[-1] < 0.1 * losses[0]


def test_adamw_shape_mismatch():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = np.zeros((3,))
    with pytest.raises(ValueError):
        opt.step()


def test_l2_only_gradient_shrinks_weights(rng):
    # one step against the pure penalty gradient lam * W strictly shrinks
    # the Frobenius norm (coordinates are far larger than the step size)
    lam = 0.01
    w = Tensor(rng.normal(0.0, 0.02, size=(8, 8)), requires_grad=True)
    before = float(np.linalg.norm(w.data))
    opt = AdamW({"w": w}, lr=5e-5)
    w.grad = lam * w.data
    opt.step()
    assert float(np.linalg.norm(w.data)) < before


def test_clip_grads_scales_global_norm(rng):
    a = Tensor(rng.normal(size=(4,)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    a.grad = np.full(4, 10.0)
    b.grad = np.full(3, -10.0)
    params = {"a": a, "b": b}
    raw = clip_grads(params, max_norm=1.0)
    assert raw > 1.0
    total = np.sqrt(sum(np.sum(p.grad**2) for p in params.values()))
    np.testing.assert_allclose(total, 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# welch


def test_welch_identical_samples():
    res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t == 0.0 and res.p == 1.0


def test_welch_clear_separation():
    res = welch_t_test([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
    assert abs(res.t) > 10
    assert res.p < 0.001


# hand-worked with exact fractions; p cross-checked against an
# independent incomplete-beta evaluation
WELCH_ORACLE = [
    (
        [94.2, 94.9, 94.6, 94.4, 94.8],
        [94.0, 94.1, 93.9, 94.2, 94.05],
        3.855182727502532,
        5.191817157806766,  # 142884/27521
        0.011107321488707688,
    ),
    ([3.0, 4.0, 5.0], [1.0, 2.0, 3.0], math.sqrt(6), 4.0, 0.07048399691021995),
    (
        [20.0, 21.0, 22.0, 23.0, 24.0],
        [30.0, 28.0, 26.0, 24.0, 22.0],
        -2.5298221281347035,
        5.882352941176471,  # 100/17
        0.04546461897093045,
    ),
]


@pytest.mark.parametrize("a,b,t_ref,df_ref,p_ref", WELCH_ORACLE)
def test_welch_hand_worked_values(a, b, t_ref, df_ref, p_ref):
    res = welch_t_test(a, b)
    assert abs(res.t - t_ref) < 1e-6
    assert abs(res.df - df_ref) < 1e-6
    assert abs(res.p - p_ref) < 1e-9


def test_welch_zero_variance_equal_means():
    with pytest.raises(ValueError):
        welch_t_test([5.0, 5.0], [5.0, 5.0, 5.0])


def test_welch_needs_two_points():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# evaluate / metrics


class _StubModel:
    """Predicts a fixed class for every row."""

    def __init__(self, n_classes, fixed=0):
        self.n_classes = n_classes
        self.fixed = fixed

    def forward(self, token_ids, pad_mask, training=False, rng=None):
        logits = np.zeros((token_ids.shape[0], self.n_classes))
        logits[:, self.fixed] = 5.0
        return Tensor(logits), None


def _balanced_batches(n=40, n_classes=4):
    docs = [Document(f"word{i}", i % n_classes) for i in range(n)]
    vocab = build_vocab(docs)
    return make_batches(docs, vocab, batch_size=8), vocab


def test_evaluate_all_correct():
    batches, _ = _balanced_batches()
    per_batch = []
    for b in batches:
        logits = np.zeros((len(b), 4))
        logits[np.arange(len(b)), b.gold] = 3.0
        per_batch.append(logits)

    class Perfect:
        n_classes = 4

        def __init__(self):
            self.i = 0

        def forward(self, token_ids, pad_mask, training=False, rng=None):
            logits = per_batch[self.i]
            self.i += 1
            return Tensor(logits), None

    metrics = evaluate(Perfect(), batches)
    assert metrics.accuracy == 1.0
    assert metrics.macro_f1 == 1.0


def test_evaluate_constant_predictor_balanced():
    batches, _ = _balanced_batches()
    metrics = evaluate(_StubModel(4, fixed=1), batches)
    assert metrics.accuracy == 0.25
    assert metrics.macro_recall == 0.25
    assert metrics.n_samples == 40


def test_evaluate_empty():
    with pytest.raises(ValueError):
        evaluate(_StubModel(3), [])


def test_report_counts_reproduce_metrics(synthetic_corpus, tmp_path):
    # recount oracle: parse the serialized per-class counts and rebuild
    # accuracy and macro recall from them
    out = str(tmp_path / "run")
    res = train(_fast_config(synthetic_corpus, out_dir=out), log=lambda m: None)
    report = dict(
        line.split("=", 1)
        for line in open(os.path.join(out, "metrics.txt")).read().splitlines()
    )
    tp = [int(report[f"test_class_{i}_tp"]) for i in range(3)]
    fn = [int(report[f"test_class_{i}_fn"]) for i in range(3)]
    n = int(report["test_n_samples"])
    assert sum(tp) / n == res.test_metrics.accuracy == float(report["test_accuracy"])
    recalls = [t / (t + f) if t + f else 0.0 for t, f in zip(tp, fn)]
    assert sum(recalls) / 3 == pytest.approx(res.test_metrics.macro_recall)


def test_metrics_recomputable_from_counts():
    per_class = [
        {"tp": 10, "fp": 2, "fn": 3},
        {"tp": 7, "fp": 4, "fn": 1},
        {"tp": 0, "fp": 0, "fn": 5},
    ]
    n = 10 + 3 + 7 + 1 + 5
    m = metrics_from_counts(per_class, n)
    assert m.accuracy == (10 + 7 + 0) / n
    precs = [10 / 12, 7 / 11, 0.0]
    recs = [10 / 13, 7 / 8, 0.0]
    assert m.macro_precision == pytest.approx(sum(precs) / 3)
    assert m.macro_recall == pytest.approx(sum(recs) / 3)


# ---------------------------------------------------------------------------
# training loop


def _fast_config(corpus, **overrides):
    base = dict(
        train_csv=corpus["train"],
        test_csv=corpus["test"],
        label_names=corpus["labels"],
        epochs=2,
        seed=0,
        d=16,
        n_layers=1,
        n_heads=2,
        learning_rate=1e-3,
        max_steps=20,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_is_deterministic(synthetic_corpus, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    res_a = train(_fast_config(synthetic_corpus, out_dir=out_a), log=lambda m: None)
    res_b = train(_fast_config(synthetic_corpus, out_dir=out_b), log=lambda m: None)
    assert res_a.report() == res_b.report()
    with open(os.path.join(out_a, "metrics.txt"), "rb") as fa, open(
        os.path.join(out_b, "metrics.txt"), "rb"
    ) as fb:
        assert fa.read() == fb.read()


def test_train_selected_epoch_is_argmax(synthetic_corpus):
    res = train(_fast_config(synthetic_corpus, epochs=3, max_steps=None), log=lambda m: None)
    accs = [m.accuracy for m in res.val_metrics]
    best = accs[res.selected_epoch - 1]
    assert best == max(accs)
    assert accs.index(max(accs)) + 1 == res.selected_epoch  # earliest tie wins


def test_train_writes_artifacts(synthetic_corpus, tmp_path):
    out = str(tmp_path / "run")
    res = train(_fast_config(synthetic_corpus, out_dir=out), log=lambda m: None)
    for name in ("metrics.txt", "vocab.txt", "model.ckpt", "timing.txt"):
        assert os.path.exists(os.path.join(out, name))
    report = open(os.path.join(out, "metrics.txt")).read()
    assert f"test_accuracy={res.test_metrics.accuracy!r}" in report
    assert "seconds" not in report  # timing lives elsewhere


def test_train_missing_dataset(synthetic_corpus):
    cfg = _fast_config(synthetic_corpus)
    cfg.train_csv = "/nonexistent/file.csv"
    with pytest.raises(FileNotFoundError):
        train(cfg, log=lambda m: None)


def test_train_rejects_oversized_validation(synthetic_corpus):
    cfg = _fast_config(synthetic_corpus, train_limit=100, test_limit=120)
    with pytest.raises(ValueError):
        train(cfg, log=lambda m: None)


def test_train_aborts_on_nonfinite_loss(synthetic_corpus):
    # an absurd learning rate drives the squared-norm penalty to overflow
    cfg = _fast_config(synthetic_corpus, learning_rate=1e30, epochs=2, max_steps=None)
    with pytest.raises(NonFiniteLossError) as err, np.errstate(over="ignore"):
        train(cfg, log=lambda m: None)
    assert "step" in str(err.value)
    assert "1e+30" in str(err.value)


@pytest.mark.parametrize("bad_step", [1, 3])
def test_nonfinite_loss_names_previous_grad_norm(synthetic_corpus, monkeypatch, bad_step):
    norms, losses = [], []
    real_loss = IdeaModel.loss

    def clip(params, max_norm):
        norms.append(clip_grads(params, max_norm))
        return norms[-1]

    def loss(self, *args, **kwargs):
        out = real_loss(self, *args, **kwargs)
        losses.append(out[0])
        if len(losses) == bad_step:
            out[0].data = np.full_like(out[0].data, np.nan)
        return out

    monkeypatch.setattr("idea.training.clip_grads", clip)
    monkeypatch.setattr(IdeaModel, "loss", loss)
    with pytest.raises(NonFiniteLossError) as err:
        train(_fast_config(synthetic_corpus), log=lambda m: None)
    assert f"at step {bad_step} " in str(err.value)
    assert len(norms) == bad_step - 1
    if bad_step == 1:
        assert "grad_norm n/a (first step)" in str(err.value)
    else:
        assert f"grad_norm {norms[-1]} (previous step)" in str(err.value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_l2=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_train_config_rejects_max_len_beyond_positions():
    TrainConfig(max_len=510)  # [CLS] + 510 tokens + [SEP] fill the default 512 positions
    with pytest.raises(ValueError, match="max_len 511"):
        TrainConfig(max_len=511)


def test_train_metrics_write_failure_keeps_previous_file(synthetic_corpus, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.txt").write_text("previous\n")

    def broken_report(self):
        raise RuntimeError("report failed")

    monkeypatch.setattr(RunResult, "report", broken_report)
    with pytest.raises(RuntimeError, match="report failed"):
        train(_fast_config(synthetic_corpus, out_dir=str(out), max_steps=2, epochs=1),
              log=lambda m: None)
    assert (out / "metrics.txt").read_text() == "previous\n"
    assert sorted(os.listdir(out)) == ["metrics.txt", "model.ckpt", "vocab.txt"]


def test_train_limits_subsample(synthetic_corpus):
    cfg = _fast_config(synthetic_corpus, train_limit=150, test_limit=60, max_steps=4, epochs=1)
    res = train(cfg, log=lambda m: None)
    assert res.test_metrics.n_samples == 60
    assert res.val_metrics[0].n_samples == 60


@pytest.mark.skipif(not FREED_MEMORY_KEPT, reason="the C library has no usable mallopt")
def test_warm_train_step_takes_few_page_faults():
    """A warmed default step reuses freed heap memory; unmapping it on free costs ~1,700 faults."""
    import resource  # POSIX only, like mallopt

    names = ["World", "Sports", "Business", "Sci/Tech"]
    rows, _ = synthetic.generate_rows(
        256, seed=0, n_classes=4, label_names=names, doc_keywords=12, doc_noise=8,
        keywords_per_class=10, overlap=3, confusion=0.25,
    )  # criterion 9's AGNews-format settings: about 27 tokens per row with [CLS] and [SEP]
    docs = [Document(f"{title} {desc}", cls) for cls, title, desc in rows]
    config = TrainConfig(label_names=names)
    labels = LabelSet(names)
    vocab = build_vocab(docs, config.min_freq, config.vocab_max_size, labels)
    enc_cfg = EncoderConfig(vocab_size=len(vocab), d=config.d, n_layers=config.n_layers,
                            n_heads=config.n_heads, dropout=config.dropout)
    model = IdeaModel.build(enc_cfg, labels, vocab, ablation=AblationConfig(config.ablation),
                            dtype=np.float32, rng=np.random.default_rng(0))
    opt = AdamW(model.params, lr=config.learning_rate)
    batches = make_batches(docs, vocab, config.batch_size, shuffle=True, seed=1,
                           max_len=config.max_len)
    batches.sort(key=lambda b: b.token_ids.shape[1], reverse=True)  # no step outgrows the warm-up
    dropout_rng = np.random.default_rng(2)

    def faults_of(steps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for batch in steps:
            model.zero_grads()
            loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=dropout_rng)
            backward(loss)
            clip_grads(model.params, config.grad_clip)
            opt.step()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults_of(batches[:3])  # warm-up: the heap grows to a step's working set
    assert faults_of(batches[3:8]) / 5 < 100


# ---------------------------------------------------------------------------
# export


def test_export_features_roundtrip(synthetic_corpus, tmp_path):
    out = str(tmp_path / "run")
    train(_fast_config(synthetic_corpus, out_dir=out, max_steps=30), log=lambda m: None)
    from idea.model import IdeaModel

    model = IdeaModel.load(os.path.join(out, "model.ckpt"))
    docs = load_csv(synthetic_corpus["test"], model.n_classes)[:40]
    batches = make_batches(docs, model.vocab, batch_size=16)
    path = tmp_path / "features.tsv"
    export_features(model, batches, path)

    lines = [line.rstrip("\n").split("\t") for line in open(path)]
    assert len(lines) == 40
    z_width = model.ablation.z_width(model.encoder_config.d)
    assert all(len(cells) == 2 + z_width for cells in lines)
    # stored classifier weights reproduce the predicted labels from z
    w = model.params["clf.W"].data.astype(np.float64)
    b = model.params["clf.b"].data.astype(np.float64)
    for cells in lines:
        z = np.array([float(v) for v in cells[2:]])
        again = int(np.argmax(z @ w + b))
        assert again == int(cells[1])
    golds = [int(cells[0]) for cells in lines]
    assert golds == [d.label for d in docs]
