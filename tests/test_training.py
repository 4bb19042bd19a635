import dataclasses
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from idea import synthetic
from idea.autodiff import FREED_MEMORY_KEPT, Tensor
from idea.data import Document, LabelSet, build_vocab, load_csv, make_batches
from idea.model import IdeaModel
from idea.training import (
    AdamW,
    Metrics,
    NonFiniteLossError,
    RunResult,
    StepStats,
    TrainConfig,
    WelchResult,
    _beta_fraction,
    _t_two_sided_p,
    build,
    clip_grads,
    evaluate,
    export_features,
    metrics_from_counts,
    train,
    train_step,
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


PIN_SHAPES = {"scalar": (), "vector": (3,), "matrix": (4, 5)}  # () as attn.b_m and attn.b_t


def test_adamw_steps_match_the_textbook_update_bitwise():
    rng = np.random.default_rng(0)
    params = {name: Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
              for name, shape in PIN_SHAPES.items()}
    opt = AdamW(params, lr=1e-2)
    want = {name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in params.items()}
    for t in range(1, 6):
        for name, p in params.items():
            g = rng.normal(size=p.shape).astype(np.float32)
            p.grad = g.copy()
            w, m, v = want[name]
            m = m * opt.beta1 + (1.0 - opt.beta1) * g
            v = v * opt.beta2 + (1.0 - opt.beta2) * g * g
            w = w - opt.lr * ((m / (1.0 - opt.beta1**t)) / (np.sqrt(v / (1.0 - opt.beta2**t)) + opt.eps))
            want[name] = w, m, v
        opt.step()
        for name, p in params.items():
            got = (p.data, opt.m[name], opt.v[name])
            assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want[name]]
            assert all(a.dtype == np.float32 and a.shape == PIN_SHAPES[name] for a in got)


@pytest.mark.parametrize("max_norm", [1.0, 1e6], ids=["clipped", "kept"])
def test_clip_grads_norm_and_scaling_match_the_textbook_formula_bitwise(max_norm):
    rng = np.random.default_rng(1)
    params = {name: Tensor(np.zeros(shape, np.float32), requires_grad=True) for name, shape in PIN_SHAPES.items()}
    grads = {name: rng.normal(size=shape).astype(np.float32) for name, shape in PIN_SHAPES.items()}
    for name, p in params.items():
        p.grad = grads[name].copy()
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    assert clip_grads(params, max_norm) == norm
    for name, p in params.items():
        want = grads[name] * (max_norm / norm) if norm > max_norm else grads[name]
        assert p.grad.shape == PIN_SHAPES[name] and p.grad.tobytes() == np.asarray(want).tobytes()


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


def test_welch_opposite_orders_give_t_zero_and_p_exactly_one():
    res = welch_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert res.t == 0.0 and res.p == 1.0 and res.df == 4.0


# 2 * scipy.special.stdtr(df, -|t|) (scipy 1.17.1), recorded when scipy was a dependency;
# df = 100 at |t| = 1e6 underflows to 0 and is left out. Below |t| = 1e-3 scipy's own
# error reaches 3e-9 (df = 1, |t| = 1e-8), so the closed forms below cover that range.
STDTR_T = (0.001, 0.05, 0.5, 1.0, 2.0, 3.5, 10.0, 100.0, 1000.0, 1000000.0)
STDTR_P = {
    0.5: [0.9994606476684875, 0.9730659912792584, 0.7573180729294365, 0.6022432216826441, 0.4455148901831313,
          0.3407853199435796, 0.20267735277133117, 0.0641397140430733, 0.02028290908171419, 0.0006414019508283977],
    1.0: [0.9993633804398159, 0.968195497487647, 0.7048327646991335, 0.5000000000000001, 0.2951672353008665,
          0.17717106556580953, 0.06345103486110713, 0.00636598552981651, 0.0006366195601611178, 6.366197723673691e-07],
    1.5: [0.9993185302267198, 0.9659501374369726, 0.68056711066994, 0.45113536727671033, 0.22418833035605112,
          0.10822595498965777, 0.023659355113621557, 0.0007541098899248934, 2.3848945646787014e-05,
          7.541704864026433e-10],
    2.0: [0.9992928933955901, 0.9646667373331214, 0.6666666666666667, 0.4226497308103742, 0.18350341907227397,
          0.07282735005446933, 0.00985245702332569, 9.998500249956258e-05, 9.999985000025e-07, 9.999999999985001e-13],
    3.7: [0.9992536770590863, 0.9627035823192543, 0.6453356333199318, 0.37814139976045247, 0.12181720190523398,
          0.02825098689418837, 0.0008239668418246423, 1.7368172865073293e-07, 3.467342633983537e-11,
          2.75422369872631e-22],
    5.19: [0.9992394208396863, 0.9619899217144049, 0.6375522858352715, 0.3616262205614911, 0.0998528533150898,
           0.016259308276504736, 0.00013813052568571242, 9.97508694719749e-10, 6.4478523968270835e-15,
           1.7354820361931055e-30],
    8.0: [0.9992266021030893, 0.9613482150785013, 0.6305360755569764, 0.34659350708733416, 0.08051623795726262,
          0.008079082260411886, 8.488181527628489e-06, 1.1167803048255973e-13, 1.1199677445913502e-21,
          1.1199999999677434e-45],
    30.0: [0.9992087357664851, 0.9604538086499531, 0.6207230048851272, 0.3253086154260302, 0.054625044962983094,
           0.0014768074376442532, 4.575251408229618e-11, 1.984611796727031e-39, 2.0720034831117328e-69,
           2.0729069296087578e-159],
    100.0: [0.9992041077601035, 0.9602221217419742, 0.6181735658308866, 0.31972415578412333, 0.04821217873113365,
            0.0006964277173562688, 9.90168898459413e-17, 4.862994444539485e-102, 7.919618607947915e-202],
}


@pytest.mark.parametrize("df", sorted(STDTR_P))
def test_t_tail_matches_recorded_scipy_values(df):
    for t, p_ref in zip(STDTR_T, STDTR_P[df]):
        for signed_t in (t, -t):
            p = _t_two_sided_p(signed_t, df)
            assert abs(p - p_ref) <= 1e-12 * p_ref, (signed_t, df, p, p_ref)


def test_t_tail_matches_closed_forms_for_one_and_two_degrees_of_freedom():
    for t in np.logspace(-8, 6, 141):
        t = float(t)
        s = math.sqrt(2.0 + t * t)
        for df, p_ref in ((1.0, 2.0 / math.pi * math.atan(1.0 / t)), (2.0, 2.0 / (s * (s + t)))):
            p = _t_two_sided_p(t, df)
            assert abs(p - p_ref) <= 1e-13 * p_ref, (t, df, p, p_ref)


def test_t_tail_edges():
    assert _t_two_sided_p(0.0, 3.0) == 1.0 and _t_two_sided_p(-0.0, 0.5) == 1.0
    assert _t_two_sided_p(1e-200, 3.0) == 1.0  # t * t underflows
    assert _t_two_sided_p(1e200, 3.0) == 0.0  # t * t overflows


def test_welch_tiny_variances_do_not_underflow_the_degrees_of_freedom():
    # se2 is about 2.5e-320, so se2**2 underflows to 0; the variances themselves are subnormal
    res = welch_t_test([0.0, 1e-160], [0.0, 3e-160])
    ref = welch_t_test([0.0, 1.0], [0.0, 3.0])  # the same samples scaled by 1e160
    assert ref.df == pytest.approx(6.25 / 5.125, rel=1e-12)
    assert res.t == pytest.approx(ref.t, rel=1e-2)
    assert res.df == pytest.approx(ref.df, rel=1e-2)
    assert res.p == pytest.approx(ref.p, rel=1e-2)


def test_welch_constant_samples_with_different_means_give_an_infinite_t():
    # both variances are exactly 0, so t is infinite, not a huge finite ratio of rounding residues
    res = welch_t_test([0.9] * 3, [0.95] * 3)
    assert res.t == -math.inf and res.p == 0.0 and math.isnan(res.df)


def test_beta_fraction_that_does_not_converge_names_its_arguments():
    # the guard against a zero denominator must not turn a NaN into a converged fraction
    with pytest.raises(ArithmeticError, match="did not converge for a=2.5, b=0.5, x=nan"):
        _beta_fraction(2.5, 0.5, float("nan"))


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
    with open(os.path.join(out, "metrics.txt")) as fh:
        report = dict(line.split("=", 1) for line in fh.read().splitlines())
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


def test_macro_means_sum_left_to_right():
    # from Python 3.12 sum() compensates rounding: it gives 0.6 here, a loop 0.6000000000000001
    per_class = [{"tp": tp, "fp": fp, "fn": fp} for tp, fp in [(1, 9), (1, 4), (3, 7)]]
    m = metrics_from_counts(per_class, 30)
    assert ((0.1 + 0.2) + 0.3) != math.fsum([0.1, 0.2, 0.3])
    assert m.macro_precision == m.macro_recall == ((0.1 + 0.2) + 0.3) / 3


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


def test_train_saves_and_tests_the_selected_epoch_when_it_is_not_the_last(synthetic_corpus, tmp_path, monkeypatch):
    """Validation accuracies patched to 1.0 then 0.0 select epoch 1 of 2."""
    calls = []  # (model, batches, metrics) per evaluate call: two validations, then the test

    def patched(model, batches):
        metrics = evaluate(model, batches)
        if len(calls) < 2:
            metrics = dataclasses.replace(metrics, accuracy=1.0 - len(calls))
        calls.append((model, batches, metrics))
        return metrics

    monkeypatch.setattr("idea.training.evaluate", patched)
    out = str(tmp_path / "run")
    res = train(_fast_config(synthetic_corpus, out_dir=out), log=lambda m: None)
    (epoch_1, val_batches, _), (epoch_2, _, _), (tested, test_batches, test_metrics) = calls
    assert res.selected_epoch == 1 and [m.accuracy for m in res.val_metrics] == [1.0, 0.0]
    assert test_batches is not val_batches and res.test_metrics is test_metrics
    loaded = IdeaModel.load(os.path.join(out, "model.ckpt"))
    assert list(loaded.params) == list(epoch_1.params) == list(tested.params)
    for name, p in epoch_1.params.items():
        want = p.data.tobytes()
        assert tested.params[name].data.tobytes() == want and loaded.params[name].data.tobytes() == want, name
    assert any(p.data.tobytes() != epoch_1.params[name].data.tobytes() for name, p in epoch_2.params.items())


def test_train_writes_artifacts(synthetic_corpus, tmp_path):
    out = str(tmp_path / "run")
    res = train(_fast_config(synthetic_corpus, out_dir=out), log=lambda m: None)
    for name in ("metrics.txt", "vocab.txt", "model.ckpt", "timing.txt"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "metrics.txt")) as fh:
        report = fh.read()
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


@pytest.fixture()
def steps(monkeypatch):
    """Records each step's loss and pre-clip norm; nan_loss_at or nan_norm_at makes that step's value NaN."""
    rec = SimpleNamespace(losses=[], norms=[], nan_loss_at=None, nan_norm_at=None)
    real_loss = IdeaModel.loss

    def clip(params, max_norm):
        rec.norms.append(clip_grads(params, max_norm))
        return math.nan if len(rec.norms) == rec.nan_norm_at else rec.norms[-1]

    def loss(self, *args, **kwargs):
        out = real_loss(self, *args, **kwargs)
        if len(rec.losses) + 1 == rec.nan_loss_at:
            out[0].data = np.full_like(out[0].data, np.nan)
        rec.losses.append(float(out[0].data))
        return out

    monkeypatch.setattr("idea.training.clip_grads", clip)
    monkeypatch.setattr(IdeaModel, "loss", loss)
    return rec


@pytest.mark.parametrize("bad_step", [1, 3])
def test_nonfinite_loss_names_previous_grad_norm(synthetic_corpus, steps, bad_step):
    steps.nan_loss_at = bad_step
    with pytest.raises(NonFiniteLossError) as err:
        train(_fast_config(synthetic_corpus), log=lambda m: None)
    assert len(steps.norms) == bad_step - 1
    prev = "n/a (first step)" if bad_step == 1 else f"{steps.norms[-1]} (previous step)"
    assert str(err.value) == f"non-finite loss nan at step {bad_step} (epoch 1, lr 0.001, grad_norm {prev})"


@pytest.mark.parametrize("bad_step, epoch", [(1, 1), (7, 2)])  # five steps an epoch
def test_nonfinite_grad_norm_names_step_epoch_lr_and_loss(synthetic_corpus, steps, bad_step, epoch):
    steps.nan_norm_at = bad_step
    with pytest.raises(NonFiniteLossError) as err:
        train(_fast_config(synthetic_corpus), log=lambda m: None)
    assert len(steps.losses) == bad_step
    assert str(err.value) == (
        f"non-finite gradient norm at step {bad_step} (epoch {epoch}, lr 0.001, loss {steps.losses[-1]})"
    )


def _built(config, docs):
    """build's model and optimizer for config, with a vocabulary taken from docs."""
    labels = LabelSet(config.label_names)
    return build(config, labels, build_vocab(docs, config.min_freq, config.vocab_max_size, labels))


def test_train_step_returns_the_loss_and_the_norm_clip_grads_computed(steps):
    rows, names = synthetic.generate_rows(64, 3, seed=0)
    docs = [Document(f"{title} {desc}", cls) for cls, title, desc in rows]
    config = TrainConfig(label_names=names, d=16, n_layers=1, n_heads=2)
    model, opt = _built(config, docs)
    batch = make_batches(docs, model.vocab, config.batch_size)[0]
    rng = np.random.default_rng(0)
    before = model.copy_param_data()
    assert train_step(model, opt, batch, config, rng) == StepStats(loss=steps.losses[0], grad_norm=steps.norms[0])
    assert opt.t == 1
    assert any(not np.array_equal(before[name], p.data) for name, p in model.params.items())
    # a non-finite step raises (what, detail) for train to place, and moves no parameter
    before = model.copy_param_data()
    steps.nan_norm_at, steps.nan_loss_at = 2, 3
    with pytest.raises(NonFiniteLossError) as err:
        train_step(model, opt, batch, config, rng)
    assert err.value.args == ("non-finite gradient norm", f"loss {steps.losses[1]}")
    with pytest.raises(NonFiniteLossError) as err:
        train_step(model, opt, batch, config, rng)
    assert err.value.args == ("non-finite loss nan", None)
    assert opt.t == 1
    assert all(np.array_equal(before[name], p.data) for name, p in model.params.items())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_l2=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="label name 1 must be a string with at least one token, got 1"):
        TrainConfig(label_names=["a", 1])
    for field in ("train_limit", "test_limit", "max_steps", "max_len"):
        TrainConfig(**{field: 1})
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"TrainConfig.{field} must be >= 1, got {value}"):
                TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [4, 0, -5])
def test_train_config_rejects_a_vocab_cap_with_no_room_for_a_corpus_token(value):
    TrainConfig(vocab_max_size=5)
    with pytest.raises(ValueError, match=f"TrainConfig.vocab_max_size must be > 4 .*, got {value}"):
        TrainConfig(vocab_max_size=value)


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
    model, opt = _built(config, docs)
    batches = make_batches(docs, model.vocab, config.batch_size, shuffle=True, seed=1,
                           max_len=config.max_len)
    batches.sort(key=lambda b: b.token_ids.shape[1], reverse=True)  # no step outgrows the warm-up
    dropout_rng = np.random.default_rng(2)

    def faults_of(steps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for batch in steps:
            train_step(model, opt, batch, config, dropout_rng)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults_of(batches[:3])  # warm-up: the heap grows to a step's working set
    assert faults_of(batches[3:8]) / 5 < 100


def _tape_bytes(loss) -> int:
    """Bytes the tape under loss keeps alive: node outputs and the arrays each backward_fn's
    closure holds, counting every buffer once however many views share it."""
    buffers, seen, stack = {}, set(), [loss]
    while stack:
        node = stack.pop()
        if node.lineage is None or id(node) in seen:
            continue
        seen.add(id(node))
        cells = node.lineage.backward_fn.__closure__ or ()
        for arr in [node.data] + [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        stack.extend(node.lineage.inputs)
    return sum(buffers.values())


def test_train_step_tape_keeps_no_more_bytes_than_recorded():
    """A default float32 training forward over a 32 x 24 batch: the fused ops' backward reads
    only h, t and act (feed-forward); q, k, v, probs, weights, ctx and the keep masks
    (attention); xc, xhat and std (add + layer norm). The figure depends only on shapes."""
    names = ["World", "Sports", "Business", "Sci/Tech"]
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    docs = [Document(" ".join(rng.choice(words, 22)), i % 4) for i in range(32)]
    config = TrainConfig(label_names=names)
    model, _ = _built(config, docs)
    batch, = make_batches(docs, model.vocab, config.batch_size)
    assert batch.token_ids.shape == (32, 24)
    loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=np.random.default_rng(1))
    # the out-of-place kernels' figure; also keeping gelu's 0.5 h and 1 + t reads 17,549,044
    assert _tape_bytes(loss) <= 14_358_260


def _held_arrays(value):
    """The arrays in value, also inside lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _held_arrays(item)]
    return []


def test_train_step_tape_bytes_count_what_closures_hold_per_group():
    """The figure above, counting also the arrays a closure holds in lists and tuples: self_attention
    keeps its intermediates per group of the encoder's pass, one tuple each, as separate passes did."""
    names = ["World", "Sports", "Business", "Sci/Tech"]
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    docs = [Document(" ".join(rng.choice(words, 22)), i % 4) for i in range(32)]
    config = TrainConfig(label_names=names)
    model, _ = _built(config, docs)
    batch, = make_batches(docs, model.vocab, config.batch_size)
    loss, _, _ = model.loss(batch, config.lambda_l2, training=True, rng=np.random.default_rng(1))
    buffers, seen, stack = {}, set(), [loss]
    while stack:
        node = stack.pop()
        if node.lineage is None or id(node) in seen:
            continue
        seen.add(id(node))
        cells = [c.cell_contents for c in node.lineage.backward_fn.__closure__ or ()]
        for arr in _held_arrays([node.data, *cells]):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        stack.extend(node.lineage.inputs)
    assert sum(buffers.values()) <= 14_358_260  # 14,030,880 when the documents and labels share one pass


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

    with open(path) as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
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
