import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from idea import autodiff as ad
from idea import encoder
from idea.cli import gradcheck_setup
from idea.autodiff import (
    DegenerateSliceError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    out = ad.matmul(Tensor(np.eye(3)), x)
    np.testing.assert_array_equal(out.data, x.data)


def test_matmul_hand_computed():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_gradcheck(rng):
    a = leaf(rng, 4, 5)
    b = leaf(rng, 5, 3)
    report = grad_check(lambda: ad.reduce(ad.tanh(ad.matmul(a, b))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_matmul_batched_gradcheck(rng):
    a = leaf(rng, 2, 3, 4)
    w = leaf(rng, 4, 4)
    report = grad_check(lambda: ad.reduce(ad.tanh(ad.matmul(a, w))), {"a": a, "w": w}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


# ---------------------------------------------------------------------------
# tanh


def test_tanh_zero():
    assert float(ad.tanh(Tensor(0.0)).data) == 0.0


def test_tanh_odd_symmetry(rng):
    x = rng.normal(size=(10,))
    out = ad.tanh(Tensor(x)).data + ad.tanh(Tensor(-x)).data
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_tanh_gradcheck(rng):
    x = leaf(rng, 2, 3)
    report = grad_check(lambda: ad.reduce(ad.tanh(x)), {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-15)


def test_softmax_large_values_stable():
    out = ad.softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_masked_softmax_matches_dense_on_unmasked():
    a, b = 0.7, -1.2
    bias = ad.mask_bias(np.array([True, True, False]), np.float64)
    masked = ad.softmax(Tensor([a, b, 123.0]), axis=0, bias=bias)
    dense = ad.softmax(Tensor([a, b]), axis=0)
    # two-term closed form
    za = math.exp(a) / (math.exp(a) + math.exp(b))
    np.testing.assert_allclose(masked.data[:2], dense.data, rtol=1e-15)
    np.testing.assert_allclose(masked.data[0], za, rtol=1e-12)
    assert masked.data[2] == 0.0


def test_softmax_all_masked_slice_raises():
    with pytest.raises(DegenerateSliceError):
        ad.mask_bias(np.array([[True, True, True], [False, False, False]]), np.float64)


def _where_masked_softmax(data, mask, axis):
    """The boolean-mask softmax that mask_bias replaced, as the bit-for-bit reference."""
    m = np.broadcast_to(mask, data.shape)
    mx = np.max(np.where(m, data, -np.inf), axis=axis, keepdims=True)
    e = np.where(m, np.exp(np.where(m, data - mx, 0.0)), 0.0)
    return e / e.sum(axis=axis, keepdims=True)


@st.composite
def masked_scores(draw):
    """K x H x Q x S attention scores and a K x S key mask keeping at least one key per row."""
    k, h, q, s = (draw(st.integers(1, n)) for n in (4, 3, 5, 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scores = draw(hnp.arrays(dtype, (k, h, q, s), elements=st.floats(-50, 50, width=32)))
    mask = draw(hnp.arrays(bool, (k, s)))
    mask[np.arange(k), draw(hnp.arrays(np.int64, k, elements=st.integers(0, s - 1)))] = True
    return scores, mask


@settings(max_examples=200)
@given(masked_scores())
def test_softmax_key_bias_matches_where_formula_bitwise(case):
    scores, mask = case
    key_bias = ad.mask_bias(mask, scores.dtype)[:, None, None, :]
    y = ad.softmax(Tensor(scores), axis=-1, bias=key_bias).data
    want = _where_masked_softmax(scores, mask[:, None, None, :], axis=-1)
    assert y.dtype == scores.dtype
    assert y.tobytes() == want.tobytes()
    masked = np.broadcast_to(~mask[:, None, None, :], y.shape)
    assert np.all(y[masked] == 0.0)


def test_softmax_rows_are_distributions(rng):
    for _ in range(50):
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        mask = rng.random((4, 7)) > 0.3
        mask[:, 0] = True
        y = ad.softmax(x, axis=1, bias=ad.mask_bias(mask, x.dtype)).data
        assert np.all(y >= 0) and np.all(y <= 1)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(y[~mask] == 0.0)


def test_softmax_gradcheck_masked(rng):
    x = leaf(rng, 3, 5)
    mask = np.ones((3, 5), bool)
    mask[0, 4] = mask[2, 1] = False
    tgt = Tensor(rng.normal(size=(3, 5)))

    def fn():
        return ad.reduce(ad.mul(ad.softmax(x, axis=1, bias=ad.mask_bias(mask, x.dtype)), tgt))

    report = grad_check(fn, {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


# ---------------------------------------------------------------------------
# mul / abs_diff


def test_hadamard_identities(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    np.testing.assert_array_equal(ad.mul(a, Tensor(np.ones((3, 4)))).data, a.data)
    np.testing.assert_array_equal(ad.mul(a, Tensor(np.zeros((3, 4)))).data, np.zeros((3, 4)))


def test_hadamard_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_hadamard_gradcheck(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 3, 4)
    report = grad_check(lambda: ad.reduce(ad.mul(a, b)), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_abs_diff_same_input_is_zero(rng):
    a = Tensor(rng.normal(size=(4,)))
    np.testing.assert_array_equal(ad.abs_diff(a, a).data, np.zeros(4))


def test_abs_diff_hand_computed():
    out = ad.abs_diff(Tensor([1.0, -2.0]), Tensor([-1.0, 1.0]))
    np.testing.assert_array_equal(out.data, [2.0, 3.0])


def test_abs_diff_gradcheck_off_ties(rng):
    # keep |a - b| well away from 0 so the kink cannot bias the differences
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(a.data + rng.choice([-1.0, 1.0], size=(3, 4)) * (0.5 + rng.random((3, 4))), requires_grad=True)
    report = grad_check(lambda: ad.reduce(ad.abs_diff(a, b)), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_abs_diff_tie_subgradient_zero():
    a = Tensor([1.0], requires_grad=True)
    out = ad.abs_diff(a, Tensor([1.0]))
    backward(ad.reduce(out))
    np.testing.assert_array_equal(a.grad, [0.0])


# ---------------------------------------------------------------------------
# reduce / concat / add / scale / dropout


def test_reduce_mean():
    assert float(ad.reduce(Tensor([2.0, 4.0, 6.0]), kind="mean").data) == 4.0


def test_reduce_invalid_axis():
    with pytest.raises(ShapeError):
        ad.reduce(Tensor(np.zeros((2, 2))), axis=5)


def test_reduce_gradcheck(rng):
    x = leaf(rng, 3, 4)
    report = grad_check(lambda: ad.reduce(ad.tanh(ad.reduce(x, axis=1, kind="mean"))), {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


@pytest.mark.parametrize("kind", ["sum", "mean"])
def test_reduce_zero_d_input_gradient(kind):
    x = Tensor(np.array(3.0), requires_grad=True)
    backward(ad.reduce(x, kind=kind))
    assert x.grad.shape == ()
    assert float(x.grad) == 1.0


def test_concat_shapes(rng):
    a = Tensor(rng.normal(size=(5, 3)))
    b = Tensor(rng.normal(size=(5, 3)))
    out = ad.concat([a, b], axis=1)
    assert out.shape == (5, 6)
    np.testing.assert_array_equal(out.data[:, :3], a.data)


def test_concat_empty_list():
    with pytest.raises(ValueError):
        ad.concat([], axis=0)


def test_concat_gradcheck(rng):
    a = leaf(rng, 2, 3)
    b = leaf(rng, 2, 2)
    report = grad_check(lambda: ad.reduce(ad.tanh(ad.concat([a, b], axis=1))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_add_broadcast_gradcheck(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    report = grad_check(lambda: ad.reduce(ad.tanh(ad.add(a, b))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_scale(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    out = ad.scale(x, -2.5)
    np.testing.assert_allclose(out.data, -2.5 * x.data)
    backward(ad.reduce(out))
    np.testing.assert_allclose(x.grad, -2.5)


def test_dropout_eval_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    out = ad.dropout(x, 0.1, training=False)
    assert out is x  # bit-identical by construction


def test_dropout_training_scales_survivors(rng):
    x = Tensor(np.ones((200, 200)))
    out = ad.dropout(x, 0.25, training=True, rng=np.random.default_rng(7))
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.75, 12)}
    # determinism per seed
    out2 = ad.dropout(x, 0.25, training=True, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(out.data, out2.data)


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        ad.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# cross entropy / frobenius


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    out = ad.cross_entropy(logits, [0, 3])
    np.testing.assert_allclose(float(out.data), math.log(4), rtol=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.full((1, 3), -50.0)
    logits[0, 1] = 50.0
    out = ad.cross_entropy(Tensor(logits), [1])
    assert float(out.data) < 1e-12


def test_cross_entropy_gradcheck(rng):
    logits = leaf(rng, 3, 4)
    gold = np.array([0, 2, 3])
    report = grad_check(lambda: ad.cross_entropy(logits, gold), {"logits": logits}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_frobenius_hand_computed():
    out = ad.frobenius_sq([Tensor([[1.0, 2.0], [3.0, 4.0]])])
    assert float(out.data) == 30.0


def test_frobenius_zero_params():
    assert float(ad.frobenius_sq([Tensor(np.zeros((3, 3)))]).data) == 0.0


def test_frobenius_gradient_is_2w(rng):
    w1 = leaf(rng, 2, 3)
    w2 = leaf(rng, 4)
    out = ad.frobenius_sq([w1, w2])
    backward(out)
    np.testing.assert_allclose(w1.grad, 2 * w1.data, rtol=1e-12)
    np.testing.assert_allclose(w2.grad, 2 * w2.data, rtol=1e-12)


def test_frobenius_empty_list():
    with pytest.raises(ValueError):
        ad.frobenius_sq([])


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones(rng):
    x = leaf(rng, 3, 3)
    backward(ad.reduce(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 3)))


def test_backward_accumulates_reused_tensor(rng):
    x = leaf(rng, 4)
    backward(ad.reduce(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(4))


def test_backward_non_scalar_raises(rng):
    with pytest.raises(ValueError):
        backward(leaf(rng, 2, 2))


def test_backward_leaves_non_required_grads_zero(rng):
    x = leaf(rng, 3)
    c = Tensor(rng.normal(size=(3,)))  # requires_grad=False
    backward(ad.reduce(ad.mul(x, c)))
    np.testing.assert_array_equal(c.grad, np.zeros(3))


def test_tensor_data_and_grad_buffers_match_shape(rng):
    t = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    assert int(np.prod(t.shape)) == t.data.size == t.grad.size
    assert t.grad.shape == t.data.shape
    np.testing.assert_array_equal(t.grad, 0.0)
    scalar = Tensor(1.5)
    assert scalar.data.size == scalar.grad.size == 1


def test_backward_detects_cycle(rng):
    x = leaf(rng, 2)
    y = ad.scale(x, 2.0)
    x.lineage = ad.Lineage("hack", (y,), lambda g: (g,))  # wire a cycle on purpose
    with pytest.raises(ad.CyclicLineageError):
        backward(ad.reduce(y))


def test_forward_deterministic(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    a = ad.softmax(ad.matmul(x, w), axis=1).data
    b = ad.softmax(ad.matmul(x, w), axis=1).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# supporting encoder ops


def test_reshape_slice_gradcheck(rng):
    x = leaf(rng, 2, 6, 4)

    def fn():
        y = ad.slice_axis(ad.reshape(x, (2, 6, 2, 2)), 1, 1, 5)
        return ad.reduce(ad.tanh(y))

    report = grad_check(fn, {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_embedding_lookup_and_scatter(rng):
    table = leaf(rng, 6, 3)
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    out = ad.embedding(table, ids)
    assert out.shape == (2, 3, 3)
    np.testing.assert_array_equal(out.data[0, 1], table.data[2])
    backward(ad.reduce(out))
    assert table.grad[2].sum() == pytest.approx(6.0)  # looked up twice, 3 coords
    assert table.grad[3].sum() == 0.0  # never looked up


def test_embedding_id_out_of_range(rng):
    with pytest.raises(ShapeError):
        ad.embedding(leaf(rng, 4, 2), np.array([4]))


def test_layernorm_gradcheck(rng):
    x = leaf(rng, 2, 5, 6)
    g = Tensor(1.0 + 0.1 * rng.normal(size=(6,)), requires_grad=True)
    b = leaf(rng, 6)
    tgt = Tensor(rng.normal(size=(2, 5, 6)))

    def fn():
        return ad.reduce(ad.mul(ad.layernorm(x, g, b, eps=1e-12), tgt))

    report = grad_check(fn, {"x": x, "g": g, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_gelu_gradcheck(rng):
    x = leaf(rng, 3, 4)
    report = grad_check(lambda: ad.reduce(ad.gelu(x)), {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_broadcast_to_gradcheck(rng):
    x = leaf(rng, 1, 4)
    report = grad_check(
        lambda: ad.reduce(ad.tanh(ad.broadcast_to(x, (5, 4)))), {"x": x}, step=1e-6
    )
    assert report.max_relative_error < 1e-6


def test_gradcheck_report_invariant(rng):
    a = leaf(rng, 2, 2)
    b = leaf(rng, 2, 2)
    report = grad_check(lambda: ad.reduce(ad.mul(a, b)), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error == max(report.per_parameter_errors.values())
    assert set(report.per_parameter_errors) == {"a", "b"}
    assert report.step_size == 1e-6


# ---------------------------------------------------------------------------
# kernel precision and dtype


def _gelu_oracle(x: float) -> float:
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_scalar_oracle(rng, dtype):
    x = np.concatenate([np.linspace(-10.0, 10.0, 4001), rng.normal(0.0, 3.0, 2000), [0.0, 1e-30]])
    x = x.astype(dtype)
    got = ad.gelu(Tensor(x)).data
    assert got.dtype == dtype
    want = np.array([_gelu_oracle(float(v)) for v in x])
    # ulps at the input's magnitude: 1 + tanh cancels for negative x, so the
    # output's own ulp is no fair yardstick there
    ulps = np.abs(got - want) / np.spacing(np.abs(x)).astype(np.float64)
    assert ulps.max() <= 4.0


def _op_cases(rng):
    """(op name, function of float32 leaves, leaves) for every op the model uses."""
    def f32(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    mask = np.array([[True, True, False], [True, False, False]])
    gain = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    key_bias = ad.mask_bias(mask, np.float32)[:, None, None, :]
    return [
        ("add", ad.add, (f32(2, 3), f32(3))),
        ("mul", ad.mul, (f32(2, 3), f32(2, 1))),
        ("scale", lambda x: ad.scale(x, 0.5), (f32(2, 3),)),
        ("matmul", ad.matmul, (f32(2, 2, 3), f32(3, 4))),
        ("tanh", ad.tanh, (f32(2, 3),)),
        ("gelu", ad.gelu, (f32(2, 3),)),
        ("abs_diff", ad.abs_diff, (f32(2, 3), f32(2, 3))),
        ("softmax", lambda x: ad.softmax(x, axis=1), (f32(2, 3),)),
        ("softmax_masked", lambda x: ad.softmax(x, axis=1, bias=ad.mask_bias(mask, x.dtype)), (f32(2, 3),)),
        ("reduce_sum", lambda x: ad.reduce(x, axis=1), (f32(2, 3),)),
        ("reduce_mean", lambda x: ad.reduce(x, axis=0, kind="mean"), (f32(2, 3),)),
        ("concat", lambda a, b: ad.concat([a, b], axis=1), (f32(2, 3), f32(2, 2))),
        ("dropout", lambda x: ad.dropout(x, 0.5, True, np.random.default_rng(0)), (f32(4, 3),)),
        ("reshape", lambda x: ad.reshape(x, (3, 2)), (f32(2, 3),)),
        ("self_attention",
         lambda x, *w: ad.self_attention(x, key_bias, *w, 2, 0.5, True, np.random.default_rng(0)),
         (f32(2, 3, 4), f32(4, 4), f32(4), f32(4, 4), f32(4, 4), f32(4), f32(4, 4), f32(4))),
        ("slice", lambda x: ad.slice_axis(x, 1, 1, 3), (f32(2, 3),)),
        ("broadcast", lambda x: ad.broadcast_to(x, (2, 3)), (f32(1, 3),)),
        ("embedding", lambda t: ad.embedding(t, np.array([[0, 2], [1, 1]])), (f32(4, 3),)),
        ("layernorm", ad.layernorm, (f32(2, 3), gain, f32(3))),
        ("cross_entropy", lambda x: ad.cross_entropy(x, np.array([0, 2])), (f32(2, 3),)),
        ("frobenius_sq", lambda a, b: ad.frobenius_sq([a, b]), (f32(2, 3), f32(3))),
    ]


def test_float32_ops_stay_float32(rng):
    # .grad buffers are float32 and `+=` casts into them, so a float64
    # gradient would pass unseen through backward(); ask each closure directly
    for name, op, leaves in _op_cases(rng):
        out = op(*leaves)
        assert out.data.dtype == np.float32, name
        grads = out.lineage.backward_fn(np.ones_like(out.data))
        assert [g.dtype for g in grads] == [np.float32] * len(leaves), name
        backward(ad.reduce(out))
        assert all(leaf.grad.dtype == np.float32 for leaf in leaves), name


def test_every_op_of_the_gradcheck_model_has_a_dtype_case(rng):
    # a new op on the model's tape must join _op_cases, or the float32 test skips it
    model, batch, fn = gradcheck_setup(0)
    ops = set()
    for loss in (fn(), model.loss(batch, 0.01, training=True, rng=np.random.default_rng(0))[0]):
        seen, stack = {id(loss)}, [loss]
        while stack:
            node = stack.pop()
            if node.lineage is not None:
                ops.add(node.lineage.op)
                fresh = [p for p in node.lineage.inputs if id(p) not in seen]
                seen.update(id(p) for p in fresh)
                stack.extend(fresh)
    assert "self_attention" in ops and "dropout" in ops
    assert ops <= {name for name, _, _ in _op_cases(rng)}


# ---------------------------------------------------------------------------
# fused self-attention


@st.composite
def attention_cases(draw):
    """K x S x (heads*dk) input shapes, a K x S key mask keeping at least one key per row, and a seed."""
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    heads, dk = draw(st.sampled_from([1, 2])), draw(st.integers(1, 3))
    mask = draw(hnp.arrays(bool, (k, s)))
    mask[np.arange(k), draw(hnp.arrays(np.int64, k, elements=st.integers(0, s - 1)))] = True
    return k, s, heads, dk, mask, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("training", [False, True])
@settings(max_examples=40)
@given(case=attention_cases())
def test_self_attention_gradcheck(training, case):
    k, s, heads, dk, mask, seed = case
    d = heads * dk
    rng = np.random.default_rng(seed)
    x = leaf(rng, k, s, d)
    weights = {name: leaf(rng, *shape) for name, shape in
               [("Wq", (d, d)), ("bq", (d,)), ("Wk", (d, d)), ("Wv", (d, d)), ("bv", (d,)),
                ("Wo", (d, d)), ("bo", (d,))]}
    tgt = Tensor(rng.normal(size=(k, s, d)))
    key_bias = ad.mask_bias(mask, np.float64)[:, None, None, :]

    def fn():  # a fresh rng per call, so every call drops the same entries
        out = ad.self_attention(x, key_bias, *weights.values(), heads, 0.3, training,
                                np.random.default_rng(seed))
        return ad.reduce(ad.mul(out, tgt))

    report = grad_check(fn, {"x": x, **weights}, step=1e-6)
    assert report.max_relative_error < 1e-6


SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3)


def _broadcastable(draw, shape):
    """A shape numpy broadcasts to shape: some leading axes dropped, some others 1."""
    kept = shape[len(shape) - draw(st.integers(0, len(shape))):]
    return tuple(draw(st.sampled_from([1, n])) for n in kept)


def _either_broadcasts(draw, op):
    shape = draw(SHAPES)
    small = _broadcastable(draw, shape)
    return op, [small, shape] if draw(st.booleans()) else [shape, small]


def _matmul_case(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    lead_a, lead_b = lead, _broadcastable(draw, lead)
    if draw(st.booleans()):
        lead_a, lead_b = lead_b, lead_a
    return ad.matmul, [(*lead_a, n, k), (*lead_b, k, m)]


def _reduce_case(draw):
    shape = draw(SHAPES)
    axis = draw(st.sampled_from([None, *range(-len(shape), len(shape))]))
    kind, keepdims = draw(st.sampled_from(["sum", "mean"])), draw(st.booleans())
    return lambda x: ad.reduce(x, axis, kind, keepdims), [shape]


def _concat_case(draw):
    shape = draw(SHAPES)
    axis = draw(st.integers(0, len(shape) - 1))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    shapes = [(*shape[:axis], n, *shape[axis + 1:]) for n in sizes]
    return lambda *parts: ad.concat(list(parts), axis), shapes


def _slice_case(draw):
    shape = draw(SHAPES)
    axis = draw(st.integers(0, len(shape) - 1))
    start = draw(st.integers(0, shape[axis] - 1))
    stop = draw(st.integers(start + 1, shape[axis]))
    return lambda x: ad.slice_axis(x, axis, start, stop), [shape]


def _broadcast_to_case(draw):
    shape = draw(SHAPES)
    return lambda x: ad.broadcast_to(x, shape), [_broadcastable(draw, shape)]


def _softmax_case(draw):
    shape = draw(SHAPES)
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    keep = np.moveaxis(draw(hnp.arrays(bool, shape)), axis, -1)
    keep[..., draw(st.integers(0, keep.shape[-1] - 1))] = True  # at least one kept per slice
    bias = np.moveaxis(ad.mask_bias(keep, np.float64), -1, axis)
    return lambda x: ad.softmax(x, axis, bias), [shape]


def _layernorm_case(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    dim = draw(st.integers(3, 5))  # at width 2 the normalized values are +-1 whatever x is
    return (lambda x, g, b: ad.layernorm(x, g, b)), [(*lead, dim), (dim,), (dim,)]


OP_CASES = {
    "add": lambda draw: _either_broadcasts(draw, ad.add),
    "mul": lambda draw: _either_broadcasts(draw, ad.mul),
    "matmul": _matmul_case,
    "reduce": _reduce_case,
    "concat": _concat_case,
    "slice_axis": _slice_case,
    "broadcast_to": _broadcast_to_case,
    "softmax": _softmax_case,
    "layernorm": _layernorm_case,
}


@pytest.mark.parametrize("op", OP_CASES)
@settings(max_examples=50)
@given(data=st.data())
def test_op_gradcheck_over_random_shapes(op, data):
    fn, shapes = OP_CASES[op](data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    leaves = {f"x{i}": leaf(rng, *shape) for i, shape in enumerate(shapes)}
    tgt = Tensor(rng.normal(size=fn(*leaves.values()).shape))
    report = grad_check(lambda: ad.reduce(ad.mul(fn(*leaves.values()), tgt)), leaves, step=1e-6)
    assert report.max_relative_error < 1e-6


@pytest.mark.parametrize("rate, rng", [(1.0, np.random.default_rng(0)), (0.1, None)])
def test_self_attention_keeps_dropout_checks(rate, rng):
    x = Tensor(np.ones((1, 2, 2)))
    w, b = Tensor(np.eye(2)), Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="dropout"):
        ad.self_attention(x, np.zeros((1, 1, 1, 2)), w, b, w, w, b, w, b, 1, rate, True, rng)


def _twenty_node_attention(x, key_bias, params, prefix, config, training, rng):
    """The op chain self_attention replaced, in plain numpy: projections, contiguous
    head split, key transpose, scale, bias softmax, dropout, context, merge, output."""
    K, S, d = x.shape
    heads = config.n_heads
    dk = d // heads

    def w(name):
        return params[prefix + "attn." + name].data

    def split(t):
        return np.ascontiguousarray(t.reshape(K, S, heads, dk).transpose(0, 2, 1, 3))

    def dropout(t):
        if not training:
            return t
        keep = (rng.random(t.shape) >= config.dropout).astype(t.dtype)
        return t * keep * (1.0 / (1.0 - config.dropout))

    q = split(np.matmul(x.data, w("Wq")) + w("bq"))
    k = split(np.matmul(x.data, w("Wk")))
    v = split(np.matmul(x.data, w("Wv")) + w("bv"))
    scores = np.matmul(q, np.ascontiguousarray(k.transpose(0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    scores = scores + key_bias
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = dropout(e / e.sum(axis=-1, keepdims=True))
    ctx = np.ascontiguousarray(np.matmul(probs, v).transpose(0, 2, 1, 3)).reshape(K, S, d)
    return Tensor(dropout(np.matmul(ctx, w("Wo")) + w("bo")))


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", [(32, 24, 64, 4), (8, 50, 64, 4), (3, 7, 16, 4),
                                                    (2, 5, 6, 3), (1, 1, 8, 2)])
def test_encode_matches_twenty_node_attention_bitwise(monkeypatch, training, k_batch, seq, d, heads):
    rng = np.random.default_rng(seq)
    config = encoder.EncoderConfig(vocab_size=40, d=d, n_layers=2, n_heads=heads, max_positions=64)
    params = encoder.init_params(encoder.param_specs(config), rng, np.float32)
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.3, size=p.shape)
    ids = rng.integers(0, 40, size=(k_batch, seq))
    mask = rng.random((k_batch, seq)) > 0.3
    mask[:, 0] = True

    def run():
        draws = np.random.default_rng(7)
        out = encoder.encode(ids, mask, config, params, training, draws)
        return out.tokens.data.tobytes() + out.pooled.data.tobytes(), draws.random()

    fused = run()
    monkeypatch.setattr(encoder, "_self_attention", _twenty_node_attention)
    assert fused == run()
