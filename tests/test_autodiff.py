import math

import numpy as np
import pytest

from idea import autodiff as ad
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
    masked = ad.softmax(Tensor([a, b, 123.0]), axis=0, mask=np.array([True, True, False]))
    dense = ad.softmax(Tensor([a, b]), axis=0)
    # two-term closed form
    za = math.exp(a) / (math.exp(a) + math.exp(b))
    np.testing.assert_allclose(masked.data[:2], dense.data, rtol=1e-15)
    np.testing.assert_allclose(masked.data[0], za, rtol=1e-12)
    assert masked.data[2] == 0.0


def test_softmax_all_masked_slice_raises():
    with pytest.raises(DegenerateSliceError):
        ad.softmax(Tensor(np.zeros((2, 3))), axis=1, mask=np.array([[True, True, True], [False, False, False]]))


def test_softmax_rows_are_distributions(rng):
    for _ in range(50):
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        mask = rng.random((4, 7)) > 0.3
        mask[:, 0] = True
        y = ad.softmax(x, axis=1, mask=mask).data
        assert np.all(y >= 0) and np.all(y <= 1)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(y[~mask] == 0.0)


def test_softmax_gradcheck_masked(rng):
    x = leaf(rng, 3, 5)
    mask = np.ones((3, 5), bool)
    mask[0, 4] = mask[2, 1] = False
    tgt = Tensor(rng.normal(size=(3, 5)))

    def fn():
        return ad.reduce(ad.mul(ad.softmax(x, axis=1, mask=mask), tgt))

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


def test_reshape_transpose_slice_gradcheck(rng):
    x = leaf(rng, 2, 6, 4)

    def fn():
        y = ad.transpose(ad.reshape(x, (2, 6, 2, 2)), (0, 2, 1, 3))
        y = ad.slice_axis(y, 2, 1, 5)
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
