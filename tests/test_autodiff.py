import ast
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import idea
from conftest import total
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
from idea.head import ABLATION_MODES, AblationConfig


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
    report = grad_check(lambda: total(ad.tanh(ad.matmul(a, b))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_matmul_batched_gradcheck(rng):
    a = leaf(rng, 2, 3, 4)
    w = leaf(rng, 4, 4)
    report = grad_check(lambda: total(ad.tanh(ad.matmul(a, w))), {"a": a, "w": w}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, named", [
    (lambda: ad.add(zeros(2, 3), zeros(4)), ["(2, 3)", "(4,)"]),
    (lambda: ad.matmul(zeros(3), zeros(3, 2)), ["(3,)", "(3, 2)"]),
    (lambda: ad.matmul(zeros(2, 3, 4), zeros(3, 4, 5)), ["(2, 3, 4)", "(3, 4, 5)"]),
    (lambda: ad.abs_diff(zeros(2, 3), zeros(3, 2)), ["(2, 3)", "(3, 2)"]),
    (lambda: ad.broadcast_to(zeros(2, 3), (4, 3)), ["(2, 3)", "(4, 3)"]),
    (lambda: ad.cross_entropy(zeros(2, 3), np.zeros(3, dtype=np.int64)), ["(3,)", "(2,)"]),
], ids=["add", "matmul-1d", "matmul-leading-axes", "abs_diff", "broadcast_to", "cross_entropy-gold"])
def test_shape_guard_names_both_shapes(call, named):
    with pytest.raises(ShapeError) as err:
        call()
    assert all(text in str(err.value) for text in named), str(err.value)


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
    report = grad_check(lambda: total(ad.tanh(x)), {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-15)


def test_softmax_large_values_stable():
    out = ad.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_masked_softmax_matches_dense_on_unmasked():
    a, b = 0.7, -1.2
    bias = ad.mask_bias(np.array([True, True, False]), np.float64)
    masked = ad.softmax(Tensor([a, b, 123.0]), bias)
    dense = ad.softmax(Tensor([a, b]))
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
    y = ad.softmax(Tensor(scores), key_bias).data
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
        y = ad.softmax(x, ad.mask_bias(mask, x.dtype)).data
        assert np.all(y >= 0) and np.all(y <= 1)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(y[~mask] == 0.0)


def test_softmax_gradcheck_masked(rng):
    x = leaf(rng, 3, 5)
    mask = np.ones((3, 5), bool)
    mask[0, 4] = mask[2, 1] = False
    tgt = Tensor(rng.normal(size=(3, 5)))

    def fn():
        return total(ad.softmax(x, ad.mask_bias(mask, x.dtype)), tgt)

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
    report = grad_check(lambda: total(ad.mul(a, b)), {"a": a, "b": b}, step=1e-6)
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
    report = grad_check(lambda: total(ad.abs_diff(a, b)), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_abs_diff_tie_subgradient_zero():
    a = Tensor([1.0], requires_grad=True)
    out = ad.abs_diff(a, Tensor([1.0]))
    backward(total(out))
    np.testing.assert_array_equal(a.grad, [0.0])


# ---------------------------------------------------------------------------
# reduce / concat / add / scale / dropout


def test_reduce_mean():
    assert ad.mean(Tensor([[2.0, 4.0, 6.0]])).data.tolist() == [[4.0]]
    x = np.arange(12.0).reshape(2, 3, 2)  # a label span of K x L x d token vectors
    np.testing.assert_array_equal(ad.mean(Tensor(x)).data, x.sum(axis=1, keepdims=True) / 3)


def test_reduce_gradcheck(rng):
    x = leaf(rng, 3, 4)
    report = grad_check(lambda: total(ad.tanh(ad.mean(x))), {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_concat_shapes(rng):
    a = Tensor(rng.normal(size=(5, 3)))
    b = Tensor(rng.normal(size=(5, 3)))
    out = ad.concat([a, b])
    assert out.shape == (5, 6)
    np.testing.assert_array_equal(out.data[:, :3], a.data)


def test_concat_empty_list():
    with pytest.raises(ValueError):
        ad.concat([])


def test_concat_gradcheck(rng):
    a = leaf(rng, 2, 3)
    b = leaf(rng, 2, 2)
    report = grad_check(lambda: total(ad.tanh(ad.concat([a, b]))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_add_broadcast_gradcheck(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    report = grad_check(lambda: total(ad.tanh(ad.add(a, b))), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_scale(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    out = ad.scale(x, -2.5)
    np.testing.assert_allclose(out.data, -2.5 * x.data)
    backward(total(out))
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


def test_frobenius_sums_its_parameters_left_to_right():
    # each 2^-54 alone is under half an ulp of 1; a compensated sum, as Python 3.12's sum(), adds up to one ulp
    tiny = [2.0**-54] * 3
    out = ad.frobenius_sq([Tensor([1.0])] + [Tensor([2.0**-27]) for _ in tiny])
    assert float(out.data) == ((1.0 + tiny[0]) + tiny[1]) + tiny[2] != math.fsum([1.0] + tiny)


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
    backward(total(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 3)))


def test_backward_accumulates_reused_tensor(rng):
    x = leaf(rng, 4)
    backward(total(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(4))


@pytest.mark.parametrize("add_first", [True, False])
def test_first_gradient_is_never_shared(rng, add_first):
    # add hands one array to both summands; a also feeds a second op, whose gradient joins a's
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    w, c = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    parts = [ad.mul(ad.add(a, b), w), ad.mul(a, c)]
    backward(total(ad.add(*(parts if add_first else parts[::-1]))))
    np.testing.assert_array_equal(b.grad, w.data)
    np.testing.assert_array_equal(a.grad, w.data + c.data)
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_non_scalar_raises(rng):
    with pytest.raises(ValueError):
        backward(leaf(rng, 2, 2))


def test_backward_leaves_non_required_grads_zero(rng):
    x = leaf(rng, 3)
    c = Tensor(rng.normal(size=(3,)))  # requires_grad=False
    backward(total(ad.mul(x, c)))
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
        backward(total(y))


def test_forward_deterministic(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    a = ad.softmax(ad.matmul(x, w)).data
    b = ad.softmax(ad.matmul(x, w)).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# supporting encoder ops


def test_reshape_slice_gradcheck(rng):
    x = leaf(rng, 2, 6, 4)

    def fn():
        y = ad.slice_axis(ad.reshape(x, (2, 6, 2, 2)), 1, 1, 5)
        return total(ad.tanh(y))

    report = grad_check(fn, {"x": x}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_embedding_lookup_and_scatter(rng):
    # embed is add_layernorm of the looked-up token rows and the position rows, whose
    # gradient scatters back: into the rows looked up, and summed over sequences by position
    table, pos, gain, bias = leaf(rng, 6, 3), leaf(rng, 4, 3), leaf(rng, 3), leaf(rng, 3)
    ids = np.array([0, 2, 2, 5, 0, 1])  # two sequences of three
    groups = ad.row_groups([(2, 3)])
    tgt = Tensor(rng.normal(size=(6, 3)))
    out = ad.embed(table, pos, gain, bias, ids, groups)
    assert out.shape == (6, 3)
    a, b = Tensor(table.data[ids], requires_grad=True), Tensor(np.tile(pos.data[:3], (2, 1)), requires_grad=True)
    want = ad.add_layernorm(a, b, gain, bias, groups)
    assert out.data.tobytes() == want.data.tobytes()
    backward(total(out, tgt))
    backward(total(want, tgt))
    np.testing.assert_allclose(table.grad[2], a.grad[1] + a.grad[2], rtol=1e-12)  # looked up twice
    assert not table.grad[3].any() and not table.grad[4].any()  # never looked up
    np.testing.assert_array_equal(pos.grad[:3], b.grad.reshape(2, 3, 3).sum(axis=0))
    assert not pos.grad[3].any()  # beyond the sequence


def test_embedding_id_out_of_range(rng):
    with pytest.raises(ShapeError):
        ad.embed(leaf(rng, 4, 2), leaf(rng, 2, 2), leaf(rng, 2), leaf(rng, 2), np.array([4]), ad.row_groups([(1, 1)]))


@pytest.mark.parametrize("shapes", [[(2, 5)], [(2, 3), (1, 4)]], ids=["same", "two-groups"])
def test_add_layernorm_gradcheck(rng, shapes):
    groups = ad.row_groups(shapes)
    a, b = leaf(rng, groups[-1][3], 6), leaf(rng, groups[-1][3], 6)
    g = Tensor(1.0 + 0.1 * rng.normal(size=(6,)), requires_grad=True)
    beta = leaf(rng, 6)
    tgt = Tensor(rng.normal(size=a.shape))

    def fn():
        return total(ad.add_layernorm(a, b, g, beta, groups), tgt)

    report = grad_check(fn, {"a": a, "b": b, "g": g, "beta": beta}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_add_layernorm_shape_mismatch():
    d3 = Tensor(np.ones(3))
    for b_shape in [(4,), (3,)]:  # (3,) would broadcast: add_layernorm adds operands of one shape only
        with pytest.raises(ShapeError) as err:
            ad.add_layernorm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(b_shape)), d3, d3, ad.row_groups([(1, 2)]))
        assert "(2, 3)" in str(err.value) and str(b_shape) in str(err.value)


@pytest.mark.parametrize("shape", [(3, 5), (2, 9, 64)], ids=["same-2d", "same-3d"])
def test_add_layernorm_matches_layernorm_of_add_bitwise(rng, shape):
    a, b, gain, bias = (rng.normal(0.0, 2.0, size=s).astype(np.float32)
                        for s in (shape, shape, shape[-1:], shape[-1:]))
    # the two ops add_layernorm replaced: add, then layernorm with .mean()
    v = a + b
    xc = v - v.mean(axis=-1, keepdims=True)
    want = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12) * gain + bias
    n = math.prod(shape[:-1])  # add_layernorm takes the operands' rows
    got = ad.add_layernorm(Tensor(a.reshape(n, -1)), Tensor(b.reshape(n, -1)), Tensor(gain), Tensor(bias),
                           ad.row_groups([(1, n)])).data
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_feed_forward_gradcheck(rng):
    x, w1, b1, w2, b2 = leaf(rng, 6, 4), leaf(rng, 4, 5), leaf(rng, 5), leaf(rng, 5, 4), leaf(rng, 4)
    tgt = Tensor(rng.normal(size=(6, 4)))

    keep = ad.dropout_mask((6, 4), np.float64, 0.3, True, np.random.default_rng(0))

    def fn():  # one mask, so every call drops the same entries
        return total(ad.feed_forward(x, w1, b1, w2, b2, keep, ad.row_groups([(2, 3)])), tgt)

    report = grad_check(fn, {"x": x, "W1": w1, "b1": b1, "W2": w2, "b2": b2}, step=1e-6)
    assert report.max_relative_error < 1e-6


def test_broadcast_to_gradcheck(rng):
    x = leaf(rng, 1, 4)
    report = grad_check(
        lambda: total(ad.tanh(ad.broadcast_to(x, (5, 4)))), {"x": x}, step=1e-6
    )
    assert report.max_relative_error < 1e-6


def test_gradcheck_report_invariant(rng):
    a = leaf(rng, 2, 2)
    b = leaf(rng, 2, 2)
    report = grad_check(lambda: total(ad.mul(a, b)), {"a": a, "b": b}, step=1e-6)
    assert report.max_relative_error == max(report.per_parameter_errors.values())
    assert set(report.per_parameter_errors) == {"a", "b"}
    assert report.step_size == 1e-6


def test_grad_check_finite_differences_record_no_tape(rng):
    a, b = leaf(rng, 2, 3), leaf(rng, 3)
    taped = []

    def fn():
        out = total(ad.tanh(ad.add(a, b)))
        taped.append(out.lineage is not None)
        return out

    grad_check(fn, {"a": a, "b": b}, step=1e-6)
    # the analytic pass records its tape; none of the 2 * 9 finite-difference forwards do
    assert taped == [True] + [False] * 18


@pytest.mark.parametrize("fail_at", [None, 5])
def test_grad_check_restores_requires_grad(rng, fail_at):
    a, b, c = leaf(rng, 2, 3), Tensor(rng.normal(size=(2, 3))), leaf(rng, 3)  # b passed in already off
    calls = []

    def fn():
        calls.append(None)
        if len(calls) == fail_at:  # a finite-difference forward, partway through a
            raise RuntimeError("fn failed")
        return total(ad.mul(ad.add(a, c), b))

    if fail_at is None:
        grad_check(fn, {"a": a, "b": b, "c": c}, step=1e-6)
    else:
        with pytest.raises(RuntimeError, match="fn failed"):
            grad_check(fn, {"a": a, "b": b, "c": c}, step=1e-6)
    assert (a.requires_grad, b.requires_grad, c.requires_grad) == (True, False, True)


def test_grad_check_error_is_0_only_for_two_zero_gradients_and_inf_when_not_finite():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([3.0]), requires_grad=True)  # both of its gradients are exactly 0
    weight = Tensor(np.array([1.0, 1.0]))

    def fn():
        return total(ad.mul(x, weight))

    report = grad_check(fn, {"x": x, "unused": unused})
    assert report.per_parameter_errors["unused"] == 0.0 and report.max_relative_error < 1e-8
    weight.data[0] = math.nan  # every gradient is now NaN or compared with one
    for params in ({"x": x, "unused": unused}, {"unused": unused, "x": x}):  # max() over a NaN is order-dependent
        report = grad_check(fn, params)
        assert report.per_parameter_errors == {"x": math.inf, "unused": math.inf}
        assert report.max_relative_error == math.inf
        assert "x: rel_err=inf" in report.format()


def test_grad_check_report_of_the_gradcheck_model_is_unchanged():
    # recorded with the taped finite-difference forwards and the add -> layernorm pair
    # (numpy 2.4.6, OpenBLAS 0.3.31, x86_64); a cheap subset of criterion 1's parameters
    model, _, fn = gradcheck_setup(0)
    subset = {name: p for name, p in model.params.items() if name.startswith(("clf.", "layer1.ln2."))}
    assert grad_check(fn, subset, step=1e-5).format() == "\n".join([
        "step_size=1e-05",
        "layer1.ln2.g: rel_err=5.548e-10",
        "layer1.ln2.b: rel_err=3.401e-10",
        "clf.W: rel_err=5.834e-11",
        "clf.b: rel_err=1.790e-11",
        "max_relative_error=5.548e-10",
    ])


# ---------------------------------------------------------------------------
# kernel precision and dtype


def _gelu_oracle(x: float) -> float:
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_scalar_oracle(rng, dtype):
    x = np.concatenate([np.linspace(-10.0, 10.0, 4001), rng.normal(0.0, 3.0, 2000), [0.0, 1e-30]])
    x = x.astype(dtype)
    # x @ I and adding 0 are exact, so feed_forward returns GELU's own values
    one, zero = Tensor(np.ones((1, 1), dtype)), Tensor(np.zeros(1, dtype))
    got = ad.feed_forward(Tensor(x[:, None]), one, zero, one, zero, None, ad.row_groups([(1, len(x))])).data[:, 0]
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

    def keep(*shape):
        return ad.dropout_mask(shape, np.float32, 0.5, True, rng)
    return [
        ("add", ad.add, (f32(2, 3), f32(3))),
        ("mul", ad.mul, (f32(2, 3), f32(2, 1))),
        ("scale", lambda x: ad.scale(x, 0.5), (f32(2, 3),)),
        ("matmul", ad.matmul, (f32(2, 2, 3), f32(3, 4))),
        ("tanh", ad.tanh, (f32(2, 3),)),
        ("feed_forward",
         lambda x, *w: ad.feed_forward(x, *w, keep(6, 4), ad.row_groups([(2, 3)])),
         (f32(6, 4), f32(4, 5), f32(5), f32(5, 4), f32(4))),
        ("abs_diff", ad.abs_diff, (f32(2, 3), f32(2, 3))),
        ("softmax", ad.softmax, (f32(2, 3),)),
        ("softmax_masked", lambda x: ad.softmax(x, ad.mask_bias(mask, x.dtype)), (f32(2, 3),)),
        ("reduce_mean", ad.mean, (f32(2, 3),)),
        ("concat", lambda a, b: ad.concat([a, b]), (f32(2, 3), f32(2, 2))),
        ("dropout", lambda x: ad.dropout(x, 0.5, True, np.random.default_rng(0)), (f32(4, 3),)),
        ("reshape", lambda x: ad.reshape(x, (3, 2)), (f32(2, 3),)),
        ("self_attention",
         lambda x, *w: ad.self_attention(x, [key_bias], *w, 2, keep(2, 2, 3, 3), keep(6, 4), ad.row_groups([(2, 3)])),
         (f32(6, 4), f32(4, 4), f32(4), f32(4, 4), f32(4, 4), f32(4), f32(4, 4), f32(4))),
        ("slice", lambda x: ad.slice_axis(x, 1, 1, 3), (f32(2, 3),)),
        ("broadcast", lambda x: ad.broadcast_to(x, (2, 3)), (f32(1, 3),)),
        ("embed", lambda t, *w: ad.embed(t, *w, np.array([0, 2, 1, 1, 3, 0, 2]), ad.row_groups([(2, 2), (1, 3)])),
         (f32(4, 3), f32(4, 3), gain, f32(3))),
        ("take_rows", lambda x: ad.take_rows(x, 2, (2, 2, 3), keep(2, 2, 1)), (f32(7, 3),)),
        ("add_layernorm", lambda a, b, g, beta: ad.add_layernorm(a, b, g, beta, ad.row_groups([(1, 2)])),
         (f32(2, 3), f32(2, 3), gain, f32(3))),
        ("double_attention",
         lambda *leaves: ad.double_attention(*leaves, mask, ("c", "p_weighted", "d_weighted", "s"), keep(2, 8))[0],
         (f32(2, 4, 2), f32(2, 2), f32(1, 2), f32(1, 3, 2), f32(2, 2), f32(), f32(2, 2), f32(), f32(8, 3), f32(3))),
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
        backward(total(out))
        assert all(leaf.grad.dtype == np.float32 for leaf in leaves), name


def _tape_op_counts(loss) -> Counter:
    """The op nodes on loss's tape, by op name."""
    ops: Counter = Counter()
    seen, stack = {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        if node.lineage is not None:
            ops[node.lineage.op] += 1
            fresh = [p for p in node.lineage.inputs if id(p) not in seen]
            seen.update(id(p) for p in fresh)
            stack.extend(fresh)
    return ops


def test_every_op_of_the_gradcheck_model_has_a_dtype_case(rng):
    # a new op on the model's tape must join _op_cases, or the float32 test skips it
    model, batch, fn = gradcheck_setup(0)
    ops = set(_tape_op_counts(fn())) | set(_tape_op_counts(model.loss(
        batch, 0.01, training=True, rng=np.random.default_rng(0))[0]))
    assert {"self_attention", "feed_forward", "dropout"} <= ops
    assert ops <= {name for name, _, _ in _op_cases(rng)}


def test_gradcheck_model_tape_node_count():
    # each forward of criterion 1's 4,603 runs this tape, so a new node shows here
    ops = _tape_op_counts(gradcheck_setup(0)[2]())
    assert sum(ops.values()) == 33
    assert ops["add_layernorm"] == 4 and ops["layernorm"] == 0 and ops["add"] == 3
    # the head, from both attentions to the logits, is one node
    assert ops["double_attention"] == 1
    # the documents and the label sequence share one pass: one embedding node, then a take of each's rows
    assert ops["embed"] == 1 and ops["take_rows"] == 2


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
    x = leaf(rng, k * s, d)
    weights = {name: leaf(rng, *shape) for name, shape in
               [("Wq", (d, d)), ("bq", (d,)), ("Wk", (d, d)), ("Wv", (d, d)), ("bv", (d,)),
                ("Wo", (d, d)), ("bo", (d,))]}
    tgt = Tensor(rng.normal(size=(k * s, d)))
    key_bias = ad.mask_bias(mask, np.float64)[:, None, None, :]
    draws = np.random.default_rng(seed)
    keep_p, keep_o = (ad.dropout_mask(shape, np.float64, 0.3, training, draws)
                      for shape in [(k * heads * s * s,), (k * s, d)])

    def fn():  # the same masks, so every call drops the same entries
        out = ad.self_attention(x, [key_bias], *weights.values(), heads, keep_p, keep_o, ad.row_groups([(k, s)]))
        return total(out, tgt)

    # at step 1e-6, roundoff (about 2e-16 |f| / step) swamps a gradient near 1e-4: with d = 1 and
    # seed 0, Wq's reads 1.6e-6 there, 1.1e-7 at 1e-5 and 1.3e-8 at 1e-4
    report = grad_check(fn, {"x": x, **weights}, step=1e-5)
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


SHAPES_WITH_AXIS_1 = hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=3)  # the ops over axis 1


def _row_groups(draw):
    """The Groups of one or two blocks of K x S rows."""
    return ad.row_groups(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2)))


def _concat_case(draw):
    shape = draw(SHAPES_WITH_AXIS_1)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return lambda *parts: ad.concat(list(parts)), [(shape[0], n, *shape[2:]) for n in sizes]


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
    keep = draw(hnp.arrays(bool, shape))
    keep[..., draw(st.integers(0, shape[-1] - 1))] = True  # at least one kept per row
    bias = ad.mask_bias(keep, np.float64)
    return lambda x: ad.softmax(x, bias), [shape]


def _add_layernorm_case(draw):
    groups = _row_groups(draw)
    dim = draw(st.integers(3, 5))  # at width 2 the normalized values are +-1 whatever x is
    rows = (groups[-1][3], dim)
    return (lambda a, b, g, beta: ad.add_layernorm(a, b, g, beta, groups)), [rows, rows, (dim,), (dim,)]


def _scale_case(draw):
    alpha = draw(st.floats(-3.0, 3.0))
    return (lambda x: ad.scale(x, alpha)), [draw(SHAPES)]


def _reshape_case(draw):
    shape = draw(SHAPES)
    target = draw(st.sampled_from([(math.prod(shape),), shape[::-1], (*shape, 1), (1, *shape)]))
    return (lambda x: ad.reshape(x, target)), [shape]


def _abs_diff_case(draw):
    # tanh keeps both operands in (-1, 1), so the +-3 offset holds every |a - b| above 1, off the kink
    shape = draw(SHAPES)
    offset = Tensor(np.where(draw(hnp.arrays(bool, shape)), 3.0, -3.0))
    return (lambda a, b: ad.abs_diff(ad.add(ad.tanh(a), offset), ad.tanh(b))), [shape, shape]


def _dropout_case(draw):
    rate, seed = draw(st.floats(0.0, 0.9)), draw(st.integers(0, 2**32 - 1))
    # a fresh rng per call, so every call drops the same entries
    return (lambda x: ad.dropout(x, rate, True, np.random.default_rng(seed))), [draw(SHAPES)]


def _feed_forward_case(training):
    def case(draw):
        groups = _row_groups(draw)
        n = groups[-1][3]
        d, f, d_out = (draw(st.integers(1, 4)) for _ in range(3))
        rate, seed = draw(st.floats(0.05, 0.9)), draw(st.integers(0, 2**32 - 1))
        # one mask, so every call drops the same entries
        keep = ad.dropout_mask((n, d_out), np.float64, rate, training, np.random.default_rng(seed))
        return ((lambda x, *w: ad.feed_forward(x, *w, keep, groups)), [(n, d), (d, f), (f,), (f, d_out), (d_out,)])
    return case


def _embedding_case(draw):
    rows, width = draw(st.integers(1, 4)), draw(st.integers(3, 5))  # width >= 3, as in _add_layernorm_case
    # more ids than rows in each group, so some row is looked up twice
    shapes = draw(st.sampled_from([[(1, rows + 1)], [(2, rows + 2)], [(2, rows + 1), (1, rows + 2)]]))
    groups = ad.row_groups(shapes)
    ids = draw(hnp.arrays(np.int64, groups[-1][3], elements=st.integers(0, rows - 1)))
    return ((lambda table, pos, g, b: ad.embed(table, pos, g, b, ids, groups)),
            [(rows, width), (rows + 2, width), (width,), (width,)])


def _double_attention_case(draw):
    k, n, n_labels, n_classes = (draw(st.integers(1, 3)) for _ in range(4))
    d = draw(st.integers(2, 3))
    blocks = AblationConfig(draw(st.sampled_from(ABLATION_MODES))).blocks
    query_mask = draw(hnp.arrays(bool, (k, n)))
    query_mask[np.arange(k), draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))] = True
    rate, seed = draw(st.floats(0.05, 0.9)), draw(st.integers(0, 2**32 - 1))
    # one mask, so every call drops the same entries
    keep = ad.dropout_mask((k, len(blocks) * d), np.float64, rate, draw(st.booleans()), np.random.default_rng(seed))

    def fn(tokens, pooled, label_pooled, label_vectors, W_m, b_m, W_t, b_t, clf_W, clf_b):
        # with the bilinear forms over d, each score's tanh input has unit variance: a saturated
        # tanh has no analytic gradient, while finite differences still see its roundoff
        W_m, W_t = ad.scale(W_m, 1.0 / d), ad.scale(W_t, 1.0 / d)
        return ad.double_attention(tokens, pooled, label_pooled, label_vectors, W_m, b_m, W_t, b_t, clf_W, clf_b,
                                   query_mask, blocks, keep)[0]

    return fn, [(k, n + 1, d), (k, d), (1, d), (1, n_labels, d), (d, d), (), (d, d), (), (len(blocks) * d, n_classes),
                (n_classes,)]


def _cross_entropy_case(draw):
    k, n_classes = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    gold = draw(st.lists(st.integers(0, n_classes - 1), min_size=k, max_size=k))
    return (lambda logits: ad.cross_entropy(logits, gold)), [(k, n_classes)]


def _frobenius_sq_case(draw):
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=3))
    return (lambda *params: ad.frobenius_sq(list(params))), shapes


OP_CASES = {
    "add": lambda draw: _either_broadcasts(draw, ad.add),
    "mul": lambda draw: _either_broadcasts(draw, ad.mul),
    "scale": _scale_case,
    "matmul": _matmul_case,
    "tanh": lambda draw: (ad.tanh, [draw(SHAPES)]),
    "feed_forward": _feed_forward_case(training=False),
    "feed_forward_dropout": _feed_forward_case(training=True),
    "abs_diff": _abs_diff_case,
    "reduce": lambda draw: (ad.mean, [draw(SHAPES_WITH_AXIS_1)]),
    "concat": _concat_case,
    "dropout": _dropout_case,
    "reshape": _reshape_case,
    "slice_axis": _slice_case,
    "broadcast_to": _broadcast_to_case,
    "embedding": _embedding_case,
    "softmax": _softmax_case,
    "add_layernorm": _add_layernorm_case,
    "double_attention": _double_attention_case,
    "cross_entropy": _cross_entropy_case,
    "frobenius_sq": _frobenius_sq_case,
}


@pytest.mark.parametrize("op", OP_CASES)
@settings(max_examples=50)
@given(data=st.data())
def test_op_gradcheck_over_random_shapes(op, data):
    fn, shapes = OP_CASES[op](data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    leaves = {f"x{i}": leaf(rng, *shape) for i, shape in enumerate(shapes)}
    tgt = Tensor(rng.normal(size=fn(*leaves.values()).shape))
    report = grad_check(lambda: total(fn(*leaves.values()), tgt), leaves, step=1e-5)
    assert report.max_relative_error < 1e-6


@pytest.mark.parametrize("rate, rng", [(1.0, np.random.default_rng(0)), (0.1, None)])
def test_self_attention_keeps_dropout_checks(rate, rng):
    # self_attention takes its masks from dropout_mask, which the encoder calls before the first layer
    with pytest.raises(ValueError, match="dropout"):
        ad.dropout_mask((1, 1, 2, 2), np.float64, rate, True, rng)
    cfg = encoder.EncoderConfig(vocab_size=4, d=2, n_layers=1, n_heads=1, dropout=0.1)
    params = encoder.init_params(encoder.param_specs(cfg), np.random.default_rng(0))
    with pytest.raises(ValueError, match="dropout"):
        encoder.encode(np.ones((1, 2), int), np.ones((1, 2), bool), cfg, params, True, None)


def _group_rows(a, groups):
    """a's rows of each group, as K x S x d arrays."""
    return [a[start:stop].reshape(k, s, -1) for k, s, start, stop in groups]


def _twenty_node_attention(x, key_bias, params, prefix, config, keep_p, keep_o, groups):
    """The op chain self_attention replaced, in plain numpy and one group at a time: projections,
    contiguous head split, key transpose, scale, bias softmax, dropout, context, merge, output."""
    heads = config.n_heads

    def w(name):
        return params[prefix + "attn." + name].data

    outs, offset = [], 0
    for xg, bias in zip(_group_rows(x.data, groups), key_bias):
        K, S, d = xg.shape
        dk = d // heads
        keep = None if keep_p is None else keep_p[offset:offset + K * heads * S * S].reshape(K, heads, S, S)
        offset += K * heads * S * S

        def split(t):
            return np.ascontiguousarray(t.reshape(K, S, heads, dk).transpose(0, 2, 1, 3))

        q = split(np.matmul(xg, w("Wq")) + w("bq"))
        k = split(np.matmul(xg, w("Wk")))
        v = split(np.matmul(xg, w("Wv")) + w("bv"))
        scores = np.matmul(q, np.ascontiguousarray(k.transpose(0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
        scores = scores + bias
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        if keep is not None:
            probs = probs * keep
        ctx = np.ascontiguousarray(np.matmul(probs, v).transpose(0, 2, 1, 3)).reshape(K, S, d)
        outs.append((np.matmul(ctx, w("Wo")) + w("bo")).reshape(K * S, d))
    out = np.concatenate(outs)
    return Tensor(out if keep_o is None else out * keep_o)


def _six_node_feed_forward(x, params, prefix, config, keep, groups):
    """The op chain feed_forward replaced, in plain numpy: matmul, add, gelu, matmul, add, dropout;
    the GEMMs one group at a time."""
    def w(name):
        return params[prefix + "ffn." + name].data

    def matmul(a, b):
        return np.concatenate([np.matmul(part, b).reshape(-1, b.shape[1]) for part in _group_rows(a, groups)])

    h = matmul(x.data, w("W1"))
    h = h + w("b1")
    t = np.tanh(0.7978845608028654 * (h + 0.044715 * (h * h * h)))
    h = 0.5 * h * (1.0 + t)
    h = matmul(h, w("W2"))
    h = h + w("b2")
    if keep is not None:
        h = h * keep
    return Tensor(h)


ENCODE_SHAPES = [(32, 24, 64, 4), (8, 50, 64, 4), (3, 7, 16, 4), (2, 5, 6, 3), (1, 1, 8, 2)]


def _encode_bytes(training, k_batch, seq, d, heads):
    """A closure running float32 encode on fixed random weights: output bytes and the rng's next draw."""
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

    return run


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_encode_matches_twenty_node_attention_bitwise(monkeypatch, training, k_batch, seq, d, heads):
    run = _encode_bytes(training, k_batch, seq, d, heads)
    fused = run()
    monkeypatch.setattr(encoder, "_self_attention", _twenty_node_attention)
    assert fused == run()


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_encode_matches_six_node_feed_forward_bitwise(monkeypatch, training, k_batch, seq, d, heads):
    run = _encode_bytes(training, k_batch, seq, d, heads)
    fused = run()
    monkeypatch.setattr(encoder, "_feed_forward", _six_node_feed_forward)
    assert fused == run()


# ---------------------------------------------------------------------------
# one pass over sequence groups

LABEL_LEN = 10  # the label sequence of train-agnews' four names


def _pass_bytes(training, k_batch, seq, d, heads, grouped):
    """float32 documents and a label sequence through one two-group pass, or through separate encode
    and encode_labels_once calls: the outputs, every parameter gradient and the rng's next draw."""
    rng = np.random.default_rng(seq)
    config = encoder.EncoderConfig(vocab_size=40, d=d, n_layers=2, n_heads=heads, max_positions=64)
    params = encoder.init_params(encoder.param_specs(config), rng, np.float32)
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.3, size=p.shape)
    ids = rng.integers(0, 40, size=(k_batch, seq))
    mask = rng.random((k_batch, seq)) > 0.3
    mask[:, 0] = True
    label_ids = rng.integers(0, 40, size=LABEL_LEN)  # a label id also among the documents' ids
    draws = np.random.default_rng(7)
    if grouped:
        docs, labels = encoder.encode_groups([(ids, mask), encoder.label_group(label_ids)], config, params,
                                             training, draws)
    else:
        docs = encoder.encode(ids, mask, config, params, training, draws)
        labels = encoder.encode_labels_once(label_ids, config, params, training, draws)
    outputs = [docs.tokens, docs.pooled, labels.tokens, labels.pooled]
    loss = None
    for out in outputs:
        term = total(out, Tensor(rng.normal(size=out.shape).astype(np.float32)))
        loss = term if loss is None else ad.add(loss, term)
    backward(loss)
    return ([out.data.tobytes() for out in outputs], {name: p.grad.tobytes() for name, p in params.items()},
            draws.random())


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_two_group_pass_matches_separate_encodes_bitwise(training, k_batch, seq, d, heads):
    grouped = _pass_bytes(training, k_batch, seq, d, heads, grouped=True)
    separate = _pass_bytes(training, k_batch, seq, d, heads, grouped=False)
    assert grouped[0] == separate[0]  # the outputs
    assert grouped[1] == separate[1]  # every parameter's gradient
    assert grouped[2] == separate[2]  # the dropout stream


@st.composite
def group_cases(draw):
    """K x S documents with a random key mask (one key kept per row), a 1 x L label sequence, and a seed."""
    k, s, length = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # d >= 3: at width 2 the layer norm's output is +-1 whatever its input, so no gradient reaches the tables
    heads, dk = draw(st.sampled_from([(1, 3), (2, 2), (3, 1)]))
    mask = draw(hnp.arrays(bool, (k, s)))
    mask[np.arange(k), draw(hnp.arrays(np.int64, k, elements=st.integers(0, s - 1)))] = True
    return k, s, length, heads, dk, mask, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("training", [False, True])
@settings(max_examples=25)
@given(case=group_cases())
def test_grouped_ops_gradcheck(training, case):
    """float64 embed, self_attention, feed_forward and take_rows over two groups."""
    k, s, length, heads, dk, mask, seed = case
    d, vocab = heads * dk, 5
    rng = np.random.default_rng(seed)
    shapes = [("table", (vocab, d)), ("pos", (6, d)), ("gain", (d,)), ("bias", (d,)), ("Wq", (d, d)),
              ("bq", (d,)), ("Wk", (d, d)), ("Wv", (d, d)), ("bv", (d,)), ("Wo", (d, d)), ("bo", (d,)),
              ("W1", (d, 3)), ("b1", (3,)), ("W2", (3, d)), ("b2", (d,))]
    w = {name: leaf(rng, *shape) for name, shape in shapes}
    w["gain"].data += 1.0
    ids = rng.integers(0, vocab, size=k * s + length)
    groups = ad.row_groups([(k, s), (1, length)])
    masks = [mask, np.ones((1, length), bool)]
    key_bias = [ad.mask_bias(m, np.float64)[:, None, None, :] for m in masks]
    draws = np.random.default_rng(seed)

    def keep(*shape):
        return ad.dropout_mask(shape, np.float64, 0.3, training, draws)

    keep_p = keep(k * heads * s * s + heads * length * length)
    keep_o, keep_f = keep(k * s + length, d), keep(k * s + length, d)
    factors = [m[:, :, None].astype(np.float64) for m in masks]
    targets = [Tensor(rng.normal(size=(n, m, d))) for n, m in [(k, s), (1, length)]]

    def fn():  # the same masks, so every call drops the same entries
        x = ad.embed(w["table"], w["pos"], w["gain"], w["bias"], ids, groups)
        x = ad.self_attention(x, key_bias, *(w[n] for n in ("Wq", "bq", "Wk", "Wv", "bv", "Wo", "bo")), heads,
                              keep_p, keep_o, groups)
        x = ad.feed_forward(x, w["W1"], w["b1"], w["W2"], w["b2"], keep_f, groups)
        terms = [total(ad.take_rows(x, start, (n, m, d), factor), target)
                 for (n, m, start, _), factor, target in zip(groups, factors, targets)]
        return ad.add(*terms)

    report = grad_check(fn, w, step=1e-5)
    assert report.max_relative_error < 1e-6


# the fused ops' forward and backward as first written, one fresh array per operator: the
# in-place kernels must reproduce them byte for byte, with and without a gradient to record

RATE = 0.1


def _keep(draws, shape):
    """The dropout mask dropout() draws: 1/(1-RATE) where kept, 0 where dropped."""
    return np.multiply(draws.random(shape) >= RATE, 1.0 / (1.0 - RATE), dtype=np.float32)


def _attention_out_of_place(xd, key_bias, Wq, bq, Wk, Wv, bv, Wo, bo, heads, keep_p, keep_o, g):
    k_batch, seq, d = xd.shape
    dk = d // heads
    alpha = 1.0 / math.sqrt(dk)

    def split(t):
        return t.reshape(k_batch, seq, heads, dk).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(k_batch * seq, d)

    q = split(xd @ Wq + bq)
    k = split(xd @ Wk)
    v = split(xd @ Wv + bv)
    scores = (q @ k.swapaxes(-1, -2)) * alpha + key_bias
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    weights = probs if keep_p is None else probs * keep_p
    ctx = merge(weights @ v)
    out = ctx.reshape(xd.shape) @ Wo + bo
    if keep_o is not None:
        out = out * keep_o
        g = g * keep_o
    g = g.reshape(k_batch * seq, d)
    gctx = split(g @ Wo.T)
    gweights = gctx @ v.swapaxes(-1, -2)
    if keep_p is not None:
        gweights = gweights * keep_p
    gscores = probs * (gweights - np.sum(gweights * probs, axis=-1, keepdims=True)) * alpha
    gq = merge(gscores @ k)
    gk = merge(gscores.swapaxes(-1, -2) @ q)
    gv = merge(weights.swapaxes(-1, -2) @ gctx)
    x2 = xd.reshape(k_batch * seq, d)
    gx = gq @ Wq.T + gk @ Wk.T + gv @ Wv.T
    return out, (gx, x2.T @ gq, gq.sum(axis=0), x2.T @ gk, x2.T @ gv,
                 gv.sum(axis=0), ctx.T @ g, g.sum(axis=0))


def _feed_forward_out_of_place(xd, W1, b1, W2, b2, keep, g):
    h = np.matmul(xd, W1) + b1
    t = np.tanh(0.7978845608028654 * (h + 0.044715 * (h * h * h)))
    act = 0.5 * h * (1.0 + t)
    out = np.matmul(act, W2) + b2
    if keep is not None:
        out = out * keep
        g = g * keep
    g = g.reshape(-1, g.shape[-1])
    n = len(g)
    h2, t2 = h.reshape(n, -1), t.reshape(n, -1)
    dgelu = 0.5 * (1.0 + t2) + 0.5 * h2 * (1.0 - t2 * t2) * (0.7978845608028654 * (1.0 + 3 * 0.044715 * h2 * h2))
    gh = (g @ W2.T) * dgelu
    return out, (gh @ W1.T, xd.reshape(n, -1).T @ gh, gh.sum(axis=0),
                 act.reshape(n, -1).T @ g, g.sum(axis=0))


def _add_layernorm_out_of_place(a, b, gain, bias, g, groups):
    v = a + b
    dim = v.shape[-1]
    mu = np.add.reduce(v, axis=-1, keepdims=True) / dim
    xc = v - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / dim
    std = np.sqrt(var + 1e-12)
    xhat = xc / std
    out = xhat * gain + bias
    dxhat = g * gain
    dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) / (std * std * std)
    dmu = (-dxhat / std).sum(axis=-1, keepdims=True)
    dx = dxhat / std + dvar * 2.0 * xc / dim + dmu / dim
    gxhat = g * xhat
    dgain, dbias = (sum(t[i:j].sum(axis=0) for _, _, i, j in groups) for t in (gxhat, g))  # summed per group
    return out, (dx, dx, dgain, dbias)


def _assert_fused_matches(op, arrays, g, want_out, want_grads):
    """op over float32 leaves, recorded and then gradient-free, against want's bytes; no input is written."""
    before = [a.copy() for a in (*arrays, g)]
    for requires_grad in (True, False):
        out = op(*[Tensor(a, requires_grad=requires_grad) for a in arrays])
        assert out.data.dtype == np.float32 and out.data.tobytes() == want_out.tobytes()
        assert (out.lineage is not None) == requires_grad
        if requires_grad:
            got = out.lineage.backward_fn(g)
            assert [(a.shape, a.dtype, a.tobytes()) for a in got] == \
                [(a.shape, a.dtype, a.tobytes()) for a in want_grads]
    assert all(a.tobytes() == b.tobytes() for a, b in zip((*arrays, g), before))


def _float32_arrays(rng, *shapes):
    return [rng.normal(0.0, 0.3, size=shape).astype(np.float32) for shape in shapes]


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_self_attention_matches_out_of_place_formulas_bitwise(training, k_batch, seq, d, heads):
    rng = np.random.default_rng(seq)
    arrays = _float32_arrays(rng, (k_batch, seq, d), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,))
    g, = _float32_arrays(rng, (k_batch, seq, d))
    mask = rng.random((k_batch, seq)) > 0.3
    mask[:, 0] = True
    key_bias = ad.mask_bias(mask, np.float32)[:, None, None, :]
    draws = np.random.default_rng(7)
    keep_p = _keep(draws, (k_batch, heads, seq, seq)) if training else None
    keep_o = _keep(draws, (k_batch, seq, d)) if training else None
    want = _attention_out_of_place(arrays[0], key_bias, *arrays[1:], heads, keep_p, keep_o, g)
    keep_rows = None if keep_o is None else keep_o.reshape(-1, d)

    def op(x, *weights):
        return ad.self_attention(x, [key_bias], *weights, heads, keep_p, keep_rows, ad.row_groups([(k_batch, seq)]))

    _assert_fused_matches(op, [arrays[0].reshape(-1, d), *arrays[1:]], g.reshape(-1, d), *want)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_feed_forward_matches_out_of_place_formulas_bitwise(training, k_batch, seq, d, heads):
    rng = np.random.default_rng(seq)
    arrays = _float32_arrays(rng, (k_batch, seq, d), (d, 4 * d), (4 * d,), (4 * d, d), (d,))
    g, = _float32_arrays(rng, (k_batch, seq, d))
    keep = _keep(np.random.default_rng(7), (k_batch, seq, d)) if training else None
    want = _feed_forward_out_of_place(*arrays, keep, g)
    keep_rows = None if keep is None else keep.reshape(-1, d)

    def op(*ts):
        return ad.feed_forward(*ts, keep_rows, ad.row_groups([(k_batch, seq)]))

    _assert_fused_matches(op, [arrays[0].reshape(-1, d), *arrays[1:]], g.reshape(-1, d), *want)


@pytest.mark.parametrize("two_groups", [False, True], ids=["same", "two-groups"])
@pytest.mark.parametrize("k_batch, seq, d, heads", ENCODE_SHAPES)
def test_add_layernorm_matches_out_of_place_formulas_bitwise(two_groups, k_batch, seq, d, heads):
    # the documents' rows, then in the encoder's pass the label sequence's
    groups = ad.row_groups([(k_batch, seq)] + [(1, LABEL_LEN)] * two_groups)
    rng = np.random.default_rng(seq)
    rows = (groups[-1][3], d)
    arrays = _float32_arrays(rng, rows, rows, (d,), (d,))
    arrays[2] += 1.0  # gains near 1, as trained ones start
    g, = _float32_arrays(rng, rows)

    def op(*ts):
        return ad.add_layernorm(*ts, groups)

    _assert_fused_matches(op, arrays, g, *_add_layernorm_out_of_place(*arrays, g, groups))


def _unused_tape_ops(autodiff_source: str, other_sources: list[str]) -> set[str]:
    """Module-level functions of autodiff_source that call _result (so record a tape node)
    and that no other source names (see _autodiff_names)."""
    ops = {fn.name for fn in ast.parse(autodiff_source).body if isinstance(fn, ast.FunctionDef)
           and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_result" for n in ast.walk(fn))}
    return ops - _autodiff_names(other_sources)


def _unused_public_functions(autodiff_source: str, other_sources: list[str]) -> set[str]:
    """Module-level functions of autodiff_source without a leading underscore that no other source names."""
    public = {fn.name for fn in ast.parse(autodiff_source).body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    return public - _autodiff_names(other_sources)


def _autodiff_names(sources: list[str]) -> set[str]:
    """The names the sources take from autodiff: as `ad.<name>` on a module alias or in `from .autodiff import`."""
    used = set()
    for source in sources:
        tree = ast.parse(source)
        aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   for a in n.names if a.name == "autodiff"}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "autodiff":
                used.update(a.name for a in n.names)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
                used.add(n.attr)
    return used


def test_unused_tape_ops_are_found():
    core = "def _result(*a): pass\ndef op(x): return _result(x)\ndef helper(x): return x\n"
    assert _unused_tape_ops(core, ["from . import autodiff as ad\nad.op(1)"]) == set()
    assert _unused_tape_ops(core, ["from .autodiff import op"]) == set()
    assert _unused_tape_ops(core, ["from . import autodiff as ad\nad.helper(1)", "op = 1\nx.op(1)"]) == {"op"}


def test_unused_public_functions_are_found():
    core = "def _private(x): pass\ndef op(x): return x\ndef helper(x): return op(x)\n"
    assert _unused_public_functions(core, ["from idea.autodiff import op, helper"]) == set()
    # a call inside autodiff itself is no use by the program
    assert _unused_public_functions(core, ["from idea import autodiff as ad\nad.op(1)"]) == {"helper"}


def _sources(directory: str) -> dict[str, str]:
    """Each .py file of directory, by name."""
    sources = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def test_every_tape_op_has_a_user_in_the_package():
    sources = _sources(os.path.dirname(idea.__file__))
    # broadcast_to's one caller is perfbench's traced replay of the head's op chain, which
    # double_attention replaced in the program; it goes once perfbench times the program itself
    assert _unused_tape_ops(sources.pop("autodiff.py"), list(sources.values())) == {"broadcast_to"}


def test_every_public_autodiff_function_has_a_user_in_the_package_or_perfbench():
    # the autodiff core keeps only what the program, or the benchmark that times it, calls
    sources = _sources(os.path.dirname(idea.__file__))
    core = sources.pop("autodiff.py")
    perfbench = _sources(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    assert _unused_public_functions(core, [*sources.values(), *perfbench.values()]) == set()


# ---------------------------------------------------------------------------
# allocator set-up at import

# C-library loaders of platforms without glibc's mallopt, as source for a fresh interpreter
NO_MALLOPT_LOADERS = {
    "no-c-library": "def loader(name, *args, **kwargs): raise OSError('no C library')",
    "no-mallopt": "def loader(name, *args, **kwargs): return object()",  # macOS, musl
    "none-rejected": "def loader(name, *args, **kwargs): raise TypeError('name must be a str')",  # Windows
}


@pytest.mark.parametrize("loader", list(NO_MALLOPT_LOADERS))
def test_import_skips_the_allocator_setting_without_mallopt(loader):
    src = os.path.dirname(os.path.dirname(idea.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "\n".join([
        "import ctypes",
        NO_MALLOPT_LOADERS[loader],
        "ctypes.CDLL = loader",
        "import idea",
        "print(idea.autodiff.FREED_MEMORY_KEPT)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
