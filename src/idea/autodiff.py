"""Reverse-mode automatic differentiation over dense numpy tensors.

A small tape-based engine: every operation returns a new Tensor whose
lineage records the input tensors and a closure mapping the output
gradient to input gradients. backward() walks the tape in reverse
topological order and accumulates into .grad buffers. Only the
operations the classifier actually needs are provided; float64 is used
for gradient checking, float32 is fine for training.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np


def _keep_freed_memory() -> bool:
    """Make glibc's malloc keep freed memory in the process; False where it cannot.

    By default glibc hands large freed blocks and the free heap top back to the
    kernel, so every train step faults its temporaries in again as fresh zeroed
    pages (about 1,700 minor faults a step). The setting is process-wide.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # Windows rejects None; macOS, musl lack mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) 32 MiB, the most glibc takes: the largest train temporary, a
    # max_len batch's 8.6 MB attention scores, stays on the heap (8 MiB: 6,850 faults a step).
    # M_TRIM_THRESHOLD (-1) 64 MiB: a max_len step frees ~110 MB (32 MiB: 2,300 faults a step).
    # Setting either stops glibc adapting both, and either alone is worse than neither,
    # so the trim threshold is set only once the mmap threshold has been.
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 64 << 20))


FREED_MEMORY_KEPT = _keep_freed_memory()


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class DegenerateSliceError(ValueError):
    """A mask row in which every position is masked out."""


class CyclicLineageError(RuntimeError):
    """The lineage graph contains a cycle (internal bug)."""


class Lineage:
    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense floating-point tensor with a gradient buffer and optional lineage."""

    __slots__ = ("data", "_grad", "requires_grad", "lineage")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self._grad: np.ndarray | None = None  # allocated on first touch, reads as zeros
        self.requires_grad = requires_grad
        self.lineage: Lineage | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0


def _needs_grad(inputs) -> bool:
    for t in inputs:  # a loop, not any(): no generator on every op call
        if t.requires_grad:
            return True
    return False


def _result(data, inputs, backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    if _needs_grad(inputs):
        out.requires_grad = True
        out.lineage = Lineage(op, tuple(inputs), backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.data.shape} with {b.data.shape}")

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(data, (a, b), backward_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.data.shape} with {b.data.shape}")

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(data, (a, b), backward_fn, "mul")


def scale(x: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)

    def backward_fn(g):
        return (g * alpha,)

    return _result(x.data * alpha, (x,), backward_fn, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul: operands must be at least 2-d, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree for {a.data.shape} @ {b.data.shape}"
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: cannot broadcast {a.data.shape} @ {b.data.shape}")

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        # matrix axes never broadcast, so only leading axes are summed away
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _result(data, (a, b), backward_fn, "matmul")


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward_fn(g):
        return (g * (1.0 - data * data),)

    return _result(data, (x,), backward_fn, "tanh")


def abs_diff(a: Tensor, b: Tensor) -> Tensor:
    """|a - b| elementwise; the subgradient at ties is taken as 0."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"abs_diff: shapes {a.data.shape} and {b.data.shape} differ")
    diff = a.data - b.data
    sign = np.sign(diff)

    def backward_fn(g):
        return g * sign, -g * sign

    return _result(np.abs(diff), (a, b), backward_fn, "abs_diff")


def mask_bias(mask, dtype) -> np.ndarray:
    """Additive softmax bias for a boolean mask: 0 where True, -inf where False.

    Every row along the last axis must keep at least one position;
    otherwise DegenerateSliceError is raised.
    """
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=-1).all():
        raise DegenerateSliceError("mask_bias: a row has every position masked out")
    return np.where(m, 0.0, -np.inf).astype(dtype)


def softmax(x: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Exp-normalize along the last axis, subtracting the row max for stability.

    bias, broadcastable to x, is added to the scores first; a -inf entry
    (see mask_bias) gives its position weight exactly 0.
    """
    y = _softmax(x.data, bias)

    def backward_fn(g):
        return (_softmax_grad(g, y),)

    return _result(y, (x,), backward_fn, "softmax")


def _softmax(data: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    if bias is not None:
        data = data + bias
    # np.maximum.reduce and np.add.reduce are np.max's and .sum()'s arithmetic, without their Python wrappers
    e = np.exp(data - np.maximum.reduce(data, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = np.sum(g * y, axis=-1, keepdims=True)
    return y * (g - dot)


def mean(x: Tensor) -> Tensor:
    """The mean over axis 1, kept as an axis of length 1."""
    data = x.data
    count = data.shape[1]
    out = data.sum(axis=1, keepdims=True) / count

    def backward_fn(g):
        return (np.broadcast_to(g, data.shape) / count,)

    return _result(out, (x,), backward_fn, "reduce_mean")


def concat(parts: list[Tensor]) -> Tensor:
    """The parts joined along axis 1."""
    if not parts:
        raise ValueError("concat: empty list")
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([p.data.shape[1] for p in parts])[:-1]

    def backward_fn(g):
        return tuple(np.split(g, offsets, axis=1))

    return _result(data, tuple(parts), backward_fn, "concat")


def dropout_mask(shape, dtype, rate: float, training: bool, rng) -> np.ndarray | None:
    """A dropout mask of shape: 1/(1-rate) where kept, 0 where dropped; None when dropout is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout: an rng is required when training")
    return np.multiply(rng.random(shape) >= rate, 1.0 / (1.0 - rate), dtype=dtype)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Zero a fraction of entries and rescale survivors by 1/(1-rate).

    The identity when training is False or rate is 0.
    """
    return apply_dropout(x, dropout_mask(x.data.shape, x.data.dtype, rate, training, rng))


def apply_dropout(x: Tensor, keep: np.ndarray | None) -> Tensor:
    """x times a mask from dropout_mask; x itself when keep is None."""
    if keep is None:
        return x

    def backward_fn(g):
        return (g * keep,)

    return _result(x.data * keep, (x,), backward_fn, "dropout")


# Groups: consecutive blocks of an N x d tensor's rows, each block K sequences of
# length S, as (K, S, first row, end row) per block; see row_groups. A grouped op
# treats every group as if it ran on that group alone: attention looks only
# within a group, its GEMMs are the group's own, and each parameter gradient is
# summed within each group and the sums then added, as separate passes and
# backward() would add them.
Groups = tuple[tuple[int, int, int, int], ...]


def row_groups(shapes) -> Groups:
    """The Groups of consecutive blocks of K x S rows, one (K, S) pair per block."""
    groups, start = [], 0
    for k_batch, seq in shapes:
        groups.append((k_batch, seq, start, start + k_batch * seq))
        start += k_batch * seq
    return tuple(groups)


def _add_groups(per_group) -> list[np.ndarray]:
    """Each group's tuple of gradients from per_group, added group by group, in group order."""
    totals = None
    for parts in per_group:
        if totals is None:
            totals = list(parts)  # fresh arrays, so the later groups add in place
        else:
            for total, part in zip(totals, parts):
                total += part
    return totals


def self_attention(x: Tensor, key_bias, Wq: Tensor, bq: Tensor, Wk: Tensor, Wv: Tensor, bv: Tensor,
                   Wo: Tensor, bo: Tensor, heads: int, keep_p: np.ndarray | None, keep_o: np.ndarray | None,
                   groups: Groups) -> Tensor:
    """Multi-head scaled dot-product self-attention within each group of x's rows, as one tape node.

    x is N x d, its rows split by groups (see Groups). key_bias[i] (see
    mask_bias) broadcasts to group i's K x heads x S x S scores. keep_p (see
    dropout_mask) hits the attention weights, every group's K x heads x S x S
    of them in a row, and keep_o the output; None drops nothing. The
    backward pass is written out by hand; a group's weight gradients are
    single GEMMs over its K*S rows. Each group's intermediates stay its own
    arrays, as a pass over it alone makes them.
    """
    inputs = (x, Wq, bq, Wk, Wv, bv, Wo, bo)
    xd = x.data
    d = xd.shape[1]
    alpha = 1.0 / math.sqrt(d // heads)
    out = np.empty_like(xd)
    saved, start = [], 0  # per group, what its backward reads; where its weights' mask starts in keep_p
    for (k_batch, seq, i, j), bias in zip(groups, key_bias):
        xg = xd[i:j].reshape(k_batch, seq, d)
        q = xg @ Wq.data
        q += bq.data
        q = _split_heads(q, k_batch, heads)
        k = _split_heads(xg @ Wk.data, k_batch, heads)
        v = xg @ Wv.data
        v += bv.data
        v = _split_heads(v, k_batch, heads)
        probs = q @ k.swapaxes(-1, -2)  # the scores, exponentiated and normalized in place
        probs *= alpha
        probs += bias
        # row maxima (exact in any order) from a key-major copy: one reduction, not one per short row
        probs -= np.maximum.reduce(probs.transpose(3, 0, 1, 2).copy(), axis=0)[..., None]
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        keep = None if keep_p is None else keep_p[start:start + probs.size].reshape(probs.shape)
        start += probs.size
        weights = probs if keep is None else probs * keep
        ctx = _merge_heads(weights @ v)
        np.matmul(ctx.reshape(xg.shape), Wo.data, out=out[i:j].reshape(xg.shape))
        saved.append((q, k, v, probs, keep, weights, ctx))
    out += bo.data
    if keep_o is not None:
        out *= keep_o

    def backward_fn(g):
        if keep_o is not None:
            g = g * keep_o
        gx = np.empty_like(xd)

        def group_grads(k_batch, seq, i, j, q, k, v, probs, keep, weights, ctx):
            gg = g[i:j]
            gctx = _split_heads(gg @ Wo.data.T, k_batch, heads)
            gscores = gctx @ v.swapaxes(-1, -2)  # the weights' gradient, turned into the scores' in place
            if keep is not None:
                gscores *= keep
            gscores -= np.sum(gscores * probs, axis=-1, keepdims=True)
            gscores *= probs
            gscores *= alpha
            gq = _merge_heads(gscores @ k)
            gk = _merge_heads(gscores.swapaxes(-1, -2) @ q)
            gv = _merge_heads(weights.swapaxes(-1, -2) @ gctx)
            x2 = xd[i:j]
            gxg = np.matmul(gq, Wq.data.T, out=gx[i:j])
            gxg += gk @ Wk.data.T
            gxg += gv @ Wv.data.T
            return x2.T @ gq, gq.sum(axis=0), x2.T @ gk, x2.T @ gv, gv.sum(axis=0), ctx.T @ gg, gg.sum(axis=0)

        grads = _add_groups(group_grads(*group, *s) for group, s in zip(groups, saved))
        return (gx, *grads)

    return _result(out, inputs, backward_fn, "self_attention")


def _split_heads(t: np.ndarray, k_batch: int, heads: int) -> np.ndarray:
    """K*S rows of d -> K x heads x S x dk, a view."""
    d = t.shape[-1]
    return t.reshape(k_batch, -1, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """K x heads x S x dk -> (K*S) x d."""
    k_batch, heads, seq, dk = t.shape
    return t.transpose(0, 2, 1, 3).reshape(k_batch * seq, heads * dk)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
LAYER_NORM_EPS = 1e-12  # BERT's


def feed_forward(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor, keep: np.ndarray | None,
                 groups: Groups) -> Tensor:
    """(gelu(x W1 + b1) W2 + b2) * keep over the N x d rows of x, as one tape node.

    GELU is the tanh approximation; keep is a dropout_mask of the output's
    shape, or None. Each group's (see Groups) GEMMs are its own, as if it
    ran alone: BLAS may round a few rows differently inside a larger
    product. The backward pass is written out by hand; a group's weight
    gradients are single GEMMs over its rows. Without a gradient to record,
    the activation overwrites the pre-activation.
    """
    inputs = (x, W1, b1, W2, b2)
    reuse = not _needs_grad(inputs)  # no backward reads the intermediates
    xd = x.data
    h = _group_matmul(xd, W1.data, groups)
    h += b1.data
    t = h * h  # tanh(C (h + 0.044715 h^3)), built in place
    t *= h
    t *= 0.044715
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    act = np.multiply(h, 0.5, out=h if reuse else None)  # (0.5 h) (1 + t)
    act *= np.add(t, 1.0, out=t if reuse else None)
    out = _group_matmul(act, W2.data, groups)
    out += b2.data
    if keep is not None:
        out *= keep

    def backward_fn(g):
        if keep is not None:
            g = g * keep
        # gelu' = 0.5 (1 + t) + (0.5 h) (1 - t^2) (C (1 + 3 * 0.044715 h^2)), in that association
        dgelu = np.multiply(h, 0.5)
        s = np.multiply(t, t)
        dgelu *= np.subtract(1.0, s, out=s)
        np.multiply(h, 3 * 0.044715, out=s)
        s *= h
        s += 1.0
        s *= _GELU_C
        dgelu *= s
        np.add(t, 1.0, out=s)
        s *= 0.5
        dgelu += s
        gx = np.empty_like(xd)

        def group_grads(i, j):
            gh = g[i:j] @ W2.data.T
            gh *= dgelu[i:j]
            np.matmul(gh, W1.data.T, out=gx[i:j])
            return xd[i:j].T @ gh, gh.sum(axis=0), act[i:j].T @ g[i:j], g[i:j].sum(axis=0)

        grads = _add_groups(group_grads(i, j) for _, _, i, j in groups)
        return (gx, *grads)

    return _result(out, inputs, backward_fn, "feed_forward")


def _group_matmul(a: np.ndarray, b: np.ndarray, groups: Groups) -> np.ndarray:
    """a @ b, as one K x S x width product per group of a's rows."""
    rows = [np.matmul(a[i:j].reshape(k_batch, seq, -1), b).reshape(j - i, -1) for k_batch, seq, i, j in groups]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def double_attention(tokens: Tensor, pooled: Tensor, label_pooled: Tensor, label_vectors: Tensor,
                     W_m: Tensor, b_m: Tensor, W_t: Tensor, b_t: Tensor, clf_W: Tensor, clf_b: Tensor,
                     query_mask: np.ndarray, blocks: tuple[str, ...],
                     keep: np.ndarray | None) -> tuple[Tensor, tuple[Tensor, ...]]:
    """IDEA's head as one tape node: both attentions, the gamma/eta fusion, z and the classifier.

    tokens (K x S x d, CLS first) and pooled (K x d) are the documents' encoding;
    label_pooled (1 x d) and label_vectors (1 x L x d) are the label sequence's, shared by
    the batch. Text attention scores tokens 1.. (where query_mask, K x S-1, is True)
    against label_pooled through W_m, b_m; label attention scores the label vectors
    against pooled through W_t, b_t. z joins blocks, named from c, p_weighted,
    d_weighted and s, times keep (a dropout_mask, or None); the logits are z clf_W + clf_b.

    Returns the logits and head.IdeaFeatures' fields (alpha, beta, c, s, p, d_feat, gamma,
    z) as Tensors with no lineage. Forward and backward repeat head.py's op chain operation
    for operation, and each gradient adds its shares in the order backward() adds the
    chain's, so both give the same bits. When z reads nothing of s, the label side gets no gradient.
    """
    tk = tokens.data
    k_batch, _, d = tk.shape
    text = np.ascontiguousarray(tk[:, 1:])
    label_query = label_pooled.data.repeat(k_batch, axis=0)  # the chain's broadcasts, as copies
    labels = label_vectors.data.repeat(k_batch, axis=0)
    text_saved = _bilinear_attention(text, label_query, W_m.data, b_m.data, mask_bias(query_mask, tk.dtype))
    label_saved = _bilinear_attention(labels, pooled.data, W_t.data, b_t.data, None)
    alpha, c = text_saved[2:]
    beta, s = label_saved[2:]
    p = c * s
    diff = c - s
    sign = np.sign(diff)
    d_feat = np.abs(diff)
    means = [np.add.reduce(x, axis=1, keepdims=True) / d for x in (p, d_feat)]
    pair = _softmax(np.concatenate(means, axis=1), None)
    gamma = np.ascontiguousarray(pair[:, 1:])
    eta = 1.0 - gamma  # the chain's 1 + (-1.0 * gamma): the same bits
    named = {"c": c, "p_weighted": gamma * p, "d_weighted": eta * d_feat, "s": s}
    z = np.concatenate([named[name] for name in blocks], axis=1)
    if keep is not None:
        z *= keep
    logits = np.matmul(z, clf_W.data) + clf_b.data
    features = tuple(Tensor(a) for a in (alpha, beta, c, s, p, d_feat, gamma.reshape(k_batch), z))
    fused = "p_weighted" in blocks or "d_weighted" in blocks
    label_side = fused or "s" in blocks
    if label_side:
        inputs = (tokens, pooled, label_pooled, label_vectors, W_m, b_m, W_t, b_t, clf_W, clf_b)
    else:
        inputs = (tokens, label_pooled, W_m, b_m, clf_W, clf_b)

    def add(total, share):  # as backward() accumulates: the first share, then each later one added
        return share if total is None else total + share

    def backward_fn(g):
        g_clf_W = np.matmul(np.swapaxes(z, -1, -2), g)
        g_z = np.matmul(g, np.swapaxes(clf_W.data, -1, -2))
        if keep is not None:
            g_z *= keep
        parts = dict(zip(blocks, np.split(g_z, len(blocks), axis=1)))
        g_c, g_s = parts.get("c"), parts.get("s")
        if fused:
            g_p = g_d = g_gamma = None
            if "p_weighted" in parts:
                g_gamma = _unbroadcast(parts["p_weighted"] * p, gamma.shape)
                g_p = parts["p_weighted"] * gamma
            if "d_weighted" in parts:
                g_gamma = add(g_gamma, -_unbroadcast(parts["d_weighted"] * d_feat, eta.shape))
                g_d = parts["d_weighted"] * eta
            g_pair = np.zeros_like(pair)
            g_pair[:, 1:] = g_gamma
            g_means = _softmax_grad(g_pair, pair)
            g_p = add(g_p, np.broadcast_to(g_means[:, :1], p.shape) / d)
            g_d = add(g_d, np.broadcast_to(g_means[:, 1:], d_feat.shape) / d)
            # backward()'s depth-first walk finishes first the one of p and d_feat it reaches through
            # its weighted block (d_weighted's when z has it), so it adds the other's share first
            shares = [(g_p * s, g_p * c), (g_d * sign, -g_d * sign)]
            for c_share, s_share in shares if "d_weighted" in parts else shares[::-1]:
                g_c, g_s = add(g_c, c_share), add(g_s, s_share)
        g_text, g_label_query, g_W_m, g_b_m = _bilinear_attention_grads(g_c, text, label_query, W_m.data,
                                                                        *text_saved[:3])
        g_tokens = np.zeros_like(tk)
        g_tokens[:, 1:] = g_text
        g_label_pooled = _unbroadcast(g_label_query, label_pooled.data.shape)
        g_clf_b = _unbroadcast(g, clf_b.data.shape)
        if not label_side:
            return g_tokens, g_label_pooled, g_W_m, g_b_m, g_clf_W, g_clf_b
        g_labels, g_pooled, g_W_t, g_b_t = _bilinear_attention_grads(g_s, labels, pooled.data, W_t.data,
                                                                     *label_saved[:3])
        return (g_tokens, g_pooled, g_label_pooled, _unbroadcast(g_labels, label_vectors.data.shape),
                g_W_m, g_b_m, g_W_t, g_b_t, g_clf_W, g_clf_b)

    return _result(logits, inputs, backward_fn, "double_attention"), features


def _bilinear_attention(vectors, query, w, b, bias):
    """head._attend on arrays: tanh(v_i W q + b) scores, softmaxed with bias, weight the v_i.

    Returns the projected vectors, the scores, the weights and the attended vector.
    """
    k_batch, n, d = vectors.shape
    projected = np.matmul(vectors, w)
    scores = np.matmul(projected, query.reshape(k_batch, d, 1)).reshape(k_batch, n)
    scores += b
    np.tanh(scores, out=scores)
    weights = _softmax(scores, bias)
    return projected, scores, weights, np.matmul(weights.reshape(k_batch, 1, n), vectors).reshape(k_batch, d)


def _bilinear_attention_grads(g, vectors, query, w, projected, scores, weights):
    """_bilinear_attention's backward from the attended vector's gradient g, as its op chain's:
    the gradients of the vectors, the query, w (per sample, then summed) and b."""
    k_batch, n, d = vectors.shape
    g = g.reshape(k_batch, 1, d)
    g_vectors = np.matmul(np.swapaxes(weights.reshape(k_batch, 1, n), -1, -2), g)
    g_scores = _softmax_grad(np.matmul(g, np.swapaxes(vectors, -1, -2)).reshape(k_batch, n), weights)
    g_scores *= 1.0 - scores * scores
    g_raw = g_scores.reshape(k_batch, n, 1)
    g_projected = np.matmul(g_raw, np.swapaxes(query.reshape(k_batch, d, 1), -1, -2))
    g_query = np.matmul(np.swapaxes(projected, -1, -2), g_raw).reshape(k_batch, d)
    g_vectors += np.matmul(g_projected, np.swapaxes(w, -1, -2))
    g_w = _unbroadcast(np.matmul(np.swapaxes(vectors, -1, -2), g_projected), w.shape)
    return g_vectors, g_query, g_w, _unbroadcast(g_scores, ())


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(x.data.shape),)

    return _result(data, (x,), backward_fn, "reshape")


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """x[..., start:stop, ...] along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _result(np.ascontiguousarray(x.data[idx]), (x,), backward_fn, "slice")


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {x.data.shape} to {shape}")

    def backward_fn(g):
        return (_unbroadcast(g, x.data.shape),)

    return _result(np.ascontiguousarray(data), (x,), backward_fn, "broadcast")


def take_rows(x: Tensor, start: int, shape, factor: np.ndarray) -> Tensor:
    """x's rows (its leading axes flattened) from start on, as an array of shape, times factor; one tape node.

    The gradient fills x's other rows with -0.0, which adds to any number
    exactly, so the gradients of takes of disjoint rows sum to each take's own.
    """
    flat = x.data.reshape(-1, x.data.shape[-1])
    stop = start + math.prod(shape[:-1])

    def backward_fn(g):
        full = np.full_like(flat, -0.0)
        full[start:stop] = (g * factor).reshape(stop - start, -1)
        return (full.reshape(x.data.shape),)

    return _result(flat[start:stop].reshape(shape) * factor, (x,), backward_fn, "take_rows")


def embed(tokens: Tensor, positions: Tensor, gain: Tensor, bias: Tensor, ids: np.ndarray,
          groups: Groups) -> Tensor:
    """Normalize each row's token vector plus its position vector, then apply a gain and bias; one tape node.

    ids, one per row, index the rows of the token table; those of a group
    (see Groups) take positions 0 .. S-1 once per sequence. The
    normalization is add_layernorm's. The tables' gradients scatter-add back
    into one table per group, and those are then added.
    """
    ids = np.asarray(ids)
    rows, width = tokens.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ShapeError(f"embed: ids outside [0, {rows}) in lookup")
    inputs = (tokens, positions, gain, bias)
    xc = tokens.data[ids]
    for k_batch, seq, i, j in groups:
        xc[i:j].reshape(k_batch, seq, width)[...] += positions.data[:seq]
    data, xhat, std = _layernorm(xc, gain, bias, reuse=not _needs_grad(inputs))

    def table_grads(dx, flat, k_batch, seq, i, j):
        gt = np.zeros_like(tokens.data)
        np.add.at(gt.reshape(-1), flat[i * width:j * width], dx[i:j].reshape(-1))  # 1-D: numpy's fast path
        gp = np.zeros_like(positions.data)
        gp[:seq] = dx[i:j].reshape(k_batch, seq, width).sum(axis=0)
        return gt, gp

    def backward_fn(g):
        dx, dgain, dbias = _layernorm_grads(g, xc, xhat, std, gain, groups)
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)  # each looked-up entry's flat index
        return (*_add_groups(table_grads(dx, flat, *group) for group in groups), dgain, dbias)

    return _result(data, inputs, backward_fn, "embed")


def add_layernorm(a: Tensor, b: Tensor, gain: Tensor, bias: Tensor, groups: Groups) -> Tensor:
    """Normalize a + b, of one shape, over the last axis, then apply a learned gain and bias; one tape node.

    The gain's and bias's gradients are summed over each group's rows (see
    Groups). Without a gradient to record, the normalized values and then
    the output overwrite the sum.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add_layernorm: shapes {a.data.shape} and {b.data.shape} differ")
    inputs = (a, b, gain, bias)
    xc = a.data + b.data
    data, xhat, std = _layernorm(xc, gain, bias, reuse=not _needs_grad(inputs))

    def backward_fn(g):
        dx, dgain, dbias = _layernorm_grads(g, xc, xhat, std, gain, groups)
        return dx, dx, dgain, dbias

    return _result(data, inputs, backward_fn, "add_layernorm")


def _layernorm(xc: np.ndarray, gain: Tensor, bias: Tensor, reuse: bool):
    """Normalize xc over its last axis, in place (xc becomes the centred values), then gain and bias.

    Returns the output, the normalized values and the row std. With reuse
    (no backward reads them), the normalized values and then the output
    overwrite xc.
    """
    dim = xc.shape[-1]
    # np.add.reduce / dim is .mean()'s own arithmetic, without its Python wrapper
    xc -= np.add.reduce(xc, axis=-1, keepdims=True) / dim
    sq = xc * xc
    std = np.add.reduce(sq, axis=-1, keepdims=True) / dim
    std += LAYER_NORM_EPS
    np.sqrt(std, out=std)
    xhat = np.divide(xc, std, out=xc if reuse else sq)
    data = np.multiply(xhat, gain.data, out=xhat if reuse else None)
    data += bias.data
    return data, xhat, std


def _layernorm_grads(g, xc, xhat, std, gain: Tensor, groups: Groups):
    """_layernorm's backward: the gradient of its input, and of the gain and bias summed per group."""
    dim = xc.shape[-1]
    s = g * xhat
    dgain, dbias = _add_groups((s[i:j].sum(axis=0), g[i:j].sum(axis=0)) for _, _, i, j in groups)
    dx = g * gain.data  # d loss / d xhat, turned into d loss / d x in place
    dvar = np.multiply(dx, xc, out=s).sum(axis=-1, keepdims=True) * (-0.5) / (std * std * std)
    np.negative(dx, out=s)
    s /= std
    dmu = s.sum(axis=-1, keepdims=True)  # xc has zero mean: no dvar term
    dx /= std
    np.multiply(xc, dvar * 2.0, out=s)
    s /= dim
    dx += s
    dx += dmu / dim
    return dx, dgain, dbias


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """Mean negative log-likelihood of the gold classes, in log space."""
    gold = np.asarray(gold)
    k, n_classes = logits.data.shape
    if gold.shape != (k,):
        raise ShapeError(f"cross_entropy: gold shape {gold.shape} != ({k},)")
    if gold.size and (gold.min() < 0 or gold.max() >= n_classes):
        raise ValueError(
            f"cross_entropy: gold index outside [0, {n_classes})"
        )
    mx = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - mx
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + mx
    picked = logits.data[np.arange(k), gold][:, None]
    data = np.asarray((logz - picked).mean(), dtype=logits.data.dtype)

    def backward_fn(g):
        probs = np.exp(logits.data - logz)
        probs[np.arange(k), gold] -= 1.0
        return (g * probs / k,)

    return _result(data, (logits,), backward_fn, "cross_entropy")


def frobenius_sq(params: list[Tensor]) -> Tensor:
    """Sum of squared entries across a list of weight tensors."""
    if not params:
        raise ValueError("frobenius_sq: empty parameter list")
    total = 0.0  # a loop, not sum(): since Python 3.12 sum() compensates float rounding
    for p in params:
        total += float(np.sum(p.data * p.data))
    data = np.asarray(total, dtype=params[0].data.dtype)

    def backward_fn(g):
        return tuple(g * 2.0 * p.data for p in params)

    return _result(data, tuple(params), backward_fn, "frobenius_sq")


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into .grad for every node in the tape, then drop the tape."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    state: dict[int, int] = {}  # 0 = on stack, 1 = done
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = 1
            topo.append(node)
            continue
        st = state.get(id(node))
        if st == 1:
            continue
        if st == 0:
            raise CyclicLineageError("backward: lineage graph contains a cycle")
        state[id(node)] = 0
        stack.append((node, True))
        if node.lineage is not None:
            for parent in node.lineage.inputs:
                if parent.requires_grad and state.get(id(parent)) != 1:
                    stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.lineage is None:
            continue
        grads = node.lineage.backward_fn(node.grad)
        for parent, g in zip(node.lineage.inputs, grads):
            if parent.requires_grad:
                if parent._grad is None:
                    # a copy: closures return views, read-only broadcasts and one array to two parents
                    parent._grad = np.array(g, dtype=parent.data.dtype)
                else:
                    parent._grad += g
        node.lineage = None


@dataclass
class GradCheckReport:
    """Analytic-vs-central-difference comparison, one error per parameter."""

    max_relative_error: float
    per_parameter_errors: dict[str, float]
    step_size: float

    def format(self) -> str:
        lines = [f"step_size={self.step_size!r}"]
        for name, err in sorted(self.per_parameter_errors.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name}: rel_err={err:.3e}")
        lines.append(f"max_relative_error={self.max_relative_error:.3e}")
        return "\n".join(lines)


def grad_check(fn, params: dict[str, Tensor], step: float) -> GradCheckReport:
    """Compare backward() gradients of fn() against central differences.

    fn must be a deterministic closure over params returning a scalar
    Tensor. Each parameter coordinate is perturbed by +-step and the
    per-parameter error is ||g_analytic - g_numeric|| / (||g_analytic|| +
    ||g_numeric||): 0 when both norms are 0, inf when it is not finite (a NaN
    would pass any threshold test and upset max). The finite-difference forwards run with
    each parameter's requires_grad off (restored after, also if fn raises): no tape.
    """
    named = list(params.items())
    for _, p in named:
        p.zero_grad()
    backward(fn())
    analytic = {name: p.grad.copy() for name, p in named}

    errors: dict[str, float] = {}
    flags = [p.requires_grad for _, p in named]
    try:
        for _, p in named:
            p.requires_grad = False
        for name, p in named:
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(fn().data)
                flat[i] = orig - step
                f_minus = float(fn().data)
                flat[i] = orig
                numeric[i] = (f_plus - f_minus) / (2.0 * step)
            a = analytic[name].reshape(-1)
            denom = float(np.linalg.norm(a) + np.linalg.norm(numeric))
            err = float(np.linalg.norm(a - numeric)) / denom if denom != 0.0 else 0.0
            errors[name] = err if math.isfinite(err) else math.inf
    finally:
        for (_, p), flag in zip(named, flags):
            p.requires_grad = flag

    return GradCheckReport(
        max_relative_error=max(errors.values()) if errors else 0.0,
        per_parameter_errors=errors,
        step_size=step,
    )
