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
from dataclasses import dataclass, field

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


def softmax(x: Tensor, axis: int = -1, bias: np.ndarray | None = None) -> Tensor:
    """Exp-normalize along an axis, subtracting the slice max for stability.

    bias, broadcastable to x, is added to the scores first; a -inf entry
    (see mask_bias) gives its position weight exactly 0.
    """
    data = x.data
    if not (-data.ndim <= axis < data.ndim):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {data.shape}")
    if bias is not None:
        data = data + bias
    e = np.exp(data - np.max(data, axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), backward_fn, "softmax")


def reduce(x: Tensor, axis=None, kind: str = "sum", keepdims: bool = False) -> Tensor:
    """Sum or mean over an axis (or everything when axis is None)."""
    if kind not in ("sum", "mean"):
        raise ValueError(f"reduce: unknown kind {kind!r}")
    data = x.data
    if axis is not None and not (-data.ndim <= axis < data.ndim):
        raise ShapeError(f"reduce: axis {axis} invalid for shape {data.shape}")
    out = data.sum(axis=axis, keepdims=keepdims)
    count = data.size if axis is None else data.shape[axis]
    if kind == "mean":
        out = out / count

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        g = np.broadcast_to(g, data.shape)
        if kind == "mean":
            g = g / count
        return (g,)

    return _result(out, (x,), backward_fn, "reduce_" + kind)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat: empty list")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(data, tuple(parts), backward_fn, "concat")


def _dropout_keep(shape, dtype, rate: float, training: bool, rng) -> np.ndarray | None:
    """dropout's mask for this shape: 1/(1-rate) where kept, 0 where dropped; None when dropout is the identity."""
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
    keep = _dropout_keep(x.data.shape, x.data.dtype, rate, training, rng)
    if keep is None:
        return x

    def backward_fn(g):
        return (g * keep,)

    return _result(x.data * keep, (x,), backward_fn, "dropout")


def self_attention(x: Tensor, key_bias: np.ndarray, Wq: Tensor, bq: Tensor, Wk: Tensor,
                   Wv: Tensor, bv: Tensor, Wo: Tensor, bo: Tensor, heads: int, rate: float,
                   training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over K x S x d, as one tape node.

    key_bias (see mask_bias) broadcasts to the K x heads x S x S scores.
    Dropout, as in dropout(), hits the attention weights and then the
    output, drawing from rng in that order. The backward pass is written
    out by hand; its weight gradients are single GEMMs over all K*S rows.
    Without a gradient to record, the dropped weights overwrite the probabilities.
    """
    inputs = (x, Wq, bq, Wk, Wv, bv, Wo, bo)
    reuse = not _needs_grad(inputs)  # no backward reads the intermediates
    xd = x.data
    k_batch, seq, d = xd.shape
    dk = d // heads
    alpha = 1.0 / math.sqrt(dk)

    def split(t):  # K x S x d -> K x heads x S x dk, a view
        return t.reshape(k_batch, seq, heads, dk).transpose(0, 2, 1, 3)

    def merge(t):  # K x heads x S x dk -> (K*S) x d
        return t.transpose(0, 2, 1, 3).reshape(k_batch * seq, d)

    q = xd @ Wq.data
    q += bq.data
    q = split(q)
    k = split(xd @ Wk.data)
    v = xd @ Wv.data
    v += bv.data
    v = split(v)
    probs = q @ k.swapaxes(-1, -2)  # the scores, exponentiated and normalized in place
    probs *= alpha
    probs += key_bias
    # row maxima (exact in any order) from a key-major copy: one reduction, not one per short row
    probs -= np.maximum.reduce(probs.transpose(3, 0, 1, 2).copy(), axis=0)[..., None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep_p = _dropout_keep(probs.shape, xd.dtype, rate, training, rng)
    weights = probs if keep_p is None else np.multiply(probs, keep_p, out=probs if reuse else None)
    ctx = merge(weights @ v)
    out = ctx.reshape(xd.shape) @ Wo.data
    out += bo.data
    keep_o = _dropout_keep(out.shape, xd.dtype, rate, training, rng)
    if keep_o is not None:
        out *= keep_o

    def backward_fn(g):
        if keep_o is not None:
            g = g * keep_o
        g = g.reshape(k_batch * seq, d)
        gctx = split(g @ Wo.data.T)
        gscores = gctx @ v.swapaxes(-1, -2)  # the weights' gradient, turned into the scores' in place
        if keep_p is not None:
            gscores *= keep_p
        gscores -= np.sum(gscores * probs, axis=-1, keepdims=True)
        gscores *= probs
        gscores *= alpha
        gq = merge(gscores @ k)
        gk = merge(gscores.swapaxes(-1, -2) @ q)
        gv = merge(weights.swapaxes(-1, -2) @ gctx)
        x2 = xd.reshape(k_batch * seq, d)
        gx = gq @ Wq.data.T
        gx += gk @ Wk.data.T
        gx += gv @ Wv.data.T
        return (gx.reshape(xd.shape), x2.T @ gq, gq.sum(axis=0), x2.T @ gk, x2.T @ gv,
                gv.sum(axis=0), ctx.T @ g, g.sum(axis=0))

    return _result(out, inputs, backward_fn, "self_attention")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def feed_forward(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor, rate: float,
                 training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """dropout(gelu(x W1 + b1) W2 + b2) over x's last axis, as one tape node.

    GELU is the tanh approximation; dropout is as in dropout(). The
    backward pass is written out by hand; its weight gradients are
    single GEMMs over all rows of x. Without a gradient to record, the
    activation overwrites the pre-activation.
    """
    inputs = (x, W1, b1, W2, b2)
    reuse = not _needs_grad(inputs)  # no backward reads the intermediates
    xd = x.data
    h = np.matmul(xd, W1.data)
    h += b1.data
    t = h * h  # tanh(C (h + 0.044715 h^3)), built in place
    t *= h
    t *= 0.044715
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    act = np.multiply(h, 0.5, out=h if reuse else None)  # (0.5 h) (1 + t)
    act *= np.add(t, 1.0, out=t if reuse else None)
    out = np.matmul(act, W2.data)
    out += b2.data
    keep = _dropout_keep(out.shape, out.dtype, rate, training, rng)
    if keep is not None:
        out *= keep

    def backward_fn(g):
        if keep is not None:
            g = g * keep
        g = g.reshape(-1, g.shape[-1])  # one row per position of x
        n = len(g)
        h2, t2 = h.reshape(n, -1), t.reshape(n, -1)
        # gelu' = 0.5 (1 + t) + (0.5 h) (1 - t^2) (C (1 + 3 * 0.044715 h^2)), in that association
        dgelu = np.multiply(h2, 0.5)
        s = np.multiply(t2, t2)
        dgelu *= np.subtract(1.0, s, out=s)
        np.multiply(h2, 3 * 0.044715, out=s)
        s *= h2
        s += 1.0
        s *= _GELU_C
        dgelu *= s
        np.add(t2, 1.0, out=s)
        s *= 0.5
        dgelu += s
        gh = g @ W2.data.T
        gh *= dgelu
        return ((gh @ W1.data.T).reshape(xd.shape), xd.reshape(n, -1).T @ gh, gh.sum(axis=0),
                act.reshape(n, -1).T @ g, g.sum(axis=0))

    return _result(out, inputs, backward_fn, "feed_forward")


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


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; gradients scatter-add back."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: ids outside [0, {table.data.shape[0]}) in lookup"
        )

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _result(table.data[ids], (table,), backward_fn, "embedding")


def add_layernorm(a: Tensor, b: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize a + b (broadcast) over the last axis, then apply a learned gain and bias; one tape node.

    Without a gradient to record, the normalized values and then the output overwrite the sum.
    """
    inputs = (a, b, gain, bias)
    reuse = not _needs_grad(inputs)  # no backward reads the intermediates
    try:
        xc = a.data + b.data
    except ValueError:
        raise ShapeError(f"add_layernorm: cannot broadcast {a.data.shape} with {b.data.shape}")
    dim = xc.shape[-1]
    # np.add.reduce / dim is .mean()'s own arithmetic, without its Python wrapper
    xc -= np.add.reduce(xc, axis=-1, keepdims=True) / dim
    sq = xc * xc
    std = np.add.reduce(sq, axis=-1, keepdims=True) / dim
    std += eps
    np.sqrt(std, out=std)
    xhat = np.divide(xc, std, out=xc if reuse else sq)
    data = np.multiply(xhat, gain.data, out=xhat if reuse else None)
    data += bias.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        s = g * xhat
        dgain = s.sum(axis=lead)
        dbias = g.sum(axis=lead)
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
        return _unbroadcast(dx, a.data.shape), _unbroadcast(dx, b.data.shape), dgain, dbias

    return _result(data, inputs, backward_fn, "add_layernorm")


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
    data = np.asarray(
        sum(float(np.sum(p.data * p.data)) for p in params),
        dtype=params[0].data.dtype,
    )

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
            if g is not None and parent.requires_grad:
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
    per_parameter_errors: dict[str, float] = field(default_factory=dict)
    step_size: float = 1e-5

    def format(self) -> str:
        lines = [f"step_size={self.step_size!r}"]
        for name, err in sorted(self.per_parameter_errors.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name}: rel_err={err:.3e}")
        lines.append(f"max_relative_error={self.max_relative_error:.3e}")
        return "\n".join(lines)


def grad_check(fn, params, step: float = 1e-5) -> GradCheckReport:
    """Compare backward() gradients of fn() against central differences.

    fn must be a deterministic closure over params returning a scalar
    Tensor. Each parameter coordinate is perturbed by +-step and the
    per-parameter error is ||g_analytic - g_numeric|| / (||g_analytic|| +
    ||g_numeric||): 0 when both norms are 0, inf when it is not finite (a NaN
    would pass any threshold test and upset max). The finite-difference forwards run with
    each parameter's requires_grad off (restored after, also if fn raises): no tape.
    """
    named = list(params.items()) if isinstance(params, dict) else list(params)
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
