"""Reverse-mode automatic differentiation over dense numpy tensors.

A small tape-based engine: every operation returns a new Tensor whose
lineage records the input tensors and a closure mapping the output
gradient to input gradients. backward() walks the tape in reverse
topological order and accumulates into .grad buffers. Only the
operations the classifier actually needs are provided; float64 is used
for gradient checking, float32 is fine for training.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class DegenerateSliceError(ValueError):
    """A softmax slice in which every position is masked out."""


class CyclicLineageError(RuntimeError):
    """The lineage graph contains a cycle (internal bug)."""


class Lineage:
    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense real tensor with a gradient buffer and optional lineage."""

    __slots__ = ("data", "_grad", "requires_grad", "lineage")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
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
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0

    def backward(self):
        backward(self)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, inputs, backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
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


def _unbroadcast_batch(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # like _unbroadcast but leaves the trailing two (matrix) axes alone
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i in range(len(shape) - 2) if shape[i] == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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
        return (
            _unbroadcast_batch(ga, a.data.shape),
            _unbroadcast_batch(gb, b.data.shape),
        )

    return _result(data, (a, b), backward_fn, "matmul")


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward_fn(g):
        return (g * (1.0 - data * data),)

    return _result(data, (x,), backward_fn, "tanh")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * v**3)
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward_fn(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v * v)
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner),)

    return _result(data, (x,), backward_fn, "gelu")


def abs_diff(a: Tensor, b: Tensor) -> Tensor:
    """|a - b| elementwise; the subgradient at ties is taken as 0."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"abs_diff: shapes {a.data.shape} and {b.data.shape} differ")
    diff = a.data - b.data
    sign = np.sign(diff)

    def backward_fn(g):
        return g * sign, -g * sign

    return _result(np.abs(diff), (a, b), backward_fn, "abs_diff")


def softmax(x: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Exp-normalize along an axis, subtracting the slice max for stability.

    mask is boolean with True marking positions that participate; masked
    positions get weight exactly 0 and are excluded from the denominator.
    The mask may be any shape broadcastable to x.
    """
    data = x.data
    if not (-data.ndim <= axis < data.ndim):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {data.shape}")
    if mask is not None:
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        m = np.broadcast_to(m.astype(bool), data.shape)
        if np.any(m.sum(axis=axis) == 0):
            raise DegenerateSliceError(
                "softmax: a slice has every position masked out"
            )
        mx = np.max(np.where(m, data, -np.inf), axis=axis, keepdims=True)
        e = np.where(m, np.exp(np.where(m, data - mx, 0.0)), 0.0)
    else:
        mx = np.max(data, axis=axis, keepdims=True)
        e = np.exp(data - mx)
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
        return (np.ascontiguousarray(g),)

    return _result(out, (x,), backward_fn, "reduce_" + kind)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat: empty list")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _result(data, tuple(parts), backward_fn, "concat")


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Zero a fraction of entries and rescale survivors by 1/(1-rate).

    The identity when training is False or rate is 0.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: an rng is required when training")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    scale_ = 1.0 / (1.0 - rate)

    def backward_fn(g):
        return (g * keep * scale_,)

    return _result(x.data * keep * scale_, (x,), backward_fn, "dropout")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(x.data.shape),)

    return _result(data, (x,), backward_fn, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _result(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward_fn, "transpose")


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


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis, then apply a learned gain and bias."""
    v = x.data
    dim = v.shape[-1]
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = xc / std
    data = xhat * gain.data + bias.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) / (std**3)
        dmu = (-dxhat / std).sum(axis=-1, keepdims=True) + dvar * (-2.0) * xc.mean(
            axis=-1, keepdims=True
        )
        dx = dxhat / std + dvar * 2.0 * xc / dim + dmu / dim
        return dx, dgain, dbias

    return _result(data, (x, gain, bias), backward_fn, "layernorm")


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
                parent.grad += g
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
    ||g_numeric||), 0 when both vanish.
    """
    named = list(params.items()) if isinstance(params, dict) else list(params)
    for _, p in named:
        p.zero_grad()
    backward(fn())
    analytic = {name: p.grad.copy() for name, p in named}

    errors: dict[str, float] = {}
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
        errors[name] = float(np.linalg.norm(a - numeric)) / denom if denom > 0 else 0.0

    return GradCheckReport(
        max_relative_error=max(errors.values()) if errors else 0.0,
        per_parameter_errors=errors,
        step_size=step,
    )
