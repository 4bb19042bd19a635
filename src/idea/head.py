"""Interactive double attentions, weighted similarity features and the classifier.

Text attention scores each document token against the label sequence's
pooled vector; label attention scores each class vector against the
document's pooled vector. The two attended vectors are compared through
an elementwise product and an absolute difference, mixed by a softmax of
their feature means, and concatenated into the classifier input z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ABLATION_MODES = ("full", "only_text_features", "only_fusing", "no_abs_diff", "no_ele_prod")
_WIDTH_FACTOR = {
    "full": 4,
    "only_text_features": 1,
    "only_fusing": 2,
    "no_abs_diff": 3,
    "no_ele_prod": 3,
}

GAMMA_MODES = ("per-sample", "per-batch-literal")


@dataclass(frozen=True)
class AblationConfig:
    """Selects which feature blocks enter z."""

    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {self.mode!r}; expected one of {ABLATION_MODES}")

    def z_width(self, d: int) -> int:
        return _WIDTH_FACTOR[self.mode] * d


@dataclass
class AttentionParams:
    W_m: Tensor  # d x d, text-token scores against the label pooled vector
    b_m: Tensor  # scalar
    W_t: Tensor  # d x d, label-vector scores against the text pooled vector
    b_t: Tensor  # scalar

    def __post_init__(self):
        for name in ("W_m", "W_t"):
            w = getattr(self, name)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ad.ShapeError(f"{name} must be square d x d, got {w.shape}")
        if self.W_m.shape != self.W_t.shape:
            raise ad.ShapeError(
                f"W_m {self.W_m.shape} and W_t {self.W_t.shape} must match"
            )


@dataclass
class IdeaFeatures:
    """Intermediate head products for one forward pass."""

    alpha: Tensor  # K x N text attention
    beta: Tensor  # K x L label attention
    c: Tensor  # K x d attended text features
    s: Tensor  # K x d attended label features
    p: Tensor  # K x d elementwise product
    d_feat: Tensor  # K x d absolute difference
    gamma: Tensor  # K product-block weights in (0, 1)
    z: Tensor  # K x width fused classifier input


def init_head_params(d: int, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    std = 0.02
    return {
        "attn.W_m": Tensor(rng.normal(0.0, std, size=(d, d)).astype(dtype), requires_grad=True),
        "attn.b_m": Tensor(np.zeros((), dtype=dtype), requires_grad=True),
        "attn.W_t": Tensor(rng.normal(0.0, std, size=(d, d)).astype(dtype), requires_grad=True),
        "attn.b_t": Tensor(np.zeros((), dtype=dtype), requires_grad=True),
    }


def init_classifier_params(
    z_width: int,
    n_classes: int,
    rng: np.random.Generator,
    dtype=np.float32,
    init: str = "zeros",
) -> dict[str, Tensor]:
    if init == "zeros":
        w = np.zeros((z_width, n_classes), dtype=dtype)
    elif init == "normal":
        w = rng.normal(0.0, 0.02, size=(z_width, n_classes)).astype(dtype)
    else:
        raise ValueError(f"unknown classifier init {init!r}")
    return {
        "clf.W": Tensor(w, requires_grad=True),
        "clf.b": Tensor(np.zeros(n_classes, dtype=dtype), requires_grad=True),
    }


def text_attention(
    text_tokens: Tensor,
    m_global: Tensor,
    params: AttentionParams,
    pad_mask: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Attend over document tokens, scored against the label pooled vector.

    score_j = tanh(t_j . W_m . m_global + b_m); alpha is the masked
    softmax of the scores over token positions; c is the alpha-weighted
    sum of the same token vectors. text_tokens must already exclude the
    CLS/SEP positions (the mask rules out PAD and any stray specials).
    """
    k_batch, n_tok, d = text_tokens.shape
    if m_global.shape != (k_batch, d):
        raise ad.ShapeError(
            f"text_attention: tokens {text_tokens.shape} vs global {m_global.shape}"
        )
    projected = ad.matmul(text_tokens, params.W_m)  # K x N x d
    raw = ad.reshape(
        ad.matmul(projected, ad.reshape(m_global, (k_batch, d, 1))), (k_batch, n_tok)
    )
    scores = ad.tanh(ad.add(raw, params.b_m))
    alpha = ad.softmax(scores, axis=1, mask=pad_mask)
    c = ad.reshape(
        ad.matmul(ad.reshape(alpha, (k_batch, 1, n_tok)), text_tokens), (k_batch, d)
    )
    return alpha, c


def label_attention(
    label_vectors: Tensor,
    t_global: Tensor,
    params: AttentionParams,
) -> tuple[Tensor, Tensor]:
    """Attend over the per-class vectors, scored against the text pooled vector.

    Mirror image of text_attention with the roles swapped; no mask, every
    class is always present.
    """
    k_batch, n_labels, d = label_vectors.shape
    if n_labels < 1:
        raise ValueError("label_attention: need at least one label")
    if t_global.shape != (k_batch, d):
        raise ad.ShapeError(
            f"label_attention: labels {label_vectors.shape} vs global {t_global.shape}"
        )
    projected = ad.matmul(label_vectors, params.W_t)
    raw = ad.reshape(
        ad.matmul(projected, ad.reshape(t_global, (k_batch, d, 1))), (k_batch, n_labels)
    )
    scores = ad.tanh(ad.add(raw, params.b_t))
    beta = ad.softmax(scores, axis=1)
    s = ad.reshape(
        ad.matmul(ad.reshape(beta, (k_batch, 1, n_labels)), label_vectors), (k_batch, d)
    )
    return beta, s


def similarity_features(c: Tensor, s: Tensor) -> tuple[Tensor, Tensor]:
    """Elementwise product and absolute difference of the attended vectors."""
    return ad.mul(c, s), ad.abs_diff(c, s)


def weighted_features(
    p: Tensor, d_feat: Tensor, gamma_mode: str = "per-sample"
) -> tuple[Tensor, Tensor, Tensor]:
    """Mix the similarity blocks: gamma scales p, eta = 1 - gamma scales d.

    gamma = exp(mean(d)) / (exp(mean(p)) + exp(mean(d))), computed per
    sample over the feature dimension by default. "per-batch-literal"
    instead sums each block over the batch before averaging, yielding one
    shared weight per batch (kept only for comparison runs; it makes a
    sample's features depend on its batch neighbours).
    """
    if p.shape != d_feat.shape:
        raise ad.ShapeError(f"weighted_features: shapes {p.shape} and {d_feat.shape} differ")
    if gamma_mode not in GAMMA_MODES:
        raise ValueError(f"unknown gamma mode {gamma_mode!r}; expected one of {GAMMA_MODES}")
    k_batch = p.shape[0]
    if gamma_mode == "per-sample":
        mean_p = ad.reduce(p, axis=1, kind="mean", keepdims=True)  # K x 1
        mean_d = ad.reduce(d_feat, axis=1, kind="mean", keepdims=True)
        pair = ad.softmax(ad.concat([mean_p, mean_d], axis=1), axis=1)  # K x 2
        gamma = ad.slice_axis(pair, 1, 1, 2)  # K x 1
    else:
        mean_p = ad.reshape(ad.reduce(ad.reduce(p, axis=0, kind="sum"), kind="mean"), (1, 1))
        mean_d = ad.reshape(ad.reduce(ad.reduce(d_feat, axis=0, kind="sum"), kind="mean"), (1, 1))
        pair = ad.softmax(ad.concat([mean_p, mean_d], axis=1), axis=1)  # 1 x 2
        gamma = ad.slice_axis(pair, 1, 1, 2)  # 1 x 1
    # eta computed as 1 - gamma so the pair sums to exactly 1.0
    eta = ad.add(Tensor(np.ones((1, 1), dtype=gamma.dtype)), ad.scale(gamma, -1.0))
    p_weighted = ad.mul(gamma, p)
    d_weighted = ad.mul(eta, d_feat)
    gamma_flat = ad.reshape(ad.broadcast_to(gamma, (k_batch, 1)), (k_batch,))
    return p_weighted, d_weighted, gamma_flat


def assemble_z(
    c: Tensor,
    p_weighted: Tensor,
    d_weighted: Tensor,
    s: Tensor,
    ablation: AblationConfig,
) -> Tensor:
    """Concatenate the feature blocks selected by the ablation mode."""
    for name, t in (("c", c), ("p_weighted", p_weighted), ("d_weighted", d_weighted), ("s", s)):
        if t.shape != c.shape:
            raise ad.ShapeError(f"assemble_z: {name} has shape {t.shape}, expected {c.shape}")
    blocks = {
        "full": [c, p_weighted, d_weighted, s],
        "only_text_features": [c],
        "only_fusing": [p_weighted, d_weighted],
        "no_abs_diff": [c, p_weighted, s],
        "no_ele_prod": [c, d_weighted, s],
    }[ablation.mode]
    if len(blocks) == 1:
        return blocks[0]
    return ad.concat(blocks, axis=1)


def classify(z: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Single linear layer mapping z to class logits."""
    if z.shape[1] != weight.shape[0]:
        raise ad.ShapeError(
            f"classify: z width {z.shape[1]} does not match classifier weight "
            f"{weight.shape} (ablation mode changed after initialization?)"
        )
    return ad.add(ad.matmul(z, weight), bias)


def predict(logits: Tensor) -> Tensor:
    """Row-softmax of the logits."""
    return ad.softmax(logits, axis=1)


def idea_loss(logits: Tensor, gold, reg_params: list[Tensor], lambda_l2: float) -> Tensor:
    """Mean cross-entropy plus (lambda/2) * squared Frobenius norm of the weights."""
    if lambda_l2 < 0:
        raise ValueError(f"idea_loss: lambda_l2 must be >= 0, got {lambda_l2}")
    ce = ad.cross_entropy(logits, gold)
    if lambda_l2 == 0 or not reg_params:
        return ce
    return ad.add(ce, ad.scale(ad.frobenius_sq(reg_params), lambda_l2 / 2.0))
