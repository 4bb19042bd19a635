"""Interactive double attentions, weighted similarity features and the classifier.

Text attention scores each document token against the label sequence's
pooled vector; label attention scores each class vector against the
document's pooled vector. The two attended vectors are compared through
an elementwise product and an absolute difference, mixed by a softmax of
their feature means, and concatenated into the classifier input z.
IdeaModel runs this op chain as one tape node, autodiff.double_attention;
the functions here are the reference it is checked against, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# ablation mode -> the blocks of z in order, drawn from c, gamma*p, eta*d, s
_Z_BLOCKS = {
    "full": ("c", "p_weighted", "d_weighted", "s"),
    "only_text_features": ("c",),
    "only_fusing": ("p_weighted", "d_weighted"),
    "no_abs_diff": ("c", "p_weighted", "s"),
    "no_ele_prod": ("c", "d_weighted", "s"),
}
ABLATION_MODES = tuple(_Z_BLOCKS)

GAMMA_MODE = "per-sample"


@dataclass(frozen=True)
class AblationConfig:
    """Selects which feature blocks enter z."""

    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {self.mode!r}; expected one of {ABLATION_MODES}")

    @property
    def blocks(self) -> tuple[str, ...]:
        """The names of z's blocks, in order."""
        return _Z_BLOCKS[self.mode]

    def z_width(self, d: int) -> int:
        return len(self.blocks) * d


@dataclass
class AttentionParams:
    W_m: Tensor  # d x d, text-token scores against the label pooled vector
    b_m: Tensor  # scalar
    W_t: Tensor  # d x d, label-vector scores against the text pooled vector
    b_t: Tensor  # scalar


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


def param_specs(d: int, z_width: int, n_classes: int) -> list[tuple]:
    """The two bilinear attentions' and the classifier's (name, shape, initializer) specs."""
    return [
        ("attn.W_m", (d, d), "normal"),
        ("attn.b_m", (), "zeros"),
        ("attn.W_t", (d, d), "normal"),
        ("attn.b_t", (), "zeros"),
        ("clf.W", (z_width, n_classes), "zeros"),
        ("clf.b", (n_classes,), "zeros"),
    ]


def _attend(
    vectors: Tensor, query: Tensor, w: Tensor, b: Tensor, bias: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Bilinear attention over the vectors of each sample, scored against its query.

    score_i = tanh(v_i . W . q + b); the weights are the softmax over i of
    the scores plus bias (from ad.mask_bias, if given); the attended vector
    is the weighted sum of the same v_i. Returns (weights K x n, attended K x d).
    """
    k_batch, n, d = vectors.shape
    projected = ad.matmul(vectors, w)  # K x n x d
    raw = ad.reshape(ad.matmul(projected, ad.reshape(query, (k_batch, d, 1))), (k_batch, n))
    scores = ad.tanh(ad.add(raw, b))
    weights = ad.softmax(scores, bias)
    attended = ad.reshape(ad.matmul(ad.reshape(weights, (k_batch, 1, n)), vectors), (k_batch, d))
    return weights, attended


def text_attention(
    text_tokens: Tensor,
    m_global: Tensor,
    params: AttentionParams,
    pad_mask: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Attend over document tokens, scored against the label pooled vector: (alpha, c).

    text_tokens must already exclude the CLS/SEP positions (the mask
    rules out PAD and any stray specials).
    """
    k_batch, _, d = text_tokens.shape
    if m_global.shape != (k_batch, d):
        raise ad.ShapeError(
            f"text_attention: tokens {text_tokens.shape} vs global {m_global.shape}"
        )
    bias = ad.mask_bias(pad_mask, text_tokens.dtype)
    return _attend(text_tokens, m_global, params.W_m, params.b_m, bias)


def label_attention(
    label_vectors: Tensor,
    t_global: Tensor,
    params: AttentionParams,
) -> tuple[Tensor, Tensor]:
    """Attend over the per-class vectors, scored against the text pooled vector: (beta, s).

    No mask: every class is always present.
    """
    k_batch, n_labels, d = label_vectors.shape
    if n_labels < 1:
        raise ValueError("label_attention: need at least one label")
    if t_global.shape != (k_batch, d):
        raise ad.ShapeError(
            f"label_attention: labels {label_vectors.shape} vs global {t_global.shape}"
        )
    return _attend(label_vectors, t_global, params.W_t, params.b_t)


def similarity_features(c: Tensor, s: Tensor) -> tuple[Tensor, Tensor]:
    """Elementwise product and absolute difference of the attended vectors."""
    return ad.mul(c, s), ad.abs_diff(c, s)


def weighted_features(
    p: Tensor, d_feat: Tensor, gamma_mode: str = GAMMA_MODE
) -> tuple[Tensor, Tensor, Tensor]:
    """Mix the similarity blocks: gamma scales p, eta = 1 - gamma scales d.

    gamma = exp(mean(d)) / (exp(mean(p)) + exp(mean(d))), computed per
    sample over the feature dimension, so a sample's weight does not
    depend on its batch neighbours.
    """
    if p.shape != d_feat.shape:
        raise ad.ShapeError(f"weighted_features: shapes {p.shape} and {d_feat.shape} differ")
    if gamma_mode != GAMMA_MODE:
        raise ValueError(f"unknown gamma mode {gamma_mode!r}; expected {GAMMA_MODE!r}")
    mean_p = ad.mean(p)  # K x 1
    mean_d = ad.mean(d_feat)
    pair = ad.softmax(ad.concat([mean_p, mean_d]))  # K x 2
    gamma = ad.slice_axis(pair, 1, 1, 2)  # K x 1
    # eta computed as 1 - gamma so the pair sums to exactly 1.0
    eta = ad.add(Tensor(np.ones((1, 1), dtype=gamma.dtype)), ad.scale(gamma, -1.0))
    p_weighted = ad.mul(gamma, p)
    d_weighted = ad.mul(eta, d_feat)
    return p_weighted, d_weighted, ad.reshape(gamma, (p.shape[0],))


def assemble_z(
    c: Tensor,
    p_weighted: Tensor,
    d_weighted: Tensor,
    s: Tensor,
    ablation: AblationConfig,
) -> Tensor:
    """Concatenate the feature blocks selected by the ablation mode."""
    named = {"c": c, "p_weighted": p_weighted, "d_weighted": d_weighted, "s": s}
    for name, t in named.items():
        if t.shape != c.shape:
            raise ad.ShapeError(f"assemble_z: {name} has shape {t.shape}, expected {c.shape}")
    blocks = [named[name] for name in _Z_BLOCKS[ablation.mode]]
    if len(blocks) == 1:
        return blocks[0]
    return ad.concat(blocks)


def classify(z: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Single linear layer mapping z to class logits."""
    if z.shape[1] != weight.shape[0]:
        raise ad.ShapeError(
            f"classify: z width {z.shape[1]} does not match classifier weight "
            f"{weight.shape} (ablation mode changed after initialization?)"
        )
    return ad.add(ad.matmul(z, weight), bias)


def idea_loss(logits: Tensor, gold, reg_params: list[Tensor], lambda_l2: float) -> Tensor:
    """Mean cross-entropy plus (lambda/2) * squared Frobenius norm of the weights."""
    if lambda_l2 < 0:
        raise ValueError(f"idea_loss: lambda_l2 must be >= 0, got {lambda_l2}")
    ce = ad.cross_entropy(logits, gold)
    if lambda_l2 == 0 or not reg_params:
        return ce
    return ad.add(ce, ad.scale(ad.frobenius_sq(reg_params), lambda_l2 / 2.0))
