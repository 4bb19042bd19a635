"""Shared-weight encoder: token ids -> per-token vectors + a pooled sentence vector.

The same parameter set encodes documents and the joint label sequence,
so both land in one latent space: a small transformer (embeddings, masked
multi-head self-attention, feed-forward, post-layer norms, pooler).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02
BACKEND = "mini-transformer"


@dataclass
class EncoderConfig:
    vocab_size: int
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int | None = None  # defaults to 4*d
    max_positions: int = 512
    backend: str = BACKEND  # the only encoder; kept as a checkpoint header field
    dropout: float = 0.1
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.d
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.backend != BACKEND:
            raise ValueError(f"unknown encoder backend {self.backend!r}; expected {BACKEND!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class EncoderOutput:
    tokens: Tensor  # K x S x d, PAD rows zeroed
    pooled: Tensor  # K x d, from the leading CLS position


# a parameter's name, shape and initializer: "normal" draws N(0, INIT_STD)
# from the rng, "zeros" and "ones" draw nothing
ParamSpec = tuple[str, tuple[int, ...], str]


def param_specs(config: EncoderConfig) -> list[ParamSpec]:
    """The encoder's parameters in checkpoint order."""
    d, f = config.d, config.ffn_dim
    specs = [("token_emb", (config.vocab_size, d), "normal"), ("pos_emb", (config.max_positions, d), "normal"),
             ("emb_ln.g", (d,), "ones"), ("emb_ln.b", (d,), "zeros")]
    for i in range(config.n_layers):
        p = f"layer{i}."
        specs += [(p + "attn." + name, (d, d), "normal") for name in ("Wq", "Wk", "Wv", "Wo")]
        # no key bias: softmax scores are invariant to a constant shift
        # per query, so a key bias would be permanently dead weight
        specs += [(p + "attn." + name, (d,), "zeros") for name in ("bq", "bv", "bo")]
        specs += [(p + "ln1.g", (d,), "ones"), (p + "ln1.b", (d,), "zeros"),
                  (p + "ffn.W1", (d, f), "normal"), (p + "ffn.b1", (f,), "zeros"),
                  (p + "ffn.W2", (f, d), "normal"), (p + "ffn.b2", (d,), "zeros"),
                  (p + "ln2.g", (d,), "ones"), (p + "ln2.b", (d,), "zeros")]
    return specs + [("pooler.W", (d, d), "normal"), ("pooler.b", (d,), "zeros")]


def init_params(specs: list[ParamSpec], rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Trainable tensors for the specs, drawn from rng in spec order."""
    params: dict[str, Tensor] = {}
    for name, shape, init in specs:
        if init == "normal":
            data = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=dtype)
        else:
            raise ValueError(f"unknown initializer {init!r} for parameter {name}")
        params[name] = Tensor(data, requires_grad=True)
    return params


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def _self_attention(x, key_bias, params, prefix, config, training, rng):
    weights = (params[prefix + "attn." + name] for name in ("Wq", "bq", "Wk", "Wv", "bv", "Wo", "bo"))
    return ad.self_attention(x, key_bias, *weights, config.n_heads, config.dropout, training, rng)


def _encoder_layer(x, key_bias, params, prefix, config, training, rng):
    attn = _self_attention(x, key_bias, params, prefix, config, training, rng)
    x = ad.layernorm(ad.add(x, attn), params[prefix + "ln1.g"], params[prefix + "ln1.b"], config.layer_norm_eps)
    h = _linear(ad.gelu(_linear(x, params[prefix + "ffn.W1"], params[prefix + "ffn.b1"])),
                params[prefix + "ffn.W2"], params[prefix + "ffn.b2"])
    h = ad.dropout(h, config.dropout, training, rng)
    return ad.layernorm(ad.add(x, h), params[prefix + "ln2.g"], params[prefix + "ln2.b"], config.layer_norm_eps)


def encode(
    token_ids: np.ndarray,
    pad_mask: np.ndarray,
    config: EncoderConfig,
    params: dict[str, Tensor],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Encode a padded id matrix into per-token vectors and a pooled vector."""
    ids = np.asarray(token_ids)
    mask = np.asarray(pad_mask, dtype=bool)
    if ids.shape != mask.shape:
        raise ad.ShapeError(f"encode: ids {ids.shape} vs mask {mask.shape}")
    k_batch, seq = ids.shape
    if seq > config.max_positions:
        raise ValueError(
            f"encode: sequence length {seq} exceeds max_positions {config.max_positions}"
        )

    x = ad.embedding(params["token_emb"], ids)
    x = ad.add(x, ad.slice_axis(params["pos_emb"], 0, 0, seq))
    x = ad.layernorm(x, params["emb_ln.g"], params["emb_ln.b"], config.layer_norm_eps)
    x = ad.dropout(x, config.dropout, training, rng)
    # PAD keys get exactly zero weight in every layer
    key_bias = ad.mask_bias(mask, x.dtype)[:, None, None, :]
    for i in range(config.n_layers):
        x = _encoder_layer(x, key_bias, params, f"layer{i}.", config, training, rng)
    # zero PAD rows so padded ids cannot leak into anything downstream
    x = ad.mul(x, Tensor(mask[:, :, None].astype(x.data.dtype)))
    cls = ad.reshape(ad.slice_axis(x, 1, 0, 1), (k_batch, config.d))
    return EncoderOutput(tokens=x, pooled=pooler(cls, params))


def pooler(cls_vector: Tensor, params: dict[str, Tensor]) -> Tensor:
    """tanh(cls . W + b), the sentence-level vector."""
    return ad.tanh(_linear(cls_vector, params["pooler.W"], params["pooler.b"]))


def pool_label_vectors(label_output: EncoderOutput, spans: list[tuple[int, int]]) -> Tensor:
    """Mean of the token vectors inside each label's span -> K x L x d."""
    parts = []
    seq = label_output.tokens.shape[1]
    for start, stop in spans:
        if not (0 <= start < stop <= seq):
            raise ValueError(f"pool_label_vectors: empty or invalid span ({start}, {stop})")
        seg = ad.slice_axis(label_output.tokens, 1, start, stop)
        parts.append(ad.reduce(seg, axis=1, kind="mean", keepdims=True))
    return ad.concat(parts, axis=1)


def encode_labels_once(
    label_ids,
    config: EncoderConfig,
    params: dict[str, Tensor],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Encode the shared label sequence a single time (batch of one).

    The label sequence is sample-independent, so callers broadcast this
    across the batch; gradients from every sample then accumulate into
    the same shared encoder parameters.
    """
    ids = np.asarray(label_ids)[None, :]
    return encode(ids, np.ones_like(ids, dtype=bool), config, params, training, rng)
