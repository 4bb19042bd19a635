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
FFN_MULT = 4  # BERT's feed-forward width, 4 d
LAYER_NORM_EPS = 1e-12  # BERT's


@dataclass
class EncoderConfig:
    vocab_size: int
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_positions: int = 512
    backend: str = BACKEND  # the only encoder; kept as a checkpoint header field
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "d", "n_layers", "n_heads", "max_positions"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value > 0):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.backend != BACKEND:
            raise ValueError(f"unknown encoder backend {self.backend!r}; expected {BACKEND!r}")
        if not (isinstance(self.dropout, (int, float)) and not isinstance(self.dropout, bool)
                and 0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")


@dataclass
class EncoderOutput:
    tokens: Tensor  # K x S x d, PAD rows zeroed
    pooled: Tensor  # K x d, from the leading CLS position


# a parameter's name, shape and initializer: "normal" draws N(0, INIT_STD)
# from the rng, "zeros" and "ones" draw nothing
ParamSpec = tuple[str, tuple[int, ...], str]


def param_specs(config: EncoderConfig) -> list[ParamSpec]:
    """The encoder's parameters in checkpoint order."""
    d, f = config.d, FFN_MULT * config.d
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
        else:  # "zeros" or "ones"
            data = np.full(shape, init == "ones", dtype=dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _self_attention(x, key_bias, params, prefix, config, training, rng):
    weights = (params[prefix + "attn." + name] for name in ("Wq", "bq", "Wk", "Wv", "bv", "Wo", "bo"))
    return ad.self_attention(x, key_bias, *weights, config.n_heads, config.dropout, training, rng)


def _feed_forward(x, params, prefix, config, training, rng):
    weights = (params[prefix + "ffn." + name] for name in ("W1", "b1", "W2", "b2"))
    return ad.feed_forward(x, *weights, config.dropout, training, rng)


def _encoder_layer(x, key_bias, params, prefix, config, training, rng):
    attn = _self_attention(x, key_bias, params, prefix, config, training, rng)
    x = ad.add_layernorm(x, attn, params[prefix + "ln1.g"], params[prefix + "ln1.b"], LAYER_NORM_EPS)
    h = _feed_forward(x, params, prefix, config, training, rng)
    return ad.add_layernorm(x, h, params[prefix + "ln2.g"], params[prefix + "ln2.b"], LAYER_NORM_EPS)


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
    x = ad.add_layernorm(x, ad.slice_axis(params["pos_emb"], 0, 0, seq), params["emb_ln.g"], params["emb_ln.b"],
                         LAYER_NORM_EPS)
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
    return ad.tanh(ad.add(ad.matmul(cls_vector, params["pooler.W"]), params["pooler.b"]))


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
