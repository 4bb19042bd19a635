"""Full classifier: siamese encoder + double-attention head + checkpoint I/O."""
from __future__ import annotations

import copy
import json
import math
import os
import zlib
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from . import head as hd
from .autodiff import Tensor
from .data import SEP, Batch, LabelSet, Vocab, atomic_open, check_label_sequence_length, label_sequence
from .encoder import (
    EncoderConfig,
    ParamSpec,
    encode,
    encode_groups,
    init_params,
    label_group,
    param_specs,
    pool_label_vectors,
)
from .head import AblationConfig, AttentionParams, IdeaFeatures, idea_loss

CHECKPOINT_MAGIC = b"IDEACKP2"


class IdeaModel:
    """Bundles the shared encoder, head and classifier parameters.

    The vocabulary and the label sequence it encodes are fixed at
    construction; every forward pass encodes that sequence once, in the
    documents' encoder pass, and broadcasts it across the batch. A frozen model (from load or frozen())
    only infers: its parameters are views of one array over immutable bytes and
    need no gradient, so a forward records no tape, and it keeps its label
    sequence's encoding while every parameter is still the view it was frozen with.
    """

    def __init__(
        self,
        encoder_config: EncoderConfig,
        label_names: list[str],
        vocab: Vocab,
        ablation: AblationConfig = AblationConfig("full"),
        gamma_mode: str = hd.GAMMA_MODE,
        dtype=np.float32,
        rng: np.random.Generator | None = None,
        params: dict[str, Tensor] | None = None,
    ):
        if gamma_mode != hd.GAMMA_MODE:
            raise ValueError(f"unknown gamma mode {gamma_mode!r}; expected {hd.GAMMA_MODE!r}")
        self.encoder_config = encoder_config
        self.label_names = list(label_names)
        labels = LabelSet(self.label_names)
        check_label_sequence_length(labels, encoder_config.max_positions)
        if len(vocab) != encoder_config.vocab_size:
            raise ValueError(f"vocab has {len(vocab)} tokens but vocab_size is {encoder_config.vocab_size}")
        self.vocab = vocab
        tokens, self.label_spans = label_sequence(labels)
        missing = set(tokens) - vocab.token_to_id.keys()  # a label name's token, or the "," between names
        if missing:
            raise ValueError(f"vocab lacks the label tokens {sorted(missing)}")
        self.label_ids = np.asarray(vocab.encode(tokens), dtype=np.int64)
        self.ablation = ablation
        self.gamma_mode = gamma_mode
        self.dtype = np.dtype(dtype)
        self.n_classes = len(label_names)
        if params is None:
            params = init_params(self.param_specs(), rng or np.random.default_rng(0), dtype)
        self.params = params
        self.is_frozen = False
        self._views: tuple[np.ndarray, ...] = ()  # a frozen model's parameter views, from _freeze
        self._labels: tuple[Tensor, Tensor] | None = None  # its label encoding, valid while params are _views

    def param_specs(self) -> list[ParamSpec]:
        """Every parameter's (name, shape, initializer), in checkpoint order."""
        d = self.encoder_config.d
        return param_specs(self.encoder_config) + hd.param_specs(d, self.ablation.z_width(d), self.n_classes)

    @classmethod
    def build(cls, encoder_config, labels: LabelSet, vocab: Vocab, **kwargs) -> "IdeaModel":
        return cls(encoder_config, labels.names, vocab, **kwargs)

    def attention_params(self) -> AttentionParams:
        return AttentionParams(*(self.params["attn." + name] for name in ("W_m", "b_m", "W_t", "b_t")))

    def reg_params(self) -> list[Tensor]:
        # weight matrices only: the two attention bilinear forms and the classifier
        return [self.params["attn.W_m"], self.params["attn.W_t"], self.params["clf.W"]]

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(
        self,
        token_ids: np.ndarray,
        pad_mask: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, IdeaFeatures]:
        ids = np.asarray(token_ids)
        mask = np.asarray(pad_mask, dtype=bool)
        if training and self.is_frozen:
            raise ValueError("a frozen model cannot run a training forward; train a trainable model")
        enc, (lab_pooled, lab_vecs) = self._encode(ids, mask, training, rng)
        # query vectors: token positions only (drop CLS, mask out SEP and PAD)
        query_mask = mask[:, 1:] & (ids[:, 1:] != SEP)
        z_shape = (ids.shape[0], self.ablation.z_width(self.encoder_config.d))
        keep = ad.dropout_mask(z_shape, enc.tokens.dtype, self.encoder_config.dropout, training, rng)
        weights = (self.params[name] for name in ("attn.W_m", "attn.b_m", "attn.W_t", "attn.b_t", "clf.W", "clf.b"))
        logits, feats = ad.double_attention(enc.tokens, enc.pooled, lab_pooled, lab_vecs, *weights, query_mask,
                                            self.ablation.blocks, keep)
        return logits, IdeaFeatures(*feats)

    def _encode(self, ids, mask, training: bool, rng):
        """The documents' encoding, and the label sequence's pooled vector and per-label vectors.

        Both are encoded in one pass, unless the label encoding is kept: a
        frozen model keeps it while its parameters are the views _freeze made,
        which no write can reach.
        """
        kept = self.is_frozen and all(p.data is a for p, a in zip(self.params.values(), self._views))
        if kept and self._labels is not None:
            return encode(ids, mask, self.encoder_config, self.params, training, rng), self._labels
        enc, lab = encode_groups([(ids, mask), label_group(self.label_ids)], self.encoder_config, self.params,
                                 training, rng)
        labels = lab.pooled, pool_label_vectors(lab, self.label_spans)
        if kept:
            self._labels = labels
        return enc, labels

    def frozen(self) -> "IdeaModel":
        """A shallow inference copy whose parameters are views of one array over bytes; self if already frozen."""
        if self.is_frozen:
            return self
        flat = np.concatenate([self.params[name].data.ravel() for name, _, _ in self.param_specs()])
        return copy.copy(self)._freeze(flat)

    def _freeze(self, flat: np.ndarray) -> "IdeaModel":
        """Make flat, every parameter in param_specs order, this model's read-only parameters; mark it frozen."""
        if not isinstance(flat.base, bytes):  # an array over bytes, and every view of it, can never be made writable
            flat = np.frombuffer(flat.tobytes(), flat.dtype)
        self.params, start = {}, 0
        for name, shape, _ in self.param_specs():
            end = start + math.prod(shape)
            self.params[name] = Tensor(flat[start:end].reshape(shape))
            start = end
        self._views = tuple(p.data for p in self.params.values())
        self.is_frozen = True
        return self

    def loss(
        self,
        batch: Batch,
        lambda_l2: float,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor, IdeaFeatures]:
        logits, feats = self.forward(batch.token_ids, batch.pad_mask, training, rng)
        return idea_loss(logits, batch.gold, self.reg_params(), lambda_l2), logits, feats

    # -- checkpointing ------------------------------------------------------

    def save(self, path) -> None:
        """Named parameters as raw little-endian float32, after a JSON header with their CRC-32."""
        params = [(name, self.params[name].data) for name, _, _ in self.param_specs()]  # the order load reads
        body = np.concatenate([data.ravel() for _, data in params], dtype="<f4", casting="unsafe")
        header = {
            "encoder": asdict(self.encoder_config),
            "ablation": self.ablation.mode,
            "crc32": zlib.crc32(body),
            "label_names": self.label_names,
            "vocab": self.vocab.id_to_token,
            "params": [{"name": name, "shape": list(data.shape)} for name, data in params],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with atomic_open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            fh.write(body)

    @classmethod
    def load(cls, path, dtype=np.float32) -> "IdeaModel":
        """A frozen model from a checkpoint written by save; any damage raises a ValueError naming the file."""
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic == b"IDEACKP1":  # its header also recorded gamma_mode and two encoder constants
                raise ValueError(f"{path}: checkpoint format {magic.decode()} is older than this program's "
                                 f"{CHECKPOINT_MAGIC.decode()}; retrain the model")
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a model checkpoint")
            size = int.from_bytes(fh.read(8), "little")
            if size > os.fstat(fh.fileno()).st_size - fh.tell():  # also before a damaged size is allocated
                raise ValueError(f"{path}: truncated checkpoint header")
            blob = fh.read(size)
            try:
                header = json.loads(blob.decode("utf-8"))
                model = cls(
                    EncoderConfig(**header["encoder"]),
                    header["label_names"],
                    Vocab(header["vocab"]),
                    ablation=AblationConfig(header["ablation"]),
                    dtype=dtype,
                    params={},
                )
                specs = model.param_specs()
                _check_param_list(header["params"], specs)
                want_crc = header["crc32"]
            except KeyError as exc:
                raise ValueError(f"{path}: checkpoint header lacks key {exc}") from None
            except (TypeError, ValueError) as exc:  # also bad UTF-8 or JSON, a rejected value
                raise ValueError(f"{path}: bad checkpoint header: {exc}") from None
            n = sum(math.prod(shape) for _, shape, _ in specs)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left != 4 * n:  # before the body is allocated, however large the header says it is
                raise ValueError(f"{path}: {'truncated' if left < 4 * n else 'trailing bytes in'} checkpoint: "
                                 f"the header's parameters need {4 * n} bytes, found {left}")
            body = fh.read(4 * n)
        crc = zlib.crc32(body)
        if crc != want_crc:
            raise ValueError(f"{path}: damaged checkpoint: parameter bytes have CRC-32 {crc}, "
                             f"the header records {want_crc!r}")
        return model._freeze(np.frombuffer(body, dtype="<f4").astype(dtype, copy=False))  # float32: no copy

    def copy_param_data(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_param_data(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in snapshot.items():
            self.params[name].data[...] = arr


def _check_param_list(listed, specs: list[ParamSpec]) -> None:
    """Raise ValueError at the first entry of a header's params list that differs from specs."""
    want = [{"name": name, "shape": list(shape)} for name, shape, _ in specs]
    for i, (got, expected) in enumerate(zip_longest(listed, want)):
        if got != expected:
            raise ValueError(f"params entry {i} is {'missing' if got is None else repr(got)}; "
                             f"the model the header describes has {expected or 'no such entry'}")
