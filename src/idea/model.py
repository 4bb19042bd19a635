"""Full classifier: siamese encoder + double-attention head + checkpoint I/O."""
from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from . import head as hd
from .autodiff import Tensor
from .data import SEP, UNK, Batch, LabelSet, Vocab, atomic_open, encode_label_sequence, tokenize
from .encoder import (
    EncoderConfig,
    ParamSpec,
    encode,
    encode_labels_once,
    init_params,
    param_specs,
    pool_label_vectors,
)
from .head import AblationConfig, AttentionParams, IdeaFeatures, idea_loss

CHECKPOINT_MAGIC = b"IDEACKP1"


class IdeaModel:
    """Bundles the shared encoder, head and classifier parameters.

    The vocabulary and the label sequence it encodes are fixed at
    construction; every forward pass encodes that sequence once and
    broadcasts it across the batch. A frozen model (from load or frozen())
    only infers: its parameter arrays are read-only and need no gradient, so
    a forward records no tape, and it encodes the label sequence only once.
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
        classifier_init: str = "zeros",
        params: dict[str, Tensor] | None = None,
    ):
        if gamma_mode != hd.GAMMA_MODE:
            raise ValueError(f"unknown gamma mode {gamma_mode!r}; expected {hd.GAMMA_MODE!r}")
        self.encoder_config = encoder_config
        self.label_names = list(label_names)
        for i, name in enumerate(self.label_names):  # each name needs a span in the label sequence
            if not (isinstance(name, str) and tokenize(name)):
                raise ValueError(f"label name {i} must be a string with at least one token, got {name!r}")
        if len(vocab) != encoder_config.vocab_size:
            raise ValueError(f"vocab has {len(vocab)} tokens but vocab_size is {encoder_config.vocab_size}")
        self.vocab = vocab
        labels = LabelSet(self.label_names)
        label_ids, self.label_spans = encode_label_sequence(labels, vocab)
        if UNK in label_ids:  # a label name's token, or the "," between names, is not in the vocab
            missing = {",", *(t for toks in labels.name_tokens() for t in toks)} - vocab.token_to_id.keys()
            raise ValueError(f"vocab lacks the label tokens {sorted(missing)}")
        self.label_ids = np.asarray(label_ids, dtype=np.int64)
        self.ablation = ablation
        self.gamma_mode = gamma_mode
        self.dtype = np.dtype(dtype)
        self.n_classes = len(label_names)
        if params is None:
            params = init_params(self.param_specs(classifier_init), rng or np.random.default_rng(0), dtype)
        self.params = params
        self.is_frozen = False
        self._labels: tuple[Tensor, Tensor] | None = None  # a frozen model's label encoding

    def param_specs(self, classifier_init: str = "zeros") -> list[ParamSpec]:
        """Every parameter's (name, shape, initializer), in checkpoint order."""
        d = self.encoder_config.d
        return param_specs(self.encoder_config) + hd.param_specs(
            d, self.ablation.z_width(d), self.n_classes, classifier_init
        )

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
        k_batch = ids.shape[0]
        d = self.encoder_config.d

        if training and self.is_frozen:
            raise ValueError("a frozen model cannot run a training forward; train a trainable model")
        enc = encode(ids, mask, self.encoder_config, self.params, training, rng)
        lab_pooled, lab_vecs = self._labels or self._encode_labels(training, rng)
        label_vecs = ad.broadcast_to(lab_vecs, (k_batch, self.n_classes, d))
        m_global = ad.broadcast_to(lab_pooled, (k_batch, d))

        # query vectors: token positions only (drop CLS, mask out SEP and PAD)
        text_tokens = ad.slice_axis(enc.tokens, 1, 1, ids.shape[1])
        query_mask = mask[:, 1:] & (ids[:, 1:] != SEP)

        attn = self.attention_params()
        alpha, c = hd.text_attention(text_tokens, m_global, attn, query_mask)
        beta, s = hd.label_attention(label_vecs, enc.pooled, attn)
        p, d_feat = hd.similarity_features(c, s)
        p_w, d_w, gamma = hd.weighted_features(p, d_feat, self.gamma_mode)
        z = hd.assemble_z(c, p_w, d_w, s, self.ablation)
        z = ad.dropout(z, self.encoder_config.dropout, training, rng)
        logits = hd.classify(z, self.params["clf.W"], self.params["clf.b"])
        return logits, IdeaFeatures(alpha, beta, c, s, p, d_feat, gamma, z)

    def _encode_labels(self, training: bool, rng) -> tuple[Tensor, Tensor]:
        """The label sequence's pooled vector and per-label vectors; a frozen model keeps them."""
        lab = encode_labels_once(self.label_ids, self.encoder_config, self.params, training, rng)
        labels = lab.pooled, pool_label_vectors(lab, self.label_spans)
        if self.is_frozen:  # read-only parameters keep the encoding valid
            self._labels = labels
        return labels

    def frozen(self) -> "IdeaModel":
        """An inference copy with read-only parameter copies; self if already frozen."""
        if self.is_frozen:
            return self
        model = type(self)(
            self.encoder_config, self.label_names, self.vocab, ablation=self.ablation,
            gamma_mode=self.gamma_mode, dtype=self.dtype,
            params={name: _read_only(p.data.copy()) for name, p in self.params.items()},
        )
        model.is_frozen = True
        return model

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
        body = [np.ascontiguousarray(p.data, dtype="<f4") for p in self.params.values()]
        crc = 0
        for arr in body:
            crc = zlib.crc32(arr, crc)
        header = {
            "encoder": asdict(self.encoder_config),
            "ablation": self.ablation.mode,
            "gamma_mode": self.gamma_mode,
            "crc32": crc,
            "label_names": self.label_names,
            "vocab": self.vocab.id_to_token,
            "params": [
                {"name": name, "shape": list(p.data.shape)} for name, p in self.params.items()
            ],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with atomic_open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in body:
                fh.write(arr)

    @classmethod
    def load(cls, path, dtype=np.float32) -> "IdeaModel":
        """A frozen model from a checkpoint written by save; any damage raises a ValueError naming the file."""
        params: dict[str, Tensor] = {}
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
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
                    Vocab.from_list(header["vocab"]),
                    ablation=AblationConfig(header["ablation"]),
                    gamma_mode=header["gamma_mode"],
                    dtype=dtype,
                    params=params,
                )
                specs = model.param_specs()
                _check_param_list(header["params"], specs)
                want_crc = header["crc32"]
            except KeyError as exc:
                raise ValueError(f"{path}: checkpoint header lacks key {exc}") from None
            except (TypeError, ValueError) as exc:  # also bad UTF-8 or JSON, a rejected value
                raise ValueError(f"{path}: bad checkpoint header: {exc}") from None
            crc = 0
            for name, shape, _ in specs:
                n = int(np.prod(shape))
                buf = fh.read(4 * n)
                if len(buf) < 4 * n:
                    raise ValueError(
                        f"{path}: truncated checkpoint: parameter {name} needs "
                        f"{4 * n} bytes, found {len(buf)}"
                    )
                crc = zlib.crc32(buf, crc)
                params[name] = _read_only(np.frombuffer(buf, dtype="<f4").reshape(shape).astype(dtype))
            if fh.read(1):
                raise ValueError(f"{path}: trailing bytes after the last parameter")
        if crc != want_crc:
            raise ValueError(f"{path}: damaged checkpoint: parameter bytes have CRC-32 {crc}, "
                             f"the header records {want_crc!r}")
        model.is_frozen = True
        return model

    def copy_param_data(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_param_data(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in snapshot.items():
            self.params[name].data[...] = arr


def _read_only(arr: np.ndarray) -> Tensor:
    """A parameter that needs no gradient and raises on an in-place write."""
    arr.setflags(write=False)
    return Tensor(arr)


def _check_param_list(listed, specs: list[ParamSpec]) -> None:
    """Raise ValueError at the first entry of a header's params list that differs from specs."""
    want = [{"name": name, "shape": list(shape)} for name, shape, _ in specs]
    for i, (got, expected) in enumerate(zip_longest(listed, want)):
        if got != expected:
            raise ValueError(f"params entry {i} is {'missing' if got is None else repr(got)}; "
                             f"the model the header describes has {expected or 'no such entry'}")
