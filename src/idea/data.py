"""Tokenization, vocabulary, CSV ingestion, splitting and batching."""
from __future__ import annotations

import csv
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PAD, UNK, CLS, SEP = 0, 1, 2, 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CsvFormatError(ValueError):
    """Malformed dataset row; message carries the 1-based line number."""


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write to a temp file beside path and rename it over path once the block completes.

    If the block raises, path keeps its previous contents and the temp file is removed.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and split punctuation into its own tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Document:
    text: str
    label: int


@dataclass
class Vocab:
    """The vocabulary whose ids are the positions in id_to_token: the specials, then distinct strings."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = self.id_to_token
        if not isinstance(tokens, list) or tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary must be a list that starts with {list(SPECIAL_TOKENS)}")
        self.token_to_id = {}
        for i, tok in enumerate(tokens):
            if not isinstance(tok, str):
                raise ValueError(f"vocabulary token {i} is not a string: {tok!r}")
            if tok in self.token_to_id:
                raise ValueError(f"vocabulary token {i} {tok!r} repeats token {self.token_to_id[tok]}")
            self.token_to_id[tok] = i

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids, drop_special: bool = True) -> list[str]:
        out = []
        for i in ids:
            if drop_special and i in (PAD, UNK, CLS, SEP):
                continue
            out.append(self.id_to_token[int(i)])
        return out

    def save(self, path) -> None:
        # one token per line in id order; the first 4 lines are the specials
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            toks = [line.rstrip("\n") for line in fh]
        while toks and toks[-1] == "":
            toks.pop()
        try:
            return cls(toks)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocab":
        """The specials, then each distinct token in order of first appearance."""
        return cls(list(dict.fromkeys([*SPECIAL_TOKENS, *tokens])))


@dataclass
class LabelSet:
    """Class names in dataset order."""

    names: list[str]

    def __len__(self) -> int:
        return len(self.names)

    def name_tokens(self) -> list[list[str]]:
        return [tokenize(name) for name in self.names]


@dataclass
class Batch:
    token_ids: np.ndarray  # K x width, CLS ... SEP then PAD
    pad_mask: np.ndarray  # True exactly on non-PAD positions
    gold: np.ndarray  # K class ids

    def __len__(self) -> int:
        return self.token_ids.shape[0]


def build_vocab(
    corpus,
    min_freq: int = 1,
    max_size: int | None = None,
    labels: LabelSet | None = None,
) -> Vocab:
    """Frequency vocabulary over the corpus, specials first.

    Tokens are ordered by (frequency desc, token asc). Tokens under
    min_freq or past max_size fall back to UNK, except label-name tokens
    (and the label separator comma), which are always kept.
    """
    if min_freq < 1:
        raise ValueError(f"build_vocab: min_freq must be >= 1, got {min_freq}")
    if max_size is not None and max_size <= len(SPECIAL_TOKENS):  # no corpus token would fit
        raise ValueError(f"build_vocab: max_size must be > {len(SPECIAL_TOKENS)}, got {max_size}")
    counts: Counter[str] = Counter()
    n_docs = 0
    for doc in corpus:
        n_docs += 1
        counts.update(tokenize(doc.text))
    if n_docs == 0:
        raise ValueError("build_vocab: empty corpus")

    forced: list[str] = []
    if labels is not None:
        for toks in labels.name_tokens():
            for t in toks:
                if t not in forced:
                    forced.append(t)
        if "," not in forced:
            forced.append(",")
    forced_set = set(forced)

    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ordered = list(SPECIAL_TOKENS)
    for tok, freq in ranked:
        past_cap = max_size is not None and len(ordered) >= max_size
        if tok in forced_set or (freq >= min_freq and not past_cap):
            ordered.append(tok)
    present = set(ordered)
    for tok in forced:
        if tok not in present:
            ordered.append(tok)
    return Vocab(ordered)


def encode_document(doc: Document, vocab: Vocab, max_len: int = 128) -> list[int]:
    """[CLS] + token ids truncated to max_len + [SEP]; a text with no tokens reads as [UNK]."""
    if max_len < 1:
        raise ValueError(f"encode_document: max_len must be >= 1, got {max_len}")
    return [CLS] + (vocab.encode(tokenize(doc.text)[:max_len]) or [UNK]) + [SEP]


def encode_label_sequence(labels: LabelSet, vocab: Vocab) -> tuple[list[int], list[tuple[int, int]]]:
    """Joint comma-separated label sequence plus per-name [start, stop) spans.

    Spans cover only the tokens of each name; CLS, SEP and the comma
    separators are excluded.
    """
    ids = [CLS]
    spans: list[tuple[int, int]] = []
    for i, toks in enumerate(labels.name_tokens()):
        if i > 0:
            ids.append(vocab.encode_token(","))
        start = len(ids)
        ids.extend(vocab.encode(toks))
        spans.append((start, len(ids)))
    ids.append(SEP)
    return ids, spans


def load_csv(path, num_classes: int | None = None) -> list[Document]:
    """Read rows of the form: 1-based class index, then one or more text fields.

    Text fields are joined with a single space; class ids are shifted to
    0-based. Blank lines are skipped, and so is a leading UTF-8 byte-order
    mark (Excel writes one). An error names the line where its row starts.
    """
    docs: list[Document] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        start = 1  # a quoted field may hold line breaks, so a row can span lines
        try:
            for row in reader:
                line, start = start, reader.line_num + 1
                if not row:
                    continue
                if len(row) < 2:
                    raise CsvFormatError(f"{path}:{line}: expected class index and text fields")
                try:
                    cls_idx = int(row[0])
                except ValueError:
                    raise CsvFormatError(f"{path}:{line}: class index {row[0]!r} is not an integer")
                label = cls_idx - 1
                if label < 0 or (num_classes is not None and label >= num_classes):
                    raise CsvFormatError(f"{path}:{line}: class index {cls_idx} out of range")
                docs.append(Document(text=" ".join(row[1:]), label=label))
        except csv.Error as exc:  # a field over csv's size limit
            raise CsvFormatError(f"{path}:{start}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so the line is unknown
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return docs


def stratified_split(docs: list[Document], holdout_size: int, seed: int) -> tuple[list[Document], list[Document]]:
    """Split off a class-stratified holdout; deterministic per seed.

    Per-class holdout counts follow the largest-remainder rule, so each
    class's share differs from exact proportionality by less than one
    document. Both halves preserve original corpus order.
    """
    if not 0 <= holdout_size <= len(docs):
        raise ValueError(
            f"stratified_split: holdout {holdout_size} is outside 0..{len(docs)}, the corpus size"
        )
    by_class: dict[int, list[int]] = {}
    for i, doc in enumerate(docs):
        by_class.setdefault(doc.label, []).append(i)

    total = len(docs)
    quotas = {c: holdout_size * len(idx) / total for c, idx in by_class.items()}
    take = {c: int(np.floor(q)) for c, q in quotas.items()}
    leftover = holdout_size - sum(take.values())
    remainders = sorted(
        by_class, key=lambda c: (-(quotas[c] - take[c]), c)
    )
    for c in remainders[:leftover]:
        take[c] += 1

    rng = np.random.default_rng(seed)
    holdout_idx: set[int] = set()
    for c in sorted(by_class):
        perm = rng.permutation(len(by_class[c]))
        chosen = perm[: take[c]]
        holdout_idx.update(by_class[c][j] for j in chosen)

    train = [docs[i] for i in range(total) if i not in holdout_idx]
    holdout = [docs[i] for i in range(total) if i in holdout_idx]
    return train, holdout


def stratified_sample(docs: list[Document], size: int, seed: int) -> list[Document]:
    """Class-stratified subsample of the corpus (order preserved)."""
    if size >= len(docs):
        return list(docs)
    return stratified_split(docs, size, seed)[1]


def make_batches(
    docs: list[Document],
    vocab: Vocab,
    batch_size: int,
    shuffle: bool = False,
    seed: int = 0,
    max_len: int = 128,
) -> list[Batch]:
    """Chunk documents into batches padded only to each batch's longest row."""
    if batch_size < 1:
        raise ValueError(f"make_batches: batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(docs))
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(docs))
    batches: list[Batch] = []
    for start in range(0, len(docs), batch_size):
        chunk = [docs[i] for i in order[start : start + batch_size]]
        encoded = [encode_document(d, vocab, max_len) for d in chunk]
        width = max(len(e) for e in encoded)
        ids = np.full((len(chunk), width), PAD, dtype=np.int64)
        for r, e in enumerate(encoded):
            ids[r, : len(e)] = e
        batches.append(
            Batch(
                token_ids=ids,
                pad_mask=ids != PAD,
                gold=np.array([d.label for d in chunk], dtype=np.int64),
            )
        )
    return batches
