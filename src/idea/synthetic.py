"""Synthetic keyword-bag corpora for sanity checks and desk-scale runs.

Each document is a bag of class-specific keyword tokens (which include
the class's own label-name tokens), mixed with shared noise tokens.
Optional knobs inject cross-class vocabulary overlap and misleading
keywords from other classes.
"""
from __future__ import annotations

import csv

import numpy as np

from .data import LabelSet, atomic_open

NAME_POOL = [
    "sport",
    "finance",
    "science",
    "travel",
    "music",
    "health",
    "politics",
    "food",
    "weather",
    "nature",
]

NOISE_WORDS = [
    "the", "a", "of", "and", "to", "in", "it", "is", "was", "on",
    "for", "with", "that", "as", "at", "by", "from", "this", "an", "be",
]


def default_label_names(n_classes: int) -> list[str]:
    names = list(NAME_POOL[:n_classes])
    for i in range(len(names), n_classes):
        names.append(f"topic{i}")
    return names


def generate_rows(
    n_docs: int,
    n_classes: int = 3,
    seed: int = 0,
    label_names: list[str] | None = None,
    keywords_per_class: int = 8,
    doc_keywords: int = 8,
    doc_noise: int = 4,
    label_token_rate: float = 0.9,
    overlap: int = 0,
    confusion: float = 0.0,
) -> tuple[list[tuple[int, str, str]], list[str]]:
    """Build (class_id, title, description) rows, classes as balanced as possible.

    overlap adds that many tokens from a shared ambiguous pool to every
    class's keyword set; confusion is the per-slot probability of drawing
    a keyword from a different class instead of the document's own.
    """
    if n_classes < 2:
        raise ValueError(f"generate_rows: need at least 2 classes, got {n_classes}")
    if n_docs < n_classes:
        raise ValueError(f"generate_rows: {n_docs} documents for {n_classes} classes; need one per class")
    names = list(label_names) if label_names is not None else default_label_names(n_classes)
    name_tokens = LabelSet(names).name_tokens()
    if len(names) != n_classes:
        raise ValueError(f"generate_rows: {len(names)} label names for {n_classes} classes")
    for name, rate in (("label_token_rate", label_token_rate), ("confusion", confusion)):
        if not 0.0 <= rate <= 1.0:  # NaN fails too
            raise ValueError(f"generate_rows: {name} must be in [0, 1], got {rate}")
    for name, count in (("keywords_per_class", keywords_per_class), ("doc_keywords", doc_keywords),
                        ("doc_noise", doc_noise), ("overlap", overlap)):
        if count < 0:
            raise ValueError(f"generate_rows: {name} must be >= 0, got {count}")

    rng = np.random.default_rng(seed)
    shared_pool = [f"common{j}" for j in range(overlap * 2 + 1)]
    keyword_sets: list[list[str]] = []
    for toks in name_tokens:
        base = "".join(toks)
        kws = toks + [f"{base}{j}" for j in range(keywords_per_class)]
        if overlap > 0:
            picks = rng.choice(len(shared_pool), size=overlap, replace=False)
            kws += [shared_pool[j] for j in picks]
        keyword_sets.append(kws)

    counts = [n_docs // n_classes] * n_classes
    for i in range(n_docs % n_classes):
        counts[i] += 1
    order = rng.permutation(np.repeat(np.arange(n_classes), counts))

    rows: list[tuple[int, str, str]] = []
    for cls in order:
        cls = int(cls)
        words: list[str] = []
        if rng.random() < label_token_rate:
            words.extend(name_tokens[cls])
        for _ in range(doc_keywords):
            if rng.random() < confusion:
                other = int(rng.integers(n_classes - 1))
                other = other if other < cls else other + 1
                pool = keyword_sets[other]
            else:
                pool = keyword_sets[cls]
            words.append(pool[int(rng.integers(len(pool)))])
        for _ in range(doc_noise):
            words.append(NOISE_WORDS[int(rng.integers(len(NOISE_WORDS)))])
        perm = rng.permutation(len(words))
        words = [words[j] for j in perm]
        cut = max(1, min(3, len(words) - 1))
        rows.append((cls, " ".join(words[:cut]), " ".join(words[cut:])))
    return rows, names


def write_csv(rows: list[tuple[int, str, str]], path) -> None:
    """Rows as `"<1-based class>","<title>","<description>"`."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for cls, title, desc in rows:
            writer.writerow([cls + 1, title, desc])
