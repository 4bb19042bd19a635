import ast
import os

import numpy as np
import pytest

import idea
from idea.data import (
    CLS,
    PAD,
    SEP,
    UNK,
    CsvFormatError,
    Document,
    LabelSet,
    Vocab,
    atomic_open,
    build_vocab,
    encode_document,
    encode_label_sequence,
    load_csv,
    make_batches,
    stratified_split,
    tokenize,
)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_punctuation_split():
    assert tokenize("Lakers, basketball!") == ["lakers", ",", "basketball", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_idempotent_over_random_corpus(rng):
    words = ["Alpha", "beta-2", "x,y", "it's", "END."]
    for _ in range(50):
        n = int(rng.integers(0, 12))
        s = " ".join(words[int(rng.integers(len(words)))] for _ in range(n))
        toks = tokenize(s)
        assert tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------------------
# vocab


def test_build_vocab_single_token():
    docs = [Document("a a a", 0)]
    vocab = build_vocab(docs, min_freq=1)
    assert vocab.id_to_token == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a"]
    assert (PAD, UNK, CLS, SEP) == (0, 1, 2, 3)


def test_build_vocab_min_freq_maps_to_unk():
    docs = [Document("common common rare", 0)]
    vocab = build_vocab(docs, min_freq=2)
    assert vocab.encode_token("rare") == UNK
    assert vocab.encode_token("common") not in (PAD, UNK, CLS, SEP)


def test_build_vocab_label_tokens_forced():
    docs = [Document("just some words", 0)]
    labels = LabelSet(["weather", "sci tech"])
    vocab = build_vocab(docs, min_freq=1, labels=labels)
    for tok in ("weather", "sci", "tech", ","):
        assert vocab.encode_token(tok) != UNK


def test_build_vocab_label_tokens_survive_min_freq_and_cap():
    docs = [Document("aa aa aa bb bb cc weather", 0)]
    labels = LabelSet(["weather"])
    vocab = build_vocab(docs, min_freq=3, max_size=5, labels=labels)
    # cap of 5 leaves space for one corpus token ("aa"); label tokens still kept
    assert vocab.encode_token("aa") != UNK
    assert vocab.encode_token("weather") != UNK
    assert vocab.encode_token("bb") == UNK


@pytest.mark.parametrize("max_size", [4, 0, -5])
def test_build_vocab_rejects_a_cap_with_no_room_for_a_corpus_token(max_size):
    with pytest.raises(ValueError, match=f"build_vocab: max_size must be > 4, got {max_size}"):
        build_vocab([Document("aa bb", 0)], max_size=max_size, labels=LabelSet(["aa"]))


def test_build_vocab_frequency_then_lexicographic_order():
    docs = [Document("b b a a c", 0)]
    vocab = build_vocab(docs)
    assert vocab.id_to_token[4:] == ["a", "b", "c"]


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError):
        build_vocab([])


def test_vocab_bijection_and_roundtrip(tmp_path):
    docs = [Document("x y z z y", 0)]
    vocab = build_vocab(docs)
    for tok, idx in vocab.token_to_id.items():
        assert vocab.id_to_token[idx] == tok
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def test_atomic_open_keeps_previous_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("half a new")
            raise RuntimeError("disk gone")
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _plain_writes(source: str, exempt_function: str | None = None) -> list[int]:
    """Lines of the open(...) calls whose mode may write, append, create or update
    (a mode that is not a literal counts), outside the body of exempt_function."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == exempt_function for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        reads = isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
        if not reads and id(node) not in exempt:
            lines.append(node.lineno)
    return lines


def test_plain_writes_are_found():
    assert _plain_writes("open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')") == []
    assert _plain_writes("open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'x')\nopen(p, 'r+')\nopen(p, m)") == [1, 2, 3, 4, 5]
    inside = "def atomic_open(p, mode):\n    open(p, mode)"
    assert _plain_writes(inside, "atomic_open") == [] and _plain_writes(inside) == [2]


def test_every_artefact_write_goes_through_atomic_open():
    src = os.path.dirname(idea.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines = _plain_writes(fh.read(), "atomic_open" if name == "data.py" else None)
            if lines:
                found[name] = lines
    assert found == {}


def test_vocab_save_failure_keeps_previous_file(tmp_path):
    vocab = build_vocab([Document("x y z", 0)])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    before = path.read_bytes()
    broken = build_vocab([Document("x y z", 0)])
    broken.id_to_token.append(None)  # fails on the last line
    with pytest.raises(TypeError):
        broken.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["vocab.txt"]


def test_vocab_load_drops_trailing_blank_lines(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nx\ny\n\n\n")
    assert Vocab.load(path).id_to_token == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "x", "y"]


@pytest.mark.parametrize("call, message", [
    (lambda: build_vocab([Document("x", 0)], min_freq=0), "build_vocab: min_freq must be >= 1, got 0"),
    (lambda: encode_document(Document("x", 0), Vocab.from_tokens(["x"]), max_len=0),
     "encode_document: max_len must be >= 1, got 0"),
    (lambda: make_batches([Document("x", 0)], Vocab.from_tokens(["x"]), batch_size=0),
     "make_batches: batch_size must be >= 1, got 0"),
], ids=["build_vocab-min_freq", "encode_document-max_len", "make_batches-batch_size"])
def test_size_below_one_raises_naming_the_value(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_vocab_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\nb\nc\nd\ne\n")
    with pytest.raises(ValueError):
        Vocab.load(path)


@pytest.mark.parametrize("tokens, match", [
    (["[PAD]", "[UNK]", "[CLS]", "[SEP]", "x", "y", "x"], "vocabulary token 6 'x' repeats token 4"),
    (["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[PAD]"], "vocabulary token 4 '\\[PAD\\]' repeats token 0"),
    (["[UNK]", "[PAD]", "[CLS]", "[SEP]", "x"], "must be a list that starts with"),
    (["[PAD]", "[UNK]", "[CLS]"], "must be a list that starts with"),
    (["[PAD]", "[UNK]", "[CLS]", "[SEP]", "x", None], "vocabulary token 5 is not a string: None"),
    (("[PAD]", "[UNK]", "[CLS]", "[SEP]"), "must be a list"),
], ids=["duplicate", "duplicate-special", "specials-out-of-order", "specials-missing", "non-string", "tuple"])
def test_vocab_from_list_rejects(tokens, match):
    with pytest.raises(ValueError, match=match):
        Vocab(tokens)


def test_vocab_load_rejects_a_duplicate_token(tmp_path):
    # read loosely, the repeated "x" would map to id 6 and leave id 4 unreachable
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nx\ny\nx\n")
    with pytest.raises(ValueError, match=f"{path}: vocabulary token 6 'x' repeats token 4"):
        Vocab.load(path)


# ---------------------------------------------------------------------------
# encoding


def test_encode_document_structure():
    vocab = Vocab.from_tokens(["hello", "world"])
    ids = encode_document(Document("hello world", 0), vocab, max_len=128)
    assert ids[0] == CLS and ids[-1] == SEP
    assert vocab.decode(ids) == ["hello", "world"]


@pytest.mark.parametrize("text", ["", " \t "])
def test_encode_document_without_tokens_reads_as_unk(text):
    # an empty document still has one key for attention to weigh
    assert encode_document(Document(text, 0), Vocab.from_tokens(["w"])) == [CLS, UNK, SEP]


def test_encode_document_truncation_keeps_sep():
    vocab = Vocab.from_tokens(["w"])
    ids = encode_document(Document("w " * 50, 0), vocab, max_len=8)
    assert len(ids) == 10
    assert ids[-1] == SEP


def test_encode_label_sequence_spans():
    vocab = Vocab.from_tokens(["world", "sports", ","])
    labels = LabelSet(["world", "sports"])
    ids, spans = encode_label_sequence(labels, vocab)
    w, s, comma = (vocab.encode_token(t) for t in ("world", "sports", ","))
    assert ids == [CLS, w, comma, s, SEP]
    assert spans == [(1, 2), (3, 4)]


def test_encode_label_sequence_multiword():
    vocab = Vocab.from_tokens(["sci", "tech", "world", ","])
    labels = LabelSet(["world", "sci tech"])
    ids, spans = encode_label_sequence(labels, vocab)
    assert spans == [(1, 2), (3, 5)]
    # spans index only their own name's tokens
    assert vocab.decode([ids[j] for j in range(*spans[1])], drop_special=False) == ["sci", "tech"]


def test_agnews_label_set_has_four_names():
    labels = LabelSet(["world", "sports", "business", "sci tech"])
    assert len(labels) == 4


# ---------------------------------------------------------------------------
# csv


def test_load_csv_row_parsing(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"3","title","desc"\n')
    docs = load_csv(path, num_classes=4)
    assert docs == [Document(text="title desc", label=2)]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b'\xef\xbb\xbf"1","a b"\r\n"2","c"\r\n')  # as Excel writes UTF-8 CSV
    assert load_csv(path, num_classes=2) == [Document(text="a b", label=0), Document(text="c", label=1)]


def test_load_csv_unescapes_doubled_quotes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"1","he said ""hi"" twice"\n')
    docs = load_csv(path, num_classes=2)
    assert docs[0].text == 'he said "hi" twice'


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_csv(path) == []


def test_load_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"1","ok"\n"oops","text"\n')
    with pytest.raises(CsvFormatError) as err:
        load_csv(path)
    assert ":2:" in str(err.value)


def test_load_csv_names_the_line_where_a_multi_line_row_starts(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"1","two\nlines"\n\n"0","also\ntwo"\n')  # the bad row spans lines 4 and 5
    with pytest.raises(CsvFormatError, match=f"^{path}:4: class index 0 out of range$"):
        load_csv(path, num_classes=2)


@pytest.mark.parametrize("data, match", [
    (b'"1","ok"\n"2","' + b"x" * 200_000 + b'"\n', ":2: field larger than field limit"),
    (b'"1","ok"\n"2","caf\xe9"\n', ": not UTF-8 text \\(invalid continuation byte\\)"),
], ids=["field-over-limit", "latin-1"])
def test_load_csv_unreadable_file_raises_naming_it(tmp_path, data, match):
    # the csv module's own error is no ValueError, and a decode error names no file
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    with pytest.raises(CsvFormatError, match=f"^{path}{match}"):
        load_csv(path, num_classes=2)


def test_load_csv_class_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"5","text"\n')
    with pytest.raises(CsvFormatError):
        load_csv(path, num_classes=4)


def test_load_csv_missing_text_field(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"1"\n')
    with pytest.raises(CsvFormatError):
        load_csv(path)


# ---------------------------------------------------------------------------
# stratified split


def _balanced_docs():
    return [Document(f"doc {i}", i % 4) for i in range(100)]


def test_stratified_split_balanced_exact():
    train, holdout = stratified_split(_balanced_docs(), 20, seed=0)
    assert len(holdout) == 20 and len(train) == 80
    counts = np.bincount([d.label for d in holdout], minlength=4)
    assert list(counts) == [5, 5, 5, 5]


def test_stratified_split_deterministic():
    docs = _balanced_docs()
    a = stratified_split(docs, 20, seed=3)
    b = stratified_split(docs, 20, seed=3)
    assert [d.text for d in a[1]] == [d.text for d in b[1]]


def test_stratified_split_is_partition():
    docs = _balanced_docs()
    train, holdout = stratified_split(docs, 37, seed=1)
    ids = sorted(d.text for d in train) + sorted(d.text for d in holdout)
    assert sorted(ids) == sorted(d.text for d in docs)
    assert not (set(d.text for d in train) & set(d.text for d in holdout))


def test_stratified_split_proportions_within_one(rng):
    for trial in range(20):
        sizes = rng.integers(3, 40, size=3)
        docs = []
        for cls, n in enumerate(sizes):
            docs.extend(Document(f"{cls}-{i}", cls) for i in range(n))
        total = len(docs)
        holdout_size = int(rng.integers(1, total))
        _, holdout = stratified_split(docs, holdout_size, seed=trial)
        counts = np.bincount([d.label for d in holdout], minlength=3)
        for cls in range(3):
            exact = holdout_size * sizes[cls] / total
            assert abs(counts[cls] - exact) < 1.0 + 1e-9


def test_stratified_split_holdout_too_large():
    with pytest.raises(ValueError):
        stratified_split(_balanced_docs(), 101, seed=0)


def test_stratified_split_negative_holdout():
    # perm[:-1] would take all but one document of every class
    stratified_split(_balanced_docs(), 0, seed=0)
    with pytest.raises(ValueError, match="holdout -1 is outside 0..100"):
        stratified_split(_balanced_docs(), -1, seed=0)


# ---------------------------------------------------------------------------
# batching


def _tiny_vocab_and_docs():
    docs = [
        Document("a b c", 0),
        Document("a b c d e", 1),
    ]
    vocab = build_vocab(docs)
    return vocab, docs


def test_make_batches_dynamic_padding_width():
    vocab, docs = _tiny_vocab_and_docs()
    (batch,) = make_batches(docs, vocab, batch_size=2)
    assert batch.token_ids.shape == (2, 7)  # CLS + 5 + SEP
    assert batch.pad_mask[0].sum() == 5  # CLS + 3 + SEP
    assert batch.token_ids[0, 0] == CLS


def test_make_batches_final_partial_kept():
    docs = [Document(f"tok{i}", i % 3) for i in range(70)]
    vocab = build_vocab(docs)
    batches = make_batches(docs, vocab, batch_size=32)
    assert [len(b) for b in batches] == [32, 32, 6]


def test_make_batches_no_shuffle_preserves_order():
    docs = [Document(f"tok{i}", 0) for i in range(10)]
    vocab = build_vocab(docs)
    batches = make_batches(docs, vocab, batch_size=4, shuffle=False)
    flat = [vocab.decode(row)[0] for b in batches for row in b.token_ids]
    assert flat == [f"tok{i}" for i in range(10)]


def test_make_batches_shuffle_deterministic():
    docs = [Document(f"tok{i}", 0) for i in range(10)]
    vocab = build_vocab(docs)
    a = make_batches(docs, vocab, batch_size=4, shuffle=True, seed=5)
    b = make_batches(docs, vocab, batch_size=4, shuffle=True, seed=5)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.token_ids, y.token_ids)


def test_batch_invariants_and_roundtrip(rng):
    words = ["red", "green", "blue", "dots", "lines"]
    docs = []
    for i in range(17):
        n = int(rng.integers(1, 9))
        docs.append(Document(" ".join(words[int(rng.integers(len(words)))] for _ in range(n)), 0))
    vocab = build_vocab(docs)
    for batch in make_batches(docs, vocab, batch_size=5, shuffle=False, max_len=6):
        np.testing.assert_array_equal(batch.pad_mask, batch.token_ids != PAD)
        for r in range(len(batch)):
            row = list(batch.token_ids[r])
            assert row[0] == CLS
            assert row.count(SEP) == 1
            sep_at = row.index(SEP)
            assert all(v == PAD for v in row[sep_at + 1 :])
    # decoding reproduces a prefix of the tokenized document
    batches = make_batches(docs, vocab, batch_size=5, shuffle=False, max_len=6)
    i = 0
    for batch in batches:
        for row in batch.token_ids:
            toks = vocab.decode(row)
            full = tokenize(docs[i].text)
            assert toks == full[: len(toks)]
            i += 1
