import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idea.model
from idea import autodiff as ad
from idea.autodiff import Tensor, backward
from idea.data import Document, LabelSet, Vocab, build_vocab, make_batches
from idea.encoder import EncoderConfig, encode, pool_label_vectors
from idea.head import ABLATION_MODES, AblationConfig, IdeaFeatures
from idea.model import IdeaModel
from idea.training import AdamW


WORDS = ["ball", "game", "stock", "market", "atom", "quark", "blue", "fast", "slow"]


def build_model(seed=0, dtype=np.float64, d=8, ablation="full", n_layers=2,
                classifier_init="normal", dropout=0.1):
    labels = LabelSet(["sport", "finance", "science"])
    docs = [Document(" ".join(WORDS), 0)]
    vocab = build_vocab(docs, labels=labels)
    cfg = EncoderConfig(vocab_size=len(vocab), d=d, n_layers=n_layers, n_heads=2,
                        max_positions=32, dropout=dropout)
    model = IdeaModel.build(
        cfg, labels, vocab,
        ablation=AblationConfig(ablation), dtype=dtype,
        rng=np.random.default_rng(seed), classifier_init=classifier_init,
    )
    return model, vocab


def sample_docs(rng, n, max_tokens=8):
    docs = []
    for _ in range(n):
        k = int(rng.integers(1, max_tokens + 1))
        text = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(k))
        docs.append(Document(text, int(rng.integers(3))))
    return docs


def test_forward_shapes(rng):
    model, vocab = build_model()
    batch = make_batches(sample_docs(rng, 5), vocab, batch_size=5)[0]
    logits, feats = model.forward(batch.token_ids, batch.pad_mask)
    assert logits.shape == (5, 3)
    assert feats.z.shape == (5, 4 * 8)
    assert feats.alpha.shape == (5, batch.token_ids.shape[1] - 1)
    assert feats.beta.shape == (5, 3)
    assert feats.gamma.shape == (5,)


def test_alpha_masks_out_cls_sep_pad(rng):
    model, vocab = build_model()
    docs = sample_docs(rng, 4, max_tokens=5)
    batch = make_batches(docs, vocab, batch_size=4)[0]
    _, feats = model.forward(batch.token_ids, batch.pad_mask)
    for r in range(4):
        row = batch.token_ids[r]
        # alpha indexes positions 1.. of the row; SEP and PAD slots carry 0
        for j in range(1, len(row)):
            if row[j] in (0, 3):
                assert feats.alpha.data[r, j - 1] == 0.0
        np.testing.assert_allclose(feats.alpha.data[r].sum(), 1.0, atol=1e-6)


def test_loss_matches_unbroadcast_label_encoding(rng):
    # encoding the label sequence once and broadcasting must equal
    # encoding it per sample
    model, vocab = build_model()
    batch = make_batches(sample_docs(rng, 4), vocab, batch_size=4)[0]
    loss, _, _ = model.loss(batch, lambda_l2=0.01, training=False)

    k = len(batch)
    tiled_ids = np.tile(model.label_ids, (k, 1))
    lab = encode(tiled_ids, np.ones_like(tiled_ids, bool), model.encoder_config,
                 model.params, training=False)
    label_vecs = pool_label_vectors(lab, model.label_spans)

    from idea import head as hd
    enc = encode(batch.token_ids, batch.pad_mask, model.encoder_config, model.params)
    text_tokens = ad.slice_axis(enc.tokens, 1, 1, batch.token_ids.shape[1])
    qmask = batch.pad_mask[:, 1:] & (batch.token_ids[:, 1:] != 3)
    attn = model.attention_params()
    _, c = hd.text_attention(text_tokens, lab.pooled, attn, qmask)
    _, s = hd.label_attention(label_vecs, enc.pooled, attn)
    p, d_feat = hd.similarity_features(c, s)
    p_w, d_w, _ = hd.weighted_features(p, d_feat)
    z = hd.assemble_z(c, p_w, d_w, s, model.ablation)
    logits = hd.classify(z, model.params["clf.W"], model.params["clf.b"])
    naive = hd.idea_loss(logits, batch.gold, model.reg_params(), 0.01)
    np.testing.assert_allclose(float(loss.data), float(naive.data), atol=1e-12)


def test_model_pad_invariance(rng):
    model, vocab = build_model()
    batch = make_batches(sample_docs(rng, 4, max_tokens=6), vocab, batch_size=4)[0]
    logits, feats = model.forward(batch.token_ids, batch.pad_mask)
    ids2 = batch.token_ids.copy()
    ids2[~batch.pad_mask] = 5
    logits2, feats2 = model.forward(ids2, batch.pad_mask)
    np.testing.assert_array_equal(logits.data, logits2.data)
    np.testing.assert_array_equal(feats.z.data, feats2.z.data)


def test_single_sample_equals_in_batch(rng):
    # per-sample gamma keeps each row's computation independent of its
    # batch neighbours; dynamic padding only adds exact zeros
    model, vocab = build_model(dtype=np.float64)
    docs = sample_docs(rng, 6, max_tokens=7)
    batch = make_batches(docs, vocab, batch_size=6)[0]
    logits_b, feats_b = model.forward(batch.token_ids, batch.pad_mask)
    for i in range(len(docs)):
        (solo,) = make_batches([docs[i]], vocab, batch_size=1)
        logits_s, feats_s = model.forward(solo.token_ids, solo.pad_mask)
        np.testing.assert_allclose(logits_s.data[0], logits_b.data[i], atol=1e-9)
        np.testing.assert_allclose(feats_s.z.data[0], feats_b.z.data[i], atol=1e-9)


MODELS = {mode: build_model(ablation=mode) for mode in ABLATION_MODES}


@settings(max_examples=40)
@given(
    mode=st.sampled_from(ABLATION_MODES),
    docs=st.lists(st.lists(st.sampled_from(WORDS), max_size=6), min_size=1, max_size=6),
    extra_pad=st.integers(1, 3),
)
def test_each_document_scores_alone_as_in_any_batch(mode, docs, extra_pad):
    model, vocab = MODELS[mode]
    docs = [Document(" ".join(words), 0) for words in docs]
    (batch,) = make_batches(docs, vocab, batch_size=len(docs))
    ids = np.pad(batch.token_ids, ((0, 0), (0, extra_pad)))  # PAD is id 0
    logits_b, feats_b = model.forward(batch.token_ids, batch.pad_mask)
    logits_p, feats_p = model.forward(ids, ids != 0)
    for i, doc in enumerate(docs):
        (solo,) = make_batches([doc], vocab, batch_size=1)
        logits_s, feats_s = model.forward(solo.token_ids, solo.pad_mask)
        for logits, feats in ((logits_b, feats_b), (logits_p, feats_p)):
            np.testing.assert_allclose(logits.data[i], logits_s.data[0], rtol=0, atol=1e-9)
            np.testing.assert_allclose(feats.z.data[i], feats_s.z.data[0], rtol=0, atol=1e-9)


def test_ablation_changes_classifier_width(rng):
    for mode, factor in (("only_fusing", 2), ("no_abs_diff", 3)):
        model, vocab = build_model(ablation=mode)
        assert model.params["clf.W"].shape[0] == factor * 8
        batch = make_batches(sample_docs(rng, 3), vocab, batch_size=3)[0]
        logits, feats = model.forward(batch.token_ids, batch.pad_mask)
        assert feats.z.shape == (3, factor * 8)
        assert logits.shape == (3, 3)


def test_training_forward_uses_dropout(rng):
    model, vocab = build_model(dropout=0.3)
    batch = make_batches(sample_docs(rng, 4), vocab, batch_size=4)[0]
    a, _ = model.forward(batch.token_ids, batch.pad_mask, training=True,
                         rng=np.random.default_rng(0))
    b, _ = model.forward(batch.token_ids, batch.pad_mask, training=True,
                         rng=np.random.default_rng(1))
    assert not np.array_equal(a.data, b.data)
    c, _ = model.forward(batch.token_ids, batch.pad_mask, training=False)
    d, _ = model.forward(batch.token_ids, batch.pad_mask, training=False)
    np.testing.assert_array_equal(c.data, d.data)


def test_grads_reach_every_parameter(rng):
    model, vocab = build_model(classifier_init="normal")
    batch = make_batches(sample_docs(rng, 4, max_tokens=6), vocab, batch_size=4)[0]
    model.zero_grads()
    loss, _, _ = model.loss(batch, lambda_l2=0.01, training=False)
    backward(loss)
    for name, p in model.params.items():
        assert np.any(p.grad != 0.0), f"no gradient reached {name}"


def test_checkpoint_roundtrip(tmp_path, rng):
    model, vocab = build_model(dtype=np.float32, classifier_init="normal")
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = IdeaModel.load(path)
    assert loaded.encoder_config == model.encoder_config
    assert loaded.label_names == model.label_names
    assert loaded.ablation == model.ablation
    assert loaded.gamma_mode == model.gamma_mode
    assert loaded.vocab == model.vocab
    np.testing.assert_array_equal(loaded.label_ids, model.label_ids)
    assert loaded.label_spans == model.label_spans
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    batch = make_batches(sample_docs(rng, 3), vocab, batch_size=3)[0]
    a, _ = model.forward(batch.token_ids, batch.pad_mask)
    b, _ = loaded.forward(batch.token_ids, batch.pad_mask)
    np.testing.assert_array_equal(a.data, b.data)


def same_bytes(a: Tensor, b: Tensor) -> bool:
    return a.data.dtype == b.data.dtype and a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_forward_is_bit_identical(rng, dtype):
    model, vocab = build_model(dtype=dtype, classifier_init="normal")
    frozen = model.frozen()
    assert frozen.is_frozen and frozen.frozen() is frozen and not model.is_frozen
    widths = set()
    for n_docs, max_tokens in ((5, 8), (3, 2), (7, 20)):  # one kept label encoding serves every width
        batch = make_batches(sample_docs(rng, n_docs, max_tokens), vocab, batch_size=n_docs)[0]
        widths.add(batch.token_ids.shape[1])
        want_logits, want = model.forward(batch.token_ids, batch.pad_mask)
        got_logits, got = frozen.forward(batch.token_ids, batch.pad_mask)
        assert same_bytes(got_logits, want_logits)
        for field in dataclasses.fields(IdeaFeatures):
            assert same_bytes(getattr(got, field.name), getattr(want, field.name)), field.name
    assert len(widths) == 3
    # the trainable model keeps its own writable parameters
    for name, p in model.params.items():
        assert p.requires_grad and p.data.flags.writeable and p.data is not frozen.params[name].data


def test_loaded_model_records_no_tape_and_encodes_labels_once(tmp_path, rng, monkeypatch):
    model, vocab = build_model(dtype=np.float32, classifier_init="normal")
    model.save(tmp_path / "model.ckpt")
    loaded = IdeaModel.load(tmp_path / "model.ckpt")
    assert loaded.is_frozen
    assert all(not p.requires_grad and not p.data.flags.writeable for p in loaded.params.values())
    calls = []
    encode_labels_once = idea.model.encode_labels_once
    monkeypatch.setattr(idea.model, "encode_labels_once",
                        lambda *args, **kwargs: calls.append(1) or encode_labels_once(*args, **kwargs))
    for n_docs in range(1, 6):
        batch = make_batches(sample_docs(rng, n_docs), vocab, batch_size=n_docs)[0]
        logits, feats = loaded.forward(batch.token_ids, batch.pad_mask)
        assert logits.lineage is None and not logits.requires_grad
        assert all(getattr(feats, field.name).lineage is None for field in dataclasses.fields(IdeaFeatures))
    assert len(calls) == 1
    for _ in range(2):  # a trainable model encodes the label names in every forward, on its tape
        logits, _ = model.forward(batch.token_ids, batch.pad_mask)
        assert logits.lineage is not None
    assert len(calls) == 3


def adamw_step(model) -> None:
    opt = AdamW(model.params, lr=0.1)
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    opt.step()


@pytest.mark.parametrize("write", [
    lambda m: m.load_param_data({name: np.zeros_like(p.data) for name, p in m.params.items()}),
    adamw_step,
    lambda m: m.params["layer1.ffn.W2"].data.__setitem__((0, 0), 1.0),
], ids=["load_param_data", "adamw_step", "in-place"])
def test_frozen_model_rejects_in_place_writes(rng, write):
    model, vocab = build_model(classifier_init="normal")
    frozen = model.frozen()
    batch = make_batches(sample_docs(rng, 4), vocab, batch_size=4)[0]
    before, _ = frozen.forward(batch.token_ids, batch.pad_mask)  # the label encoding is now kept
    with pytest.raises(ValueError, match="read-only"):
        write(frozen)
    after, _ = frozen.forward(batch.token_ids, batch.pad_mask)
    assert same_bytes(after, before)
    assert same_bytes(after, model.forward(batch.token_ids, batch.pad_mask)[0])


def test_frozen_model_rejects_a_training_forward(rng):
    model, vocab = build_model()
    batch = make_batches(sample_docs(rng, 4), vocab, batch_size=4)[0]
    with pytest.raises(ValueError, match="frozen model"):
        model.frozen().forward(batch.token_ids, batch.pad_mask, training=True, rng=np.random.default_rng(0))


def test_checkpoint_rejects_a_damaged_body(tmp_path):
    model, _ = build_model(dtype=np.float32, classifier_init="normal")
    path = tmp_path / "model.ckpt"
    model.save(path)
    data = bytearray(path.read_bytes())
    data[16 + int.from_bytes(data[8:16], "little") + 3] ^= 0x40  # the exponent of token_emb's first float
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="damaged checkpoint: parameter bytes have CRC-32") as err:
        IdeaModel.load(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError):
        IdeaModel.load(path)


@pytest.mark.parametrize("damage", ["cut", "pad", "cut-header"])
def test_checkpoint_rejects_truncated_or_padded(tmp_path, damage):
    model, _ = build_model(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save(path)
    data = path.read_bytes()
    damaged = {"cut": data[:-1], "pad": data + b"\x00", "cut-header": data[:40]}[damage]
    path.write_bytes(damaged)
    with pytest.raises(ValueError, match="truncated|trailing") as err:
        IdeaModel.load(path)
    assert str(path) in str(err.value)


def rewrite_header(path, edit) -> None:
    """Replace a saved checkpoint's JSON header by edit(header), a dict or raw bytes."""
    data = path.read_bytes()
    size = int.from_bytes(data[8:16], "little")
    header = edit(json.loads(data[16:16 + size]))
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[16 + size:])


def with_params(header: dict, params: list) -> dict:
    return {**header, "params": params}


def with_vocab(header: dict, edit) -> dict:
    return {**header, "vocab": edit(list(header["vocab"]))}


def replaced(tokens: list, old: str, new) -> list:
    return [new if t == old else t for t in tokens]


@pytest.mark.parametrize("edit, match", [
    (lambda h: b'{"encoder": ', "bad checkpoint header: Expecting value"),
    (lambda h: b'"\xff"', "bad checkpoint header: 'utf-8' codec"),
    # the format before the vocabulary moved into the header
    (lambda h: {**{k: v for k, v in h.items() if k != "vocab"}, "label_ids": [2, 13, 16, 14, 16, 15, 3],
                "label_spans": [[1, 2], [3, 4], [5, 6]]}, "lacks key 'vocab'"),
    (lambda h: {k: v for k, v in h.items() if k != "crc32"}, "lacks key 'crc32'"),
    (lambda h: {**h, "gamma_mode": "per-batch-literal"}, "unknown gamma mode 'per-batch-literal'"),
    (lambda h: {**h, "encoder": {**h["encoder"], "backend": "bag-of-embeddings"}},
     "unknown encoder backend 'bag-of-embeddings'"),
    (lambda h: with_params(h, h["params"][:-1] + [{"name": "clf.bias", "shape": [3]}]),
     "params entry 41 is {'name': 'clf.bias', 'shape': \\[3\\]}; .* has {'name': 'clf.b'"),
    (lambda h: with_params(h, [{"name": "token_emb", "shape": ["17", 8]}] + h["params"][1:]),
     "params entry 0 is {'name': 'token_emb', 'shape': \\['17', 8\\]}"),
    (lambda h: with_params(h, [h["params"][1], h["params"][0]] + h["params"][2:]),
     "params entry 0 is {'name': 'pos_emb'"),
    (lambda h: with_params(h, h["params"][:-1]), "params entry 41 is missing"),
    (lambda h: with_params(h, h["params"] + [{"name": "clf.c", "shape": [3]}]),
     "params entry 42 is {'name': 'clf.c', 'shape': \\[3\\]}; .* has no such entry"),
    (lambda h: with_vocab(h, lambda v: v[:-1] + [v[4]]), "vocabulary token 16 'atom' repeats token 4"),
    (lambda h: with_vocab(h, lambda v: v[1:] + v[:1]), "vocabulary must be a list that starts with"),
    (lambda h: with_vocab(h, lambda v: " ".join(v)), "vocabulary must be a list that starts with"),
    (lambda h: with_vocab(h, lambda v: replaced(v, "ball", 7)), "vocabulary token 5 is not a string: 7"),
    (lambda h: with_vocab(h, lambda v: v + ["extra"]), "vocab has 18 tokens but vocab_size is 17"),
    (lambda h: with_vocab(h, lambda v: replaced(v, "finance", "finances")),
     "vocab lacks the label tokens \\['finance'\\]"),
], ids=["not-json", "not-utf8", "missing-key", "no-crc32", "gamma-mode", "backend", "renamed", "string-shape",
        "swapped", "missing-param", "extra-param", "vocab-duplicate", "vocab-no-specials", "vocab-string",
        "vocab-non-string", "vocab-length", "vocab-no-label-token"])
def test_checkpoint_rejects_bad_header(tmp_path, edit, match):
    model, _ = build_model(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save(path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=match) as err:
        IdeaModel.load(path)
    assert str(path) in str(err.value)


def test_checkpoint_save_failure_keeps_previous_file(tmp_path):
    model, _ = build_model(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save(path)
    before = path.read_bytes()
    model.params["clf.b"].data = np.array(["x"])  # the last parameter cannot become float32
    with pytest.raises(ValueError):
        model.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def _old_init(encoder_config, n_classes, z_width, rng, dtype, classifier_init):
    """The three init functions that the parameter table replaced, as they were."""
    def normal(*shape, std=0.02):
        return rng.normal(0.0, std, size=shape).astype(dtype)

    d, f = encoder_config.d, encoder_config.ffn_dim
    params = {
        "token_emb": normal(encoder_config.vocab_size, d),
        "pos_emb": normal(encoder_config.max_positions, d),
        "emb_ln.g": np.ones(d, dtype=dtype),
        "emb_ln.b": np.zeros(d, dtype=dtype),
    }
    for i in range(encoder_config.n_layers):
        p = f"layer{i}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[p + "attn." + name] = normal(d, d)
        for name in ("bq", "bv", "bo"):
            params[p + "attn." + name] = np.zeros(d, dtype=dtype)
        params[p + "ln1.g"] = np.ones(d, dtype=dtype)
        params[p + "ln1.b"] = np.zeros(d, dtype=dtype)
        params[p + "ffn.W1"] = normal(d, f)
        params[p + "ffn.b1"] = np.zeros(f, dtype=dtype)
        params[p + "ffn.W2"] = normal(f, d)
        params[p + "ffn.b2"] = np.zeros(d, dtype=dtype)
        params[p + "ln2.g"] = np.ones(d, dtype=dtype)
        params[p + "ln2.b"] = np.zeros(d, dtype=dtype)
    params["pooler.W"] = normal(d, d)
    params["pooler.b"] = np.zeros(d, dtype=dtype)
    # head
    params["attn.W_m"] = rng.normal(0.0, 0.02, size=(d, d)).astype(dtype)
    params["attn.b_m"] = np.zeros((), dtype=dtype)
    params["attn.W_t"] = rng.normal(0.0, 0.02, size=(d, d)).astype(dtype)
    params["attn.b_t"] = np.zeros((), dtype=dtype)
    # classifier
    if classifier_init == "zeros":
        params["clf.W"] = np.zeros((z_width, n_classes), dtype=dtype)
    else:
        params["clf.W"] = rng.normal(0.0, 0.02, size=(z_width, n_classes)).astype(dtype)
    params["clf.b"] = np.zeros(n_classes, dtype=dtype)
    return params


@pytest.mark.parametrize("ablation", ["full", "only_fusing"])
@pytest.mark.parametrize("classifier_init", ["zeros", "normal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parameter_table_reproduces_the_old_init(dtype, classifier_init, ablation):
    model, _ = build_model(seed=3, dtype=dtype, d=8, ablation=ablation, classifier_init=classifier_init)
    cfg = model.encoder_config
    old = _old_init(cfg, model.n_classes, AblationConfig(ablation).z_width(cfg.d),
                    np.random.default_rng(3), dtype, classifier_init)
    assert list(model.params) == list(old)
    for name, want in old.items():
        got = model.params[name].data
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert model.params[name].requires_grad
    assert [(name, shape) for name, shape, _ in model.param_specs()] == [
        (name, arr.shape) for name, arr in old.items()]


@pytest.mark.parametrize("field, edit, match", [
    ("label_names", lambda v: ["sport", "", "science"],
     "label name 1 must be a string with at least one token, got ''"),
    ("label_names", lambda v: ["sport", "finance", " \t"], "label name 2 must be a string"),
    ("label_names", lambda v: [7, "finance", "science"], "label name 0 must be a string"),
    ("vocab", lambda v: Vocab.from_list(v.id_to_token + ["extra"]), "vocab has 18 tokens but vocab_size is 17"),
    ("vocab", lambda v: Vocab.from_list(v.id_to_token[:-2] + ["extra", "more"]),
     "vocab lacks the label tokens \\[',', 'science'\\]"),
    ("vocab", lambda v: Vocab.from_list(replaced(v.id_to_token, ",", ";")), "vocab lacks the label tokens \\[','\\]"),
], ids=["empty-name", "blank-name", "int-name", "vocab-too-long", "vocab-lacks-name-token", "vocab-lacks-comma"])
def test_model_rejects_bad_label_fields(field, edit, match):
    model, vocab = build_model()
    fields = {"label_names": model.label_names, "vocab": vocab}
    fields[field] = edit(vocab)
    with pytest.raises(ValueError, match=match):
        IdeaModel(model.encoder_config, fields["label_names"], fields["vocab"])


def test_model_derives_label_ids_and_spans_from_its_vocab():
    model, vocab = build_model()
    ids = vocab.token_to_id
    assert model.vocab is vocab
    assert model.label_ids.dtype == np.int64
    assert model.label_ids.tolist() == [2, ids["sport"], ids[","], ids["finance"], ids[","], ids["science"], 3]
    assert model.label_spans == [(1, 2), (3, 4), (5, 6)]
