import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idea import autodiff as ad
from idea.autodiff import Tensor, backward
from idea.data import Document, LabelSet, Vocab, build_vocab, make_batches
from idea.encoder import EncoderConfig, encode, pool_label_vectors
from idea.head import ABLATION_MODES, AblationConfig
from idea.model import IdeaModel


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
    np.testing.assert_array_equal(loaded.label_ids, model.label_ids)
    assert loaded.label_spans == model.label_spans
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    batch = make_batches(sample_docs(rng, 3), vocab, batch_size=3)[0]
    a, _ = model.forward(batch.token_ids, batch.pad_mask)
    b, _ = loaded.forward(batch.token_ids, batch.pad_mask)
    np.testing.assert_array_equal(a.data, b.data)


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


@pytest.mark.parametrize("edit, match", [
    (lambda h: b'{"encoder": ', "bad checkpoint header: Expecting value"),
    (lambda h: b'"\xff"', "bad checkpoint header: 'utf-8' codec"),
    (lambda h: {k: v for k, v in h.items() if k != "label_spans"}, "lacks key 'label_spans'"),
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
    (lambda h: {**h, "label_ids": [2, 17, 3]}, "label ids outside \\[0, 17\\)"),
    (lambda h: {**h, "label_spans": h["label_spans"][:2]}, "2 label spans for 3 label names"),
    (lambda h: {**h, "label_spans": [[1, 2], [3, 4], [6, 5]]}, "label span \\(6, 5\\) is empty"),
], ids=["not-json", "not-utf8", "missing-key", "gamma-mode", "backend", "renamed", "string-shape",
        "swapped", "missing-param", "extra-param", "label-id", "span-count", "span-order"])
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


@pytest.mark.parametrize("field, value, match", [
    ("label_ids", [2, 17, 3], "label ids outside \\[0, 17\\)"),
    ("label_ids", [-1, 4, 3], "label ids outside \\[0, 17\\)"),
    ("label_spans", [(1, 2), (3, 4)], "2 label spans for 3 label names"),
    ("label_spans", [(1, 2), (3, 4), (5, 6), (5, 6)], "4 label spans for 3 label names"),
    ("label_spans", [(1, 2), (3, 3), (5, 6)], "label span \\(3, 3\\) is empty"),
    ("label_spans", [(1, 2), (3, 4), (5, 8)], "label span \\(5, 8\\) is empty or outside the 7"),
    ("label_spans", [(-1, 2), (3, 4), (5, 6)], "label span \\(-1, 2\\)"),
    ("label_spans", [(1, 2, 3), (3, 4), (5, 6)], "label span \\(1, 2, 3\\)"),
], ids=["id-too-big", "id-negative", "too-few-spans", "too-many-spans", "empty-span",
        "span-past-end", "negative-start", "three-ends"])
def test_model_rejects_bad_label_fields(field, value, match):
    model, _ = build_model()
    fields = {"label_ids": model.label_ids, "label_spans": model.label_spans, field: value}
    with pytest.raises(ValueError, match=match):
        IdeaModel(model.encoder_config, model.label_names, fields["label_ids"], fields["label_spans"])
