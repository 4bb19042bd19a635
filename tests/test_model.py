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


@pytest.mark.parametrize("edit, match", [
    (lambda h: b'{"encoder": ', "bad checkpoint header: Expecting value"),
    (lambda h: b'"\xff"', "bad checkpoint header: 'utf-8' codec"),
    (lambda h: {k: v for k, v in h.items() if k != "label_spans"}, "lacks key 'label_spans'"),
    (lambda h: {**h, "gamma_mode": "per-batch-literal"}, "unknown gamma mode 'per-batch-literal'"),
    (lambda h: {**h, "encoder": {**h["encoder"], "backend": "bag-of-embeddings"}},
     "unknown encoder backend 'bag-of-embeddings'"),
], ids=["not-json", "not-utf8", "missing-key", "gamma-mode", "backend"])
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
