import numpy as np
import pytest

from conftest import total
from idea import autodiff as ad
from idea.autodiff import Tensor, backward, grad_check
from idea.data import Document, LabelSet, Vocab, make_batches
from idea.encoder import (
    EncoderConfig,
    encode,
    encode_labels_once,
    init_params,
    param_specs,
    pool_label_vectors,
    pooler,
)


def tiny_setup(seed=0, dtype=np.float64, vocab_size=12):
    cfg = EncoderConfig(
        vocab_size=vocab_size, d=8, n_layers=2, n_heads=2, max_positions=16, dropout=0.1,
    )
    params = init_params(param_specs(cfg), np.random.default_rng(seed), dtype)
    return cfg, params


def random_batch(rng, k=3, widths=(6, 4, 6), vocab_size=12):
    width = max(widths) + 2
    ids = np.zeros((k, width), dtype=np.int64)
    mask = np.zeros((k, width), dtype=bool)
    for r, n in enumerate(widths):
        ids[r, 0] = 2  # CLS
        ids[r, 1 : n + 1] = rng.integers(4, vocab_size, size=n)
        ids[r, n + 1] = 3  # SEP
        mask[r, : n + 2] = True
    return ids, mask


def test_encode_output_shapes(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng)
    out = encode(ids, mask, cfg, params)
    assert out.tokens.shape == (3, 8, 8)
    assert out.pooled.shape == (3, 8)


def test_encode_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, d=10, n_heads=4)
    for backend in ("rnn", "bag-of-embeddings"):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, backend=backend)


@pytest.mark.parametrize("field, value", [
    ("vocab_size", 0), ("d", True), ("d", -64), ("n_layers", 2.0), ("n_layers", 0), ("n_heads", 0),
    ("n_heads", "4"), ("dropout", "0.1"), ("max_positions", np.int64(16)), ("dropout", float("nan")),
    ("dropout", True),
])
def test_encoder_config_rejects_bad_field(field, value):
    # a ValueError names the field; n_heads=0 must not reach d % n_heads
    with pytest.raises(ValueError, match=field):
        EncoderConfig(**{"vocab_size": 10, "d": 8, "n_heads": 2, field: value})


def test_encode_ids_and_mask_of_different_shapes():
    cfg, params = tiny_setup()
    with pytest.raises(ad.ShapeError, match=r"encode: ids \(2, 5\) vs mask \(2, 4\)"):
        encode(np.full((2, 5), 2), np.ones((2, 4), bool), cfg, params)


def test_encode_too_long_sequence(rng):
    cfg, params = tiny_setup()
    ids = np.full((1, cfg.max_positions + 1), 2, dtype=np.int64)
    with pytest.raises(ValueError):
        encode(ids, np.ones_like(ids, bool), cfg, params)


def test_encode_batch_permutation_equivariance(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng)
    out = encode(ids, mask, cfg, params)
    perm = [2, 0, 1]
    out_p = encode(ids[perm], mask[perm], cfg, params)
    np.testing.assert_allclose(out_p.tokens.data, out.tokens.data[perm], atol=1e-12)
    np.testing.assert_allclose(out_p.pooled.data, out.pooled.data[perm], atol=1e-12)


def test_encode_pad_id_cannot_leak(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng, widths=(6, 3, 5))
    out = encode(ids, mask, cfg, params)
    ids2 = ids.copy()
    ids2[mask == False] = 7  # noqa: E712 - rewrite every PAD slot to a real id
    out2 = encode(ids2, mask, cfg, params)
    np.testing.assert_array_equal(out.tokens.data, out2.tokens.data)
    np.testing.assert_array_equal(out.pooled.data, out2.pooled.data)


def test_encode_pad_rows_zeroed(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng, widths=(6, 2, 4))
    out = encode(ids, mask, cfg, params)
    assert np.all(out.tokens.data[~mask] == 0.0)


def test_encode_eval_deterministic(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng)
    a = encode(ids, mask, cfg, params, training=False)
    b = encode(ids, mask, cfg, params, training=False)
    np.testing.assert_array_equal(a.tokens.data, b.tokens.data)


def test_encode_training_dropout_is_seeded(rng):
    cfg, params = tiny_setup()
    ids, mask = random_batch(rng)
    a = encode(ids, mask, cfg, params, training=True, rng=np.random.default_rng(5))
    b = encode(ids, mask, cfg, params, training=True, rng=np.random.default_rng(5))
    c = encode(ids, mask, cfg, params, training=True, rng=np.random.default_rng(6))
    np.testing.assert_array_equal(a.tokens.data, b.tokens.data)
    assert not np.array_equal(a.tokens.data, c.tokens.data)


# ---------------------------------------------------------------------------
# pooler


def test_pooler_zero_params_gives_zeros(rng):
    params = {
        "pooler.W": Tensor(np.zeros((4, 4))),
        "pooler.b": Tensor(np.zeros(4)),
    }
    out = pooler(Tensor(rng.normal(size=(3, 4))), params)
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_pooler_bounded(rng):
    params = {
        "pooler.W": Tensor(rng.normal(size=(4, 4))),
        "pooler.b": Tensor(rng.normal(size=(4,))),
    }
    out = pooler(Tensor(rng.normal(size=(6, 4))), params)
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


def test_pooler_gradcheck(rng):
    params = {
        "pooler.W": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
        "pooler.b": Tensor(rng.normal(size=(4,)), requires_grad=True),
    }
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    tgt = Tensor(rng.normal(size=(2, 4)))

    def fn():
        return total(pooler(x, params), tgt)

    report = grad_check(fn, {**params, "x": x}, step=1e-5)
    assert report.max_relative_error < 1e-4


# ---------------------------------------------------------------------------
# label pooling and broadcast


def test_pool_label_vectors_single_token_is_that_embedding(rng):
    cfg, params = tiny_setup()
    ids = np.array([2, 5, 4, 6, 3])  # CLS a , b SEP with spans over single tokens
    out = encode_labels_once(ids, cfg, params)
    pooled = pool_label_vectors(out, [(1, 2), (3, 4)])
    np.testing.assert_allclose(pooled.data[0, 0], out.tokens.data[0, 1], atol=1e-12)
    np.testing.assert_allclose(pooled.data[0, 1], out.tokens.data[0, 3], atol=1e-12)


def test_pool_label_vectors_two_token_mean(rng):
    cfg, params = tiny_setup()
    ids = np.array([2, 5, 6, 3])
    out = encode_labels_once(ids, cfg, params)
    pooled = pool_label_vectors(out, [(1, 3)])
    expected = (out.tokens.data[0, 1] + out.tokens.data[0, 2]) / 2.0
    np.testing.assert_allclose(pooled.data[0, 0], expected, atol=1e-12)


def test_pool_label_vectors_fourteen_classes(rng):
    cfg, params = tiny_setup(vocab_size=40)
    ids = [2] + list(range(4, 4 + 14)) + [3]
    spans = [(i, i + 1) for i in range(1, 15)]
    pooled = pool_label_vectors(encode_labels_once(np.array(ids), cfg, params), spans)
    assert pooled.shape == (1, 14, 8)


def test_pool_label_vectors_empty_span(rng):
    cfg, params = tiny_setup()
    out = encode_labels_once(np.array([2, 5, 3]), cfg, params)
    with pytest.raises(ValueError):
        pool_label_vectors(out, [(1, 1)])


def test_encode_labels_once_matches_stacked_copies(rng):
    cfg, params = tiny_setup()
    label_ids = np.array([2, 5, 4, 6, 3])
    single = encode_labels_once(label_ids, cfg, params)
    tiled = encode(
        np.tile(label_ids, (3, 1)), np.ones((3, label_ids.size), bool), cfg, params
    )
    broad = ad.broadcast_to(single.tokens, (3,) + single.tokens.shape[1:])
    np.testing.assert_allclose(broad.data, tiled.tokens.data, atol=1e-12)
    np.testing.assert_allclose(
        ad.broadcast_to(single.pooled, (3, 8)).data, tiled.pooled.data, atol=1e-12
    )


def test_broadcast_grads_accumulate_over_batch(rng):
    cfg, params = tiny_setup()
    label_ids = np.array([2, 5, 4, 6, 3])

    def loss_broadcast():
        out = encode_labels_once(label_ids, cfg, params)
        return total(ad.broadcast_to(out.pooled, (4, 8)))

    def loss_single():
        out = encode_labels_once(label_ids, cfg, params)
        return total(out.pooled)

    for p in params.values():
        p.zero_grad()
    backward(loss_broadcast())
    g_broad = params["token_emb"].grad.copy()
    for p in params.values():
        p.zero_grad()
    backward(loss_single())
    np.testing.assert_allclose(g_broad, 4.0 * params["token_emb"].grad, atol=1e-12)


def test_siamese_weight_sharing():
    # the label pass and the text pass read the same parameter objects,
    # so one update moves both encodings
    cfg, params = tiny_setup()
    rng = np.random.default_rng(1)
    ids, mask = random_batch(rng)
    ids[0, 1] = 5  # token 5 appears in the document and in the label sequence
    label_ids = np.array([2, 5, 4, 6, 3])
    text_before = encode(ids, mask, cfg, params).pooled.data.copy()
    label_before = encode_labels_once(label_ids, cfg, params).pooled.data.copy()
    params["token_emb"].data[5] += rng.normal(size=8)
    text_after = encode(ids, mask, cfg, params).pooled.data
    label_after = encode_labels_once(label_ids, cfg, params).pooled.data
    assert not np.allclose(text_before, text_after)
    assert not np.allclose(label_before, label_after)


# ---------------------------------------------------------------------------
# whole-encoder gradient check


def test_encoder_gradcheck_2layer_d8():
    rng = np.random.default_rng(42)
    cfg, params = tiny_setup(seed=42)
    ids, mask = random_batch(rng, k=2, widths=(4, 3))  # S = 6
    tgt_tok = rng.normal(size=(2, 6, 8))
    tgt_pool = rng.normal(size=(2, 8))

    def fn():
        out = encode(ids, mask, cfg, params, training=False)
        return ad.add(
            total(out.tokens, Tensor(tgt_tok)),
            total(out.pooled, Tensor(tgt_pool)),
        )

    report = grad_check(fn, params, step=1e-5)
    assert report.max_relative_error < 1e-4
