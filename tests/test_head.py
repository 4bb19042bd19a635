import numpy as np
import pytest

import loop_reference as ref
from conftest import draw_normal_classifier
from idea import autodiff as ad
from idea.autodiff import DegenerateSliceError, ShapeError, Tensor, backward
from idea.encoder import init_params
from idea.head import (
    ABLATION_MODES,
    AblationConfig,
    AttentionParams,
    assemble_z,
    classify,
    idea_loss,
    label_attention,
    param_specs,
    similarity_features,
    text_attention,
    weighted_features,
)


def classifier_params(z_width, n_classes, rng, init="zeros"):
    """clf.W and clf.b from the head's parameter table; init="normal" draws clf.W from rng."""
    specs = [spec for spec in param_specs(1, z_width, n_classes) if spec[0].startswith("clf.")]
    params = init_params(specs, rng, np.float64)
    if init == "normal":
        draw_normal_classifier(params, rng)
    return params


def make_params(rng, d, zero=False):
    scale = 0.0 if zero else 1.0
    return AttentionParams(
        W_m=Tensor(scale * rng.normal(size=(d, d)), requires_grad=True),
        b_m=Tensor(scale * rng.normal(size=()), requires_grad=True),
        W_t=Tensor(scale * rng.normal(size=(d, d)), requires_grad=True),
        b_t=Tensor(scale * rng.normal(size=()), requires_grad=True),
    )


def random_instance(rng, k=2, n=3, d=4, n_labels=3):
    tokens = Tensor(rng.normal(size=(k, n, d)))
    m_global = Tensor(rng.normal(size=(k, d)))
    labels = Tensor(rng.normal(size=(k, n_labels, d)))
    t_global = Tensor(rng.normal(size=(k, d)))
    mask = rng.random((k, n)) > 0.25
    mask[:, 0] = True
    return tokens, m_global, labels, t_global, mask


# ---------------------------------------------------------------------------
# text attention


def test_text_attention_single_position(rng):
    tokens = Tensor(rng.normal(size=(2, 1, 4)))
    m_global = Tensor(rng.normal(size=(2, 4)))
    alpha, c = text_attention(tokens, m_global, make_params(rng, 4), np.ones((2, 1), bool))
    np.testing.assert_array_equal(alpha.data, np.ones((2, 1)))
    np.testing.assert_allclose(c.data, tokens.data[:, 0, :], atol=1e-15)


def test_text_attention_zero_params_uniform(rng):
    tokens, m_global, _, _, mask = random_instance(rng, k=3, n=5)
    alpha, c = text_attention(tokens, m_global, make_params(rng, 4, zero=True), mask)
    for k in range(3):
        live = mask[k].sum()
        np.testing.assert_allclose(alpha.data[k][mask[k]], 1.0 / live, atol=1e-12)
        expected = tokens.data[k][mask[k]].mean(axis=0)
        np.testing.assert_allclose(c.data[k], expected, atol=1e-12)


def test_text_attention_matches_loop_oracle(rng):
    for _ in range(20):
        k, n, d = (int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(2, 6)))
        tokens = Tensor(rng.normal(size=(k, n, d)))
        m_global = Tensor(rng.normal(size=(k, d)))
        params = make_params(rng, d)
        mask = rng.random((k, n)) > 0.3
        mask[:, 0] = True
        alpha, c = text_attention(tokens, m_global, params, mask)
        a_ref, c_ref = ref.text_attention_ref(
            tokens.data.tolist(), m_global.data.tolist(), params.W_m.data.tolist(),
            float(params.b_m.data), mask.tolist(),
        )
        np.testing.assert_allclose(alpha.data, a_ref, atol=1e-10)
        np.testing.assert_allclose(c.data, c_ref, atol=1e-10)


def test_text_attention_all_pad_row_degenerate(rng):
    tokens, m_global, _, _, _ = random_instance(rng)
    mask = np.ones((2, 3), bool)
    mask[1] = False
    with pytest.raises(DegenerateSliceError):
        text_attention(tokens, m_global, make_params(rng, 4), mask)


def test_text_attention_c_in_convex_hull(rng):
    # c is an explicit convex combination of the unmasked token vectors
    tokens, m_global, _, _, mask = random_instance(rng, k=3, n=6)
    alpha, c = text_attention(tokens, m_global, make_params(rng, 4), mask)
    recomputed = np.einsum("kn,knd->kd", alpha.data, tokens.data)
    np.testing.assert_allclose(c.data, recomputed, atol=1e-12)
    assert np.all(alpha.data >= 0)
    np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# label attention


def test_label_attention_single_label(rng):
    labels = Tensor(rng.normal(size=(2, 1, 4)))
    t_global = Tensor(rng.normal(size=(2, 4)))
    beta, s = label_attention(labels, t_global, make_params(rng, 4))
    np.testing.assert_array_equal(beta.data, np.ones((2, 1)))
    np.testing.assert_allclose(s.data, labels.data[:, 0, :], atol=1e-15)


def test_label_attention_zero_params_uniform(rng):
    _, _, labels, t_global, _ = random_instance(rng, n_labels=5)
    beta, s = label_attention(labels, t_global, make_params(rng, 4, zero=True))
    np.testing.assert_allclose(beta.data, 0.2, atol=1e-12)


def test_label_attention_matches_loop_oracle(rng):
    for _ in range(20):
        k, n_lab, d = (int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(2, 6)))
        labels = Tensor(rng.normal(size=(k, n_lab, d)))
        t_global = Tensor(rng.normal(size=(k, d)))
        params = make_params(rng, d)
        beta, s = label_attention(labels, t_global, params)
        b_ref, s_ref = ref.label_attention_ref(
            labels.data.tolist(), t_global.data.tolist(), params.W_t.data.tolist(),
            float(params.b_t.data),
        )
        np.testing.assert_allclose(beta.data, b_ref, atol=1e-10)
        np.testing.assert_allclose(s.data, s_ref, atol=1e-10)


def test_label_attention_empty_labels(rng):
    with pytest.raises(ValueError):
        label_attention(Tensor(np.zeros((2, 0, 4))), Tensor(np.zeros((2, 4))), make_params(rng, 4))


# ---------------------------------------------------------------------------
# similarity features


def test_similarity_equal_inputs(rng):
    c = Tensor(rng.normal(size=(2, 4)))
    p, d_feat = similarity_features(c, c)
    np.testing.assert_array_equal(d_feat.data, np.zeros((2, 4)))
    np.testing.assert_allclose(p.data, c.data**2, atol=1e-15)


def test_similarity_hand_computed():
    c = Tensor([[1.0, -1.0]])
    s = Tensor([[2.0, 2.0]])
    p, d_feat = similarity_features(c, s)
    np.testing.assert_array_equal(p.data, [[2.0, -2.0]])
    np.testing.assert_array_equal(d_feat.data, [[1.0, 3.0]])


def test_similarity_symmetric(rng):
    c = Tensor(rng.normal(size=(3, 5)))
    s = Tensor(rng.normal(size=(3, 5)))
    p1, d1 = similarity_features(c, s)
    p2, d2 = similarity_features(s, c)
    np.testing.assert_array_equal(p1.data, p2.data)
    np.testing.assert_array_equal(d1.data, d2.data)


# ---------------------------------------------------------------------------
# weighted features


def test_weighted_features_equal_means_gives_half(rng):
    p = Tensor(np.array([[1.0, 3.0], [0.5, 0.5]]))
    d_feat = Tensor(np.array([[2.0, 2.0], [0.25, 0.75]]))
    _, _, gamma = weighted_features(p, d_feat)
    np.testing.assert_allclose(gamma.data, [0.5, 0.5], atol=1e-12)


def test_weighted_features_partition_of_unity_exact(rng):
    for _ in range(100):
        p = Tensor(rng.normal(size=(3, 5)) * rng.uniform(0.1, 5))
        d_feat = Tensor(np.abs(rng.normal(size=(3, 5))) * rng.uniform(0.1, 5))
        p_w, d_w, gamma = weighted_features(p, d_feat)
        eta = 1.0 - gamma.data
        assert np.all(gamma.data + eta == 1.0)
        assert np.all((gamma.data > 0) & (gamma.data < 1))
        np.testing.assert_array_equal(d_w.data, eta[:, None] * d_feat.data)
        np.testing.assert_array_equal(p_w.data, gamma.data[:, None] * p.data)


def test_weighted_features_matches_scalar_oracle(rng):
    p = Tensor(rng.normal(size=(3, 5)))
    d_feat = Tensor(np.abs(rng.normal(size=(3, 5))))
    p_w, d_w, gamma = weighted_features(p, d_feat)
    pr, dr, gr = ref.weighted_features_ref(p.data.tolist(), d_feat.data.tolist())
    np.testing.assert_allclose(p_w.data, pr, atol=1e-10)
    np.testing.assert_allclose(d_w.data, dr, atol=1e-10)
    np.testing.assert_allclose(gamma.data, gr, atol=1e-10)


def test_weighted_features_gamma_permutation_invariant(rng):
    p = rng.normal(size=(2, 6))
    d_feat = np.abs(rng.normal(size=(2, 6)))
    perm = rng.permutation(6)
    _, _, g1 = weighted_features(Tensor(p), Tensor(d_feat))
    _, _, g2 = weighted_features(Tensor(p[:, perm]), Tensor(d_feat[:, perm]))
    np.testing.assert_allclose(g1.data, g2.data, atol=1e-12)


def test_weighted_features_gamma_batch_size_invariant(rng):
    p = rng.normal(size=(4, 3))
    d_feat = np.abs(rng.normal(size=(4, 3)))
    _, _, gs_full = weighted_features(Tensor(p), Tensor(d_feat))
    _, _, gs_solo = weighted_features(Tensor(p[:1]), Tensor(d_feat[:1]))
    np.testing.assert_allclose(gs_full.data[0], gs_solo.data[0], atol=1e-15)


def test_weighted_features_rejects_unknown_mode(rng):
    p = Tensor(rng.normal(size=(2, 2)))
    for mode in ("per-epoch", "per-batch-literal"):
        with pytest.raises(ValueError):
            weighted_features(p, p, gamma_mode=mode)


# ---------------------------------------------------------------------------
# z assembly


@pytest.mark.parametrize("d", [8, 64])
@pytest.mark.parametrize(
    "mode,factor",
    [("full", 4), ("only_text_features", 1), ("only_fusing", 2), ("no_abs_diff", 3), ("no_ele_prod", 3)],
)
def test_assemble_z_widths(rng, d, mode, factor):
    k = 3
    blocks = [Tensor(rng.normal(size=(k, d))) for _ in range(4)]
    z = assemble_z(*blocks, AblationConfig(mode))
    assert z.shape == (k, factor * d)
    assert AblationConfig(mode).z_width(d) == factor * d


def test_assemble_z_block_order(rng):
    k, d = 2, 5
    c, p_w, d_w, s = (Tensor(rng.normal(size=(k, d))) for _ in range(4))
    for mode in ("full", "no_abs_diff", "no_ele_prod"):
        z = assemble_z(c, p_w, d_w, s, AblationConfig(mode))
        np.testing.assert_array_equal(z.data[:, :d], c.data)
    z = assemble_z(c, p_w, d_w, s, AblationConfig("full"))
    np.testing.assert_array_equal(z.data[:, d : 2 * d], p_w.data)
    np.testing.assert_array_equal(z.data[:, 2 * d : 3 * d], d_w.data)
    np.testing.assert_array_equal(z.data[:, 3 * d :], s.data)
    # the full block sequence of every mode
    expected = {
        "full": [c, p_w, d_w, s],
        "only_text_features": [c],
        "only_fusing": [p_w, d_w],
        "no_abs_diff": [c, p_w, s],
        "no_ele_prod": [c, d_w, s],
    }
    assert tuple(expected) == ABLATION_MODES  # also the row order of the ablate table
    for mode, blocks in expected.items():
        z = assemble_z(c, p_w, d_w, s, AblationConfig(mode))
        np.testing.assert_array_equal(z.data, np.concatenate([b.data for b in blocks], axis=1))


def test_ablation_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        AblationConfig("everything")


# ---------------------------------------------------------------------------
# classifier and loss


def test_classify_zero_params_uniform(rng):
    z = Tensor(rng.normal(size=(3, 8)))
    params = classifier_params(8, 4, rng, init="zeros")
    probs = ad.softmax(classify(z, params["clf.W"], params["clf.b"]))
    np.testing.assert_allclose(probs.data, 0.25, atol=1e-12)


def test_predict_rows_sum_to_one(rng):
    z = Tensor(rng.normal(size=(6, 8)))
    params = classifier_params(8, 5, rng, init="normal")
    probs = ad.softmax(classify(z, params["clf.W"], params["clf.b"]))
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_predict_shift_invariant(rng):
    logits = rng.normal(size=(4, 5))
    a = ad.softmax(Tensor(logits)).data
    b = ad.softmax(Tensor(logits + 7.3)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("call, named", [
    (lambda p: text_attention(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5))), p, np.ones((2, 3), bool)),
     ["(2, 3, 4)", "(2, 5)"]),
    (lambda p: label_attention(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4))), p), ["(2, 3, 4)", "(3, 4)"]),
    (lambda p: weighted_features(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 5)))), ["(2, 4)", "(2, 5)"]),
    (lambda p: assemble_z(*(Tensor(np.zeros(shape)) for shape in ((2, 4), (2, 4), (2, 5), (2, 4))),
                          AblationConfig("full")), ["(2, 5)", "(2, 4)"]),
], ids=["text_attention", "label_attention", "weighted_features", "assemble_z"])
def test_head_shape_guard_names_both_shapes(rng, call, named):
    with pytest.raises(ShapeError) as err:
        call(make_params(rng, 4))
    assert all(text in str(err.value) for text in named), str(err.value)


def test_classify_width_mismatch(rng):
    z = Tensor(rng.normal(size=(3, 8)))
    params = classifier_params(16, 4, rng)
    with pytest.raises(ShapeError) as err:
        classify(z, params["clf.W"], params["clf.b"])
    assert "ablation" in str(err.value)


def test_idea_loss_lambda_zero_is_cross_entropy(rng):
    logits = Tensor(rng.normal(size=(4, 3)))
    gold = np.array([0, 1, 2, 0])
    reg = [Tensor(rng.normal(size=(3, 3)))]
    loss0 = idea_loss(logits, gold, reg, 0.0)
    ce = ad.cross_entropy(logits, gold)
    assert float(loss0.data) == float(ce.data)


def test_idea_loss_includes_weight_penalty(rng):
    logits = Tensor(rng.normal(size=(2, 3)))
    gold = np.array([0, 1])
    w = Tensor(np.full((2, 2), 2.0))
    loss = idea_loss(logits, gold, [w], 0.01)
    ce = ad.cross_entropy(logits, gold)
    np.testing.assert_allclose(float(loss.data) - float(ce.data), 0.005 * 16.0, rtol=1e-9)


def test_idea_loss_rejects_negative_lambda(rng):
    with pytest.raises(ValueError):
        idea_loss(Tensor(np.zeros((1, 2))), [0], [], -0.1)


def test_head_gradcheck_end_to_end(rng):
    # loss through both attentions, weighting, assembly and classifier
    k, n, d, n_lab = 2, 4, 5, 3
    tokens = Tensor(rng.normal(size=(k, n, d)), requires_grad=True)
    m_global = Tensor(rng.normal(size=(k, d)), requires_grad=True)
    labels = Tensor(rng.normal(size=(k, n_lab, d)), requires_grad=True)
    t_global = Tensor(rng.normal(size=(k, d)), requires_grad=True)
    params = make_params(rng, d)
    clf = classifier_params(4 * d, n_lab, rng, init="normal")
    mask = np.ones((k, n), bool)
    mask[1, 3] = False
    gold = np.array([0, 2])

    def fn():
        alpha, c = text_attention(tokens, m_global, params, mask)
        beta, s = label_attention(labels, t_global, params)
        p, d_feat = similarity_features(c, s)
        p_w, d_w, _ = weighted_features(p, d_feat)
        z = assemble_z(c, p_w, d_w, s, AblationConfig("full"))
        logits = classify(z, clf["clf.W"], clf["clf.b"])
        return idea_loss(logits, gold, [params.W_m, params.W_t, clf["clf.W"]], 0.01)

    named = {
        "tokens": tokens, "m_global": m_global, "labels": labels, "t_global": t_global,
        "W_m": params.W_m, "b_m": params.b_m, "W_t": params.W_t, "b_t": params.b_t,
        "clf.W": clf["clf.W"], "clf.b": clf["clf.b"],
    }
    report = ad.grad_check(fn, named, step=1e-5)
    assert report.max_relative_error < 1e-4


def test_ablation_modes_complete():
    assert set(ABLATION_MODES) == {"full", "only_text_features", "only_fusing", "no_abs_diff", "no_ele_prod"}
