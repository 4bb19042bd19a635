"""Acceptance suite: one test per criterion, one printed verdict line each."""
import math
import os
import time
from dataclasses import fields

import numpy as np
import pytest

import loop_reference as ref
from conftest import draw_normal_classifier
from idea import synthetic
from idea import autodiff as ad
from idea.autodiff import Tensor, grad_check
from idea.cli import gradcheck_setup, main
from idea.data import LabelSet, build_vocab, load_csv, make_batches
from idea.encoder import EncoderConfig
from idea.head import ABLATION_MODES, AblationConfig, IdeaFeatures
from idea.model import IdeaModel
from idea.training import TrainConfig, train, welch_t_test


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    worst = {}
    for seed in (0, 1, 2):
        model, _, fn = gradcheck_setup(seed)
        report = grad_check(fn, model.params, step=1e-5)
        worst[seed] = report.max_relative_error
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 60
    verdict(1, "gradient integrity", ok,
            f"max rel err per seed {[f'{v:.2e}' for v in worst.values()]}, {elapsed:.1f}s")


def run_head(tokens, m_global, labels, t_global, params, mask, mode="full"):
    """The program's head, ad.double_attention, run on each drawn instance k alone.

    The op shares one label sequence across its batch, so each instance is a
    batch of one: a zero CLS row before tokens[k] (the op drops it), query_mask
    mask[k], m_global[k] as the label sequence's pooled vector, labels[k] as
    its label vectors and t_global[k] as the document's pooled vector. Returns
    IdeaFeatures' arrays and z's blocks by name, each stacked over the instances.
    """
    blocks = AblationConfig(mode).blocks
    d = tokens.shape[-1]
    clf = Tensor(np.zeros((len(blocks) * d, 1))), Tensor(np.zeros(1))  # z's width as the blocks need it
    outs = []
    for k in range(len(tokens)):
        text = np.concatenate([np.zeros((1, d)), tokens[k]])[None]
        _, feats = ad.double_attention(Tensor(text), Tensor(t_global[k:k + 1]), Tensor(m_global[k:k + 1]),
                                       Tensor(labels[k:k + 1]), *params, *clf, mask[k:k + 1], blocks, None)
        outs.append(feats)
    named = {f.name: np.concatenate([feats[i].data for feats in outs]) for i, f in enumerate(fields(IdeaFeatures))}
    named.update(zip(blocks, np.split(named["z"], len(blocks), axis=1)))
    return named


def draw_attention_params(rng, d):
    """W_m, b_m, W_t, b_t, drawn in that order."""
    return tuple(Tensor(rng.normal(size=shape)) for shape in ((d, d), (), (d, d), ()))


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        n_lab = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        tokens = rng.normal(size=(k, n, d))
        m_global = rng.normal(size=(k, d))
        labels = rng.normal(size=(k, n_lab, d))
        t_global = rng.normal(size=(k, d))
        params = draw_attention_params(rng, d)
        W_m, b_m, W_t, b_t = (p.data for p in params)
        mask = rng.random((k, n)) > 0.3
        mask[:, 0] = True

        head = run_head(tokens, m_global, labels, t_global, params, mask)
        a_ref, c_ref = ref.text_attention_ref(tokens.tolist(), m_global.tolist(), W_m.tolist(), float(b_m),
                                              mask.tolist())
        b_ref, s_ref = ref.label_attention_ref(labels.tolist(), t_global.tolist(), W_t.tolist(), float(b_t))
        p_ref, d_ref = ref.similarity_features_ref(head["c"].tolist(), head["s"].tolist())
        pw_ref, dw_ref, g_ref = ref.weighted_features_ref(head["p"].tolist(), head["d_feat"].tolist())

        for name, want in (("alpha", a_ref), ("c", c_ref), ("beta", b_ref), ("s", s_ref),
                           ("p", p_ref), ("d_feat", d_ref), ("p_weighted", pw_ref), ("d_weighted", dw_ref),
                           ("gamma", g_ref)):
            max_err = max(max_err, float(np.max(np.abs(head[name] - np.asarray(want)))))
    elapsed = time.perf_counter() - t0
    ok = max_err < 1e-10 and elapsed < 60
    verdict(2, "oracle equivalence", ok, f"max abs deviation {max_err:.2e} on 100 instances, {elapsed:.1f}s")


def test_criterion_3_attention_laws():
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for trial in range(1000):
        k, n, n_lab, d = 3, 6, 4, 5
        tokens = rng.normal(size=(k, n, d))
        m_global = rng.normal(size=(k, d))
        labels = rng.normal(size=(k, n_lab, d))
        t_global = rng.normal(size=(k, d))
        params = draw_attention_params(rng, d)
        mask = rng.random((k, n)) > 0.4
        mask[:, 0] = True
        head = run_head(tokens, m_global, labels, t_global, params, mask)
        alpha, beta, gamma = head["alpha"], head["beta"], head["gamma"]
        eta = 1.0 - gamma

        rows_ok = (
            np.all(alpha >= 0) and np.all(alpha <= 1)
            and np.all(np.abs(alpha.sum(axis=1) - 1) <= 1e-6)
            and np.all(beta >= 0) and np.all(beta <= 1)
            and np.all(np.abs(beta.sum(axis=1) - 1) <= 1e-6)
            and np.all(alpha[~mask] == 0.0)
            and np.all(gamma + eta == 1.0)
        )
        if not rows_ok:
            ok = False
            detail = f"violated at trial {trial}"
            break
    verdict(3, "attention laws", ok, detail or "1000 instances: rows sum to 1, masked weights exactly 0, gamma+eta == 1")


def test_criterion_4_shape_contract():
    widths = {"full": 4, "only_text_features": 1, "only_fusing": 2, "no_abs_diff": 3, "no_ele_prod": 3}
    rng = np.random.default_rng(0)
    ok = True
    for d in (8, 64):
        draws = (rng.normal(size=size) for size in ((2, 5, d), (2, d), (2, 3, d), (2, d)))
        tokens, m_global, labels, t_global = draws
        params = draw_attention_params(rng, d)
        mask = np.ones((2, 5), dtype=bool)
        for mode, factor in widths.items():
            z = run_head(tokens, m_global, labels, t_global, params, mask, mode)["z"]
            if z.shape != (2, factor * d) or AblationConfig(mode).z_width(d) != factor * d:
                ok = False
    verdict(4, "shape contract", ok, "z widths 4d/d/2d/3d/3d for d in {8, 64}")


def test_criterion_5_batch_invariance(synthetic_corpus):
    docs = load_csv(synthetic_corpus["train"], 3)[:32]
    labels = LabelSet(list(synthetic_corpus["labels"]))
    vocab = build_vocab(docs, labels=labels)
    cfg = EncoderConfig(vocab_size=len(vocab), d=32, n_layers=2, n_heads=4, dropout=0.1)
    rng = np.random.default_rng(3)
    model = IdeaModel.build(cfg, labels, vocab, gamma_mode="per-sample", dtype=np.float32, rng=rng)
    draw_normal_classifier(model.params, rng)
    (batch,) = make_batches(docs, vocab, batch_size=32)
    logits_b, feats_b = model.forward(batch.token_ids, batch.pad_mask)
    preds_b = np.argmax(logits_b.data, axis=1)

    max_dz = 0.0
    preds_match = True
    for i in range(32):
        (solo,) = make_batches([docs[i]], vocab, batch_size=1)
        logits_s, feats_s = model.forward(solo.token_ids, solo.pad_mask)
        max_dz = max(max_dz, float(np.max(np.abs(feats_s.z.data[0] - feats_b.z.data[i]))))
        if int(np.argmax(logits_s.data[0])) != int(preds_b[i]):
            preds_match = False
    ok = max_dz <= 1e-6 and preds_match
    verdict(5, "batch invariance", ok, f"max |z_solo - z_batch| = {max_dz:.2e} at float32, predictions match={preds_match}")


def _criterion6_config(corpus, seed, out_dir=None):
    return TrainConfig(
        train_csv=corpus["train"], test_csv=corpus["test"], label_names=corpus["labels"],
        epochs=40, max_steps=200, seed=seed, out_dir=out_dir,
    )


def test_criterion_6_learning_sanity(synthetic_corpus):
    t0 = time.perf_counter()
    accs = []
    for seed in range(5):
        res = train(_criterion6_config(synthetic_corpus, seed), log=lambda m: None)
        accs.append(res.test_metrics.accuracy)
    elapsed = time.perf_counter() - t0
    hits = sum(a >= 0.95 for a in accs)
    ok = hits >= 4 and elapsed < 300
    verdict(6, "learning sanity", ok,
            f"test acc {[round(a, 3) for a in accs]}, {hits}/5 seeds >= 0.95, {elapsed:.0f}s")


ABLATE_FAST = ["--d", "32", "--n-layers", "1", "--lr", "1e-3",
               "--max-steps", "200", "--epochs", "40"]


def test_criterion_7_directional_ablation(noisy_corpus, capsys):
    code = main([
        "ablate", "--train-csv", noisy_corpus["train"], "--test-csv", noisy_corpus["test"],
        "--labels", ",".join(noisy_corpus["labels"]), "--seeds", "0,1,2,3,4", *ABLATE_FAST,
    ])
    stdout = capsys.readouterr().out
    with capsys.disabled():
        table = [line for line in stdout.splitlines() if not line.startswith("#")]
        rows = [line.split() for line in table if line and not line.startswith("mode")]
        means = {cells[0]: float(cells[2]) for cells in rows}
        have_ttest = all(len(cells) == 7 for cells in rows)
        ok = (
            code == 0
            and set(means) == set(ABLATION_MODES)
            and have_ttest
            and means["full"] >= means["only_text_features"]
        )
        verdict(7, "directional ablation", ok,
                f"mean acc full={means.get('full')} only_text={means.get('only_text_features')}, "
                f"5-mode table with Welch columns emitted={have_ttest}")


def test_criterion_8_welch_values():
    pairs = [
        ([94.2, 94.9, 94.6, 94.4, 94.8], [94.0, 94.1, 93.9, 94.2, 94.05],
         3.855182727502532, 5.191817157806766),
        ([3.0, 4.0, 5.0], [1.0, 2.0, 3.0], math.sqrt(6), 4.0),
        ([20.0, 21.0, 22.0, 23.0, 24.0], [30.0, 28.0, 26.0, 24.0, 22.0],
         -2.5298221281347035, 5.882352941176471),
    ]
    ok = True
    details = []
    for a, b, t_ref, df_ref in pairs:
        res = welch_t_test(a, b)
        if abs(res.t - t_ref) >= 1e-6 or abs(res.df - df_ref) >= 1e-6:
            ok = False
        details.append(f"t={res.t:.6f} df={res.df:.6f}")
    same = welch_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    ok = ok and same.t == 0.0 and same.p == 1.0
    verdict(8, "welch t-test", ok, "; ".join(details) + f"; identical -> (t={same.t}, p={same.p})")


@pytest.fixture(scope="module")
def agnews_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("agnews")
    train_csv, test_csv = str(root / "train.csv"), str(root / "test.csv")
    gen = dict(n_classes=4, label_names=["world", "sports", "business", "sci tech"],
               doc_keywords=12, doc_noise=8, keywords_per_class=10, overlap=3, confusion=0.25)
    rows, _ = synthetic.generate_rows(6000, seed=400, **gen)
    synthetic.write_csv(rows, train_csv)
    rows_t, _ = synthetic.generate_rows(1200, seed=401, **gen)
    synthetic.write_csv(rows_t, test_csv)
    return {"train": train_csv, "test": test_csv}


def test_criterion_9_desk_scale_real_format_run(agnews_corpus, tmp_path, capsys):
    out = str(tmp_path / "run")
    t0 = time.perf_counter()
    code = main([
        "train", "--dataset", "agnews", "--train-csv", agnews_corpus["train"],
        "--test-csv", agnews_corpus["test"], "--train-limit", "5000", "--test-limit", "1000",
        "--out", out, "--seed", "0",
    ])
    elapsed = time.perf_counter() - t0
    stdout = capsys.readouterr().out
    with capsys.disabled():
        with open(os.path.join(out, "metrics.txt")) as fh:
            report = dict(line.split("=", 1) for line in fh.read().splitlines())
        acc = float(report["test_accuracy"])
        ok = code == 0 and report["epochs_run"] == "2" and acc >= 0.70 and elapsed < 1800
        verdict(9, "desk-scale run", ok,
                f"AGNews-format L=4, 2 epochs, test acc {acc:.3f} (floor 0.70), {elapsed:.0f}s (< 30 min)")


def test_criterion_10_determinism(synthetic_corpus, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    train(_criterion6_config(synthetic_corpus, seed=0, out_dir=out_a), log=lambda m: None)
    train(_criterion6_config(synthetic_corpus, seed=0, out_dir=out_b), log=lambda m: None)
    with open(os.path.join(out_a, "metrics.txt"), "rb") as fa:
        blob_a = fa.read()
    with open(os.path.join(out_b, "metrics.txt"), "rb") as fb:
        blob_b = fb.read()
    ok = blob_a == blob_b
    verdict(10, "determinism", ok, f"metric reports byte-identical={ok} ({len(blob_a)} bytes)")
