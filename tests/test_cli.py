import ast
import copy
import csv
import errno
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idea
from idea.cli import _FIELD_NAMES, DATASETS, build_parser, entrypoint, gradcheck_setup, main
from idea.data import Vocab, load_csv
from idea.encoder import EncoderConfig
from idea.head import ABLATION_MODES, AblationConfig
from idea.model import IdeaModel
from idea.training import NonFiniteLossError, TrainConfig


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# make-synthetic


def test_make_synthetic_counts(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code, stdout, _ = run_cli(capsys, "make-synthetic", "--out", out, "--classes", "3", "--docs", "300")
    assert code == 0
    docs = load_csv(out, num_classes=3)
    assert len(docs) == 300
    counts = np.bincount([d.label for d in docs], minlength=3)
    assert list(counts) == [100, 100, 100]
    assert "labels: sport,finance,science" in stdout


def test_make_synthetic_label_tokens_present(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    run_cli(capsys, "make-synthetic", "--out", out, "--docs", "60", "--label-token-rate", "1.0")
    docs = load_csv(out, num_classes=3)
    names = ["sport", "finance", "science"]
    hit = sum(1 for d in docs if names[d.label] in d.text.split())
    assert hit == 60


def test_make_synthetic_deterministic_per_seed(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    run_cli(capsys, "make-synthetic", "--out", a, "--docs", "50", "--seed", "9")
    run_cli(capsys, "make-synthetic", "--out", b, "--docs", "50", "--seed", "9")
    run_cli(capsys, "make-synthetic", "--out", c, "--docs", "50", "--seed", "10")
    with open(a) as fa, open(b) as fb, open(c) as fc:
        text_a = fa.read()
        assert text_a == fb.read()
        assert text_a != fc.read()


def test_make_synthetic_custom_labels(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code, stdout, _ = run_cli(
        capsys, "make-synthetic", "--out", out, "--docs", "40", "--classes", "4",
        "--label-names", "world,sports,business,sci tech",
    )
    assert code == 0
    assert "labels: world,sports,business,sci tech" in stdout


def test_make_synthetic_names_classes_past_the_name_pool_topic_n(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "make-synthetic", "--out", str(tmp_path / "c.csv"), "--classes", "12")
    assert code == 0, err
    assert stdout.endswith(",weather,nature,topic10,topic11\n")


@pytest.mark.parametrize("args, message", [
    (["--classes", "1"], "need at least 2 classes, got 1"),
    (["--docs", "2", "--classes", "3"], "2 documents for 3 classes; need one per class"),
    (["--label-names", "a,b", "--classes", "3"], "2 label names for 3 classes"),
], ids=["one-class", "too-few-docs", "name-count"])
def test_make_synthetic_bad_class_setting_exits_1_writing_nothing(tmp_path, capsys, args, message):
    out = tmp_path / "c.csv"
    code, stdout, err = run_cli(capsys, "make-synthetic", "--out", str(out), *args)
    assert code == 1 and stdout == ""
    assert message in err and not out.exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_setup_shapes():
    model, batch, fn = gradcheck_setup(0)
    assert model.encoder_config.d == 8
    assert model.encoder_config.n_layers == 2
    assert model.n_classes == 3
    assert batch.token_ids.shape == (2, 8)  # CLS + 6 + SEP
    assert model.params["token_emb"].dtype == np.float64
    assert np.isfinite(float(fn().data))


def test_cmd_gradcheck_passes(capsys):
    code, stdout, _ = run_cli(capsys, "gradcheck", "--seeds", "0")
    assert code == 0
    assert "PASS" in stdout
    assert "max_relative_error" in stdout


def test_cmd_gradcheck_negative_seed_exits_1_before_any_check(capsys):
    code, stdout, err = run_cli(capsys, "gradcheck", "--seeds", "0,-1")
    assert code == 1 and stdout == ""
    assert "bad seed list '0,-1': seeds must be >= 0" in err


@pytest.mark.parametrize("step", ["0", "-1e-05", "inf", "nan"])
def test_cmd_gradcheck_bad_step_exits_1_before_any_check(capsys, monkeypatch, step):
    # a zero step divides by zero; a NaN one makes every error NaN
    monkeypatch.setattr("idea.cli.gradcheck_setup", lambda seed: pytest.fail("a check ran"))
    code, stdout, err = run_cli(capsys, "gradcheck", "--seeds", "0", f"--step={step}")
    assert code == 1 and stdout == ""
    assert f"--step must be positive and finite, got {float(step)}" in err


# ---------------------------------------------------------------------------
# train / eval / export-features


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train_csv, test_csv = str(root / "train.csv"), str(root / "test.csv")
    code = main(["make-synthetic", "--out", train_csv, "--docs", "240", "--seed", "11"])
    assert code == 0
    code = main(["make-synthetic", "--out", test_csv, "--docs", "90", "--seed", "12"])
    assert code == 0
    return {"train": train_csv, "test": test_csv}


FAST = ["--d", "16", "--n-layers", "1", "--n-heads", "2", "--lr", "1e-3", "--max-steps", "16"]


def test_cmd_train_and_eval(cli_corpus, tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout, _ = run_cli(
        capsys, "train", "--train-csv", cli_corpus["train"], "--test-csv", cli_corpus["test"],
        "--labels", "sport,finance,science", "--epochs", "2", "--out", out, *FAST,
    )
    assert code == 0
    assert "test_accuracy=" in stdout
    assert os.path.exists(os.path.join(out, "model.ckpt"))

    code, stdout, _ = run_cli(
        capsys, "eval", "--model-dir", out, "--test-csv", cli_corpus["test"],
    )
    assert code == 0
    assert "test_accuracy=" in stdout


FIXED_SEED_EPOCHS = """\
epoch 1: train_loss=1.1133 val_acc=0.8778
epoch 2: train_loss=1.1088 val_acc=1.0000
"""
FIXED_SEED_METRICS = """\
seed=0
epochs_run=2
selected_epoch=2
val_accuracy_epoch_1=0.8777777777777778
val_accuracy_epoch_2=1.0
test_accuracy=1.0
test_macro_precision=1.0
test_macro_recall=1.0
test_macro_f1=1.0
test_n_samples=90
test_class_0_tp=30
test_class_0_fp=0
test_class_0_fn=0
test_class_1_tp=30
test_class_1_fp=0
test_class_1_fn=0
test_class_2_tp=30
test_class_2_fp=0
test_class_2_fn=0
"""


FIXED_SEED_CKPT_SHA256 = "b4b6e29f54e05a249a408e8c1b5248163e83f7c7a75e902f740ad9eef098d445"


def test_fixed_seed_run_matches_recorded_outputs(tmp_path, capsys):
    """make-synthetic seeds 0 and 1 (300 and 90 docs), then train 2 epochs at seed 0, then eval.

    Recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (the scipy-openblas64 wheel build,
    DYNAMIC_ARCH picking Haswell kernels) on x86_64, with 1 and 2 BLAS threads alike.
    Another CPU's kernels may round differently and move a 4-decimal loss. A change
    that moves these values on purpose records the new literals and says why in
    CHANGES.md. model.ckpt is pinned by its sha256, so a change to how train keeps
    or saves the selected epoch shows here; a legitimate GEMM reordering moves
    parameters by about 7.5e-9 and so this digest, while every other value stays.
    """
    train_csv, test_csv, out = str(tmp_path / "train.csv"), str(tmp_path / "test.csv"), str(tmp_path / "run")
    assert main(["make-synthetic", "--out", train_csv, "--docs", "300", "--seed", "0"]) == 0
    assert main(["make-synthetic", "--out", test_csv, "--docs", "90", "--seed", "1"]) == 0
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, "train", "--train-csv", train_csv, "--test-csv", test_csv,
                              "--labels", "sport,finance,science", "--epochs", "2", "--seed", "0", "--out", out)
    assert code == 0
    assert re.sub(r" \(\d+\.\ds\)$", "", stdout, flags=re.M) == FIXED_SEED_EPOCHS + FIXED_SEED_METRICS
    with open(os.path.join(out, "metrics.txt"), "rb") as fh:
        assert fh.read() == FIXED_SEED_METRICS.encode("utf-8")
    with open(os.path.join(out, "model.ckpt"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == FIXED_SEED_CKPT_SHA256
    code, stdout, _ = run_cli(capsys, "eval", "--model-dir", out, "--test-csv", test_csv)
    assert code == 0
    assert stdout == "".join(line for line in FIXED_SEED_METRICS.splitlines(True) if line.startswith("test_"))


def test_cmd_export_features(cli_corpus, tmp_path, capsys):
    out = str(tmp_path / "run")
    code, _, _ = run_cli(
        capsys, "train", "--train-csv", cli_corpus["train"], "--test-csv", cli_corpus["test"],
        "--labels", "sport,finance,science", "--epochs", "1", "--out", out, *FAST,
    )
    assert code == 0
    tsv = str(tmp_path / "features.tsv")
    code, stdout, _ = run_cli(
        capsys, "export-features", "--model-dir", out, "--csv", cli_corpus["test"],
        "--out", tsv, "--limit", "30",
    )
    assert code == 0
    with open(tsv) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 30
    assert all(len(line.split("\t")) == 2 + 16 * 4 for line in lines)


@pytest.fixture(scope="module")
def trained_dir(cli_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained") / "run")
    code = main([
        "train", "--train-csv", cli_corpus["train"], "--test-csv", cli_corpus["test"],
        "--labels", "sport,finance,science", "--epochs", "1", "--out", out, *FAST,
    ])
    assert code == 0
    return out


def copy_model_dir(trained_dir, tmp_path) -> str:
    model_dir = str(tmp_path / "model")
    shutil.copytree(trained_dir, model_dir)
    return model_dir


def with_empty_document(tmp_path, csv_path) -> str:
    """A copy of csv_path with a class-2 row of empty text appended."""
    path = str(tmp_path / ("empty-" + os.path.basename(csv_path)))
    shutil.copyfile(csv_path, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('"2",""\n')
    return path


def test_train_with_empty_document_exits_0(cli_corpus, tmp_path, capsys):
    code, stdout, err = run_cli(
        capsys, "train", "--train-csv", with_empty_document(tmp_path, cli_corpus["train"]),
        "--test-csv", with_empty_document(tmp_path, cli_corpus["test"]),
        "--labels", "sport,finance,science", "--epochs", "1", *FAST,
    )
    assert code == 0, err
    assert "test_n_samples=91" in stdout


def test_eval_with_empty_document_exits_0(cli_corpus, trained_dir, tmp_path, capsys):
    test_csv = with_empty_document(tmp_path, cli_corpus["test"])
    code, stdout, err = run_cli(capsys, "eval", "--model-dir", trained_dir, "--test-csv", test_csv)
    assert code == 0, err
    assert "test_n_samples=91" in stdout


def test_eval_test_limit_above_the_row_count_evaluates_every_row(cli_corpus, trained_dir, capsys):
    args = ["eval", "--model-dir", trained_dir, "--test-csv", cli_corpus["test"]]
    code, want, err = run_cli(capsys, *args)
    assert code == 0, err
    code, stdout, err = run_cli(capsys, *args, "--test-limit", "1000")
    assert code == 0, err
    assert "test_n_samples=90" in stdout and stdout == want


def test_export_features_with_empty_document_exits_0(cli_corpus, trained_dir, tmp_path, capsys):
    csv_path = with_empty_document(tmp_path, cli_corpus["test"])
    tsv = str(tmp_path / "features.tsv")
    code, _, err = run_cli(
        capsys, "export-features", "--model-dir", trained_dir, "--csv", csv_path, "--out", tsv
    )
    assert code == 0, err
    with open(tsv) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 91
    assert lines[-1].split("\t")[0] == "1"


def empty_csv(tmp_path) -> str:
    path = str(tmp_path / "empty.csv")
    open(path, "w").close()
    return path


@pytest.mark.parametrize("empty", ["train", "test"])
def test_train_on_an_empty_csv_exits_1_naming_it(cli_corpus, tmp_path, capsys, empty):
    paths = {**cli_corpus, empty: empty_csv(tmp_path)}
    code, stdout, err = run_cli(capsys, "train", "--train-csv", paths["train"], "--test-csv", paths["test"],
                                "--labels", "sport,finance,science", "--epochs", "1", *FAST)
    assert code == 1 and stdout == ""
    assert err == f"idea: error: train: {paths[empty]} holds no documents\n"


def test_eval_on_an_empty_csv_exits_1_naming_it(trained_dir, tmp_path, capsys):
    path = empty_csv(tmp_path)
    code, stdout, err = run_cli(capsys, "eval", "--model-dir", trained_dir, "--test-csv", path)
    assert code == 1 and stdout == ""
    assert err == f"idea: error: eval: {path} holds no documents\n"


def test_export_features_on_an_empty_csv_exits_1_naming_it(trained_dir, tmp_path, capsys):
    path, tsv = empty_csv(tmp_path), str(tmp_path / "features.tsv")
    code, stdout, err = run_cli(capsys, "export-features", "--model-dir", trained_dir, "--csv", path, "--out", tsv)
    assert code == 1 and stdout == ""
    assert err == f"idea: error: export-features: {path} holds no documents\n"
    assert not os.path.exists(tsv)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_out_path_that_is_a_file_exits_1_before_training(cli_corpus, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    code, stdout, err = run_cli(capsys, command, "--train-csv", cli_corpus["train"], "--test-csv",
                                cli_corpus["test"], "--labels", "sport,finance,science", "--epochs", "1",
                                "--out", str(out), *FAST, *(["--seeds", "0"] if command == "ablate" else []))
    assert code == 1 and str(out) in err
    assert stdout == ""  # no epoch line, no "#" run line, no table
    assert out.read_text() == "not a directory\n"
    out.unlink()
    out.mkdir()  # an existing directory keeps working
    code, _, err = run_cli(capsys, command, "--train-csv", cli_corpus["train"], "--test-csv",
                           cli_corpus["test"], "--labels", "sport,finance,science", "--epochs", "1",
                           "--out", str(out), *FAST, *(["--seeds", "0"] if command == "ablate" else []))
    assert code == 0, err
    assert (out / ("model.ckpt" if command == "train" else "ablation.tsv")).exists()


@pytest.fixture()
def full_disk(monkeypatch):
    """full_disk(name): a file opened for writing whose name starts with name fails on its first write."""
    real_open = open

    def arm(name):
        def fake_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and os.path.basename(str(file)).startswith(name):
                real_write = fh.write

                def write(text):
                    real_write(text[:1])
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = write
            return fh

        monkeypatch.setattr("builtins.open", fake_open)

    return arm


def keeps_previous_file(directory, name):
    """Write 'previous' to directory/name; the returned check asserts it is intact and no temp file is left."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("previous\n")

    def check():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "previous\n"
        assert not [f for f in os.listdir(directory) if f.endswith(".tmp")]

    return check


def test_failed_timing_write_keeps_previous_file(cli_corpus, tmp_path, capsys, full_disk):
    out = str(tmp_path / "run")
    check = keeps_previous_file(out, "timing.txt")
    full_disk("timing.txt")
    code, _, err = run_cli(
        capsys, "train", "--train-csv", cli_corpus["train"], "--test-csv", cli_corpus["test"],
        "--labels", "sport,finance,science", "--epochs", "1", "--out", out, *FAST,
    )
    assert code == 1 and "No space left" in err
    check()


def test_failed_export_write_keeps_previous_file(cli_corpus, trained_dir, tmp_path, capsys, full_disk):
    check = keeps_previous_file(str(tmp_path), "features.tsv")
    full_disk("features.tsv")
    code, _, err = run_cli(
        capsys, "export-features", "--model-dir", trained_dir, "--csv", cli_corpus["test"],
        "--out", str(tmp_path / "features.tsv"), "--limit", "30",
    )
    assert code == 1 and "No space left" in err
    check()


def test_failed_synthetic_write_keeps_previous_file(tmp_path, capsys, full_disk):
    check = keeps_previous_file(str(tmp_path), "corpus.csv")
    full_disk("corpus.csv")
    code, _, err = run_cli(capsys, "make-synthetic", "--out", str(tmp_path / "corpus.csv"), "--docs", "30")
    assert code == 1 and "No space left" in err
    check()


def with_header(data: bytes, edit) -> bytes:
    """The checkpoint bytes with the JSON header replaced by edit(header)."""
    size = int.from_bytes(data[8:16], "little")
    blob = json.dumps(edit(json.loads(data[16:16 + size]))).encode("utf-8")
    return data[:8] + len(blob).to_bytes(8, "little") + blob + data[16 + size:]


def with_params(header: dict, params: list) -> dict:
    return {**header, "params": params}


def with_vocab(header: dict, edit) -> dict:
    return {**header, "vocab": edit(list(header["vocab"]))}


HEADER_DAMAGE = {
    "no-vocab": lambda h: {k: v for k, v in h.items() if k != "vocab"},
    "no-crc32": lambda h: {k: v for k, v in h.items() if k != "crc32"},
    "renamed": lambda h: with_params(h, h["params"][:-1] + [{**h["params"][-1], "name": "clf.bias"}]),
    "swapped": lambda h: with_params(h, [h["params"][1], h["params"][0]] + h["params"][2:]),
    "string-shape": lambda h: with_params(h, [{**h["params"][0], "shape": ["64", 5]}] + h["params"][1:]),
    "missing-param": lambda h: with_params(h, h["params"][:-1]),
    "extra-param": lambda h: with_params(h, h["params"] + [h["params"][-1]]),
    "vocab-duplicate": lambda h: with_vocab(h, lambda v: v[:-1] + [v[4]]),
    "vocab-no-specials": lambda h: with_vocab(h, lambda v: v[4:] + v[:4]),
    "vocab-non-string": lambda h: with_vocab(h, lambda v: v[:5] + [5] + v[6:]),
    "vocab-length": lambda h: with_vocab(h, lambda v: v[:-1]),
    "vocab-no-label-token": lambda h: with_vocab(h, lambda v: ["sports" if t == "sport" else t for t in v]),
    "zero-heads": lambda h: {**h, "encoder": {**h["encoder"], "n_heads": 0}},
    "string-dropout": lambda h: {**h, "encoder": {**h["encoder"], "dropout": "x"}},
    "bool-d": lambda h: {**h, "encoder": {**h["encoder"], "d": True}},
    "float-layers": lambda h: {**h, "encoder": {**h["encoder"], "n_layers": 2.0}},
    "empty-label-name": lambda h: {**h, "label_names": ["", *h["label_names"][1:]]},
}


@pytest.mark.parametrize("damage", ["cut", "pad", "body-flip", "no-vocab", "renamed", "swapped"])
def test_eval_damaged_checkpoint_exits_1(cli_corpus, trained_dir, tmp_path, capsys, damage):
    model_dir = copy_model_dir(trained_dir, tmp_path)
    ckpt = os.path.join(model_dir, "model.ckpt")
    with open(ckpt, "rb") as fh:
        data = fh.read()
    if damage == "body-flip":  # XOR the exponent of token_emb's first float, which loaded silently before
        body = 16 + int.from_bytes(data[8:16], "little")
        data = data[:body + 3] + bytes([data[body + 3] ^ 0x40]) + data[body + 4:]
    with open(ckpt, "wb") as fh:
        if damage in HEADER_DAMAGE:
            fh.write(with_header(data, HEADER_DAMAGE[damage]))
        else:
            fh.write({"cut": data[:-1], "pad": data + b"\x00"}.get(damage, data))
    code, _, err = run_cli(capsys, "eval", "--model-dir", model_dir, "--test-csv", cli_corpus["test"])
    assert code == 1
    assert ckpt in err


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_eval_bad_header_exits_1_before_reading_the_csv(trained_dir, tmp_path, capsys, damage):
    model_dir = copy_model_dir(trained_dir, tmp_path)
    ckpt = os.path.join(model_dir, "model.ckpt")
    with open(ckpt, "rb") as fh:
        data = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(with_header(data, HEADER_DAMAGE[damage]))
    code, _, err = run_cli(capsys, "eval", "--model-dir", model_dir, "--test-csv", "/no/such.csv")
    assert code == 1
    assert f"idea: error: {ckpt}: " in err and "/no/such.csv" not in err


def test_eval_older_checkpoint_format_exits_1_asking_to_retrain(trained_dir, tmp_path, capsys):
    model_dir = copy_model_dir(trained_dir, tmp_path)
    ckpt = os.path.join(model_dir, "model.ckpt")
    with open(ckpt, "rb") as fh:
        data = fh.read()
    assert data[:8] == b"IDEACKP2"
    # the older header also recorded gamma_mode and the encoder's ffn_dim and layer_norm_eps
    old = with_header(data, lambda h: {**h, "gamma_mode": "per-sample", "encoder": {
        **h["encoder"], "ffn_dim": 4 * h["encoder"]["d"], "layer_norm_eps": 1e-12}})
    with open(ckpt, "wb") as fh:
        fh.write(b"IDEACKP1" + old[8:])
    code, _, err = run_cli(capsys, "eval", "--model-dir", model_dir, "--test-csv", "/no/such.csv")
    assert code == 1
    assert err == (f"idea: error: {ckpt}: checkpoint format IDEACKP1 is older than this program's IDEACKP2; "
                   "retrain the model\n")


def test_eval_header_describing_a_huge_model_exits_1_without_allocating_its_body(trained_dir, tmp_path, capsys):
    """d = 2**20 and a params list to match: about 52 TiB of float32 that the file does not hold."""
    model_dir = copy_model_dir(trained_dir, tmp_path)
    ckpt = os.path.join(model_dir, "model.ckpt")
    with open(ckpt, "rb") as fh:
        data = fh.read()

    def huge(h):
        encoder = {**h["encoder"], "d": 2**20}
        model = IdeaModel(EncoderConfig(**encoder), h["label_names"], Vocab(h["vocab"]),
                          ablation=AblationConfig(h["ablation"]), params={})
        return {**h, "encoder": encoder,
                "params": [{"name": name, "shape": list(shape)} for name, shape, _ in model.param_specs()]}

    with open(ckpt, "wb") as fh:
        fh.write(with_header(data, huge))
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "eval", "--model-dir", model_dir, "--test-csv", "/no/such.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and err.startswith(f"idea: error: {ckpt}: truncated checkpoint")
    assert peak < 2**25  # the header and an empty model, never the body


# one value of each JSON type; a field is replaced only by a value of another type
FUZZ_VALUES = [None, True, 0, -1, 3, 1.5, "", "x", [], [0], {}, {"x": 0}]


def header_fields(header: dict) -> list[tuple]:
    """Paths to each top-level value, encoder field and entry of vocab, label_names and params."""
    return ([(key,) for key in header] + [("encoder", key) for key in header["encoder"]]
            + [(key, i) for key in ("vocab", "label_names", "params") for i in range(len(header[key]))])


def get_field(header: dict, path: tuple):
    for key in path:
        header = header[key]
    return header


def set_field(header: dict, path: tuple, value) -> dict:
    header = copy.deepcopy(header)
    get_field(header, path[:-1])[path[-1]] = value
    return header


@pytest.fixture(scope="module")
def fuzz_target(cli_corpus, trained_dir, tmp_path_factory):
    """A model directory to damage, a 12-row CSV, and the checkpoint's bytes, header and section ends."""
    root = tmp_path_factory.mktemp("fuzz")
    model_dir = copy_model_dir(trained_dir, root)
    csv_path = str(root / "test.csv")
    with open(cli_corpus["test"], encoding="utf-8") as src, open(csv_path, "w", encoding="utf-8") as dst:
        dst.writelines(src.readlines()[:12])
    ckpt = os.path.join(model_dir, "model.ckpt")
    with open(ckpt, "rb") as fh:
        data = fh.read()
    size = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + size])
    ends = [8, 16, 16 + size]  # magic, header size, header, then each parameter
    for entry in header["params"][:-1]:
        ends.append(ends[-1] + 4 * int(np.prod(entry["shape"])))
    assert ends[-1] + 4 * int(np.prod(header["params"][-1]["shape"])) == len(data)
    return SimpleNamespace(model_dir=model_dir, ckpt=ckpt, csv=csv_path, data=data, header=header, ends=ends)


@settings(max_examples=400)
@given(st.data())
def test_damaged_checkpoint_exits_0_or_1_naming_it(fuzz_target, data):
    t = fuzz_target
    kind = data.draw(st.sampled_from(["field", "cut", "flip", "append"]))
    if kind == "field":
        path, value = data.draw(st.sampled_from([(p, v) for p in header_fields(t.header) for v in FUZZ_VALUES
                                                 if type(v) is not type(get_field(t.header, p))]))
        damaged = with_header(t.data, lambda h: set_field(h, path, value))
    elif kind == "cut":
        damaged = t.data[:data.draw(st.sampled_from([0, *t.ends]))]
    elif kind == "append":  # junk after the body
        damaged = t.data + data.draw(st.binary(min_size=1, max_size=64))
    else:
        start, stop = data.draw(st.sampled_from([(0, 16), (16, t.ends[2]), (t.ends[2], len(t.data))]))
        pos = data.draw(st.integers(start, stop - 1))  # in magic and size, the JSON header, or the body
        damaged = bytearray(t.data)
        damaged[pos] ^= data.draw(st.integers(1, 255))
    with open(t.ckpt, "wb") as fh:
        fh.write(damaged)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["eval", "--model-dir", t.model_dir, "--test-csv", t.csv])
    # a damaged value may still be a valid one (say, dropout = 0): then eval runs
    assert code in ((1,) if kind in ("cut", "append") else (0, 1)), err.getvalue()
    assert code == 0 or t.ckpt in err.getvalue(), err.getvalue()


def run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# commas, quotes and line breaks make the writer quote a field
CSV_ROW = st.tuples(st.integers(0, 4), st.lists(st.text(alphabet='ab ,"\n', max_size=6), min_size=1, max_size=2))


@settings(max_examples=150)
@given(rows=st.lists(st.none() | CSV_ROW, min_size=1, max_size=6).filter(lambda rows: any(rows)),
       line_end=st.sampled_from(["\n", "\r\n"]))
def test_csv_rows_exit_0_or_1_naming_the_row(trained_dir, tmp_path_factory, rows, line_end):
    """Class indexes 0 to 4 over 3 classes, LF or CRLF line ends, line breaks in quoted fields, blank lines (None)."""
    text, line, bad = io.StringIO(), 1, None
    writer = csv.writer(text, lineterminator=line_end)
    for row in rows:
        start = len(text.getvalue())
        if row is None:
            text.write(line_end)
        else:
            writer.writerow([row[0], *row[1]])
            if bad is None and not 1 <= row[0] <= 3:
                bad = f"{line}: class index {row[0]} out of range"
        line += text.getvalue()[start:].count("\n")
    path = str(tmp_path_factory.getbasetemp() / "rows.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.getvalue())
    code, out, err = run_quietly(["eval", "--model-dir", trained_dir, "--test-csv", path])
    if bad is None:
        assert (code, err) == (0, "") and f"test_n_samples={sum(r is not None for r in rows)}\n" in out
    else:
        assert (code, err) == (1, f"idea: error: {path}:{bad}\n")


def wrong_json_type(action, value) -> bool:
    """Whether the --config file must refuse value for the flag: only a string fits a string flag;
    a number, or a string its type reads, fits a number flag."""
    if isinstance(value, (bool, list, dict)):
        return True
    if action.type is None:
        return not isinstance(value, str)
    return value == "x" or (action.type is int and isinstance(value, float))


TRAIN_FLAGS = build_parser().parse_args(["train"]).train_flags
VALID_CONFIG = {"train_csv": "a.csv", "test_csv": "b.csv", "labels": "a,b", "epochs": 2, "lr": 1e-3, "d": 16,
                "dropout": 0.2, "ablation": "no-abs-diff", "out": "run"}


@settings(max_examples=150)
@given(case=st.sampled_from([(key, value) for key in sorted(TRAIN_FLAGS)
                             for value in (True, False, 3, 1.5, "x", [], ["a"], {}, {"a": 1})
                             if wrong_json_type(TRAIN_FLAGS[key], value)]),
       others=st.sets(st.sampled_from(sorted(VALID_CONFIG))), crlf=st.booleans())
def test_config_value_of_a_wrong_json_type_exits_1_naming_the_key(tmp_path_factory, case, others, crlf):
    key, value = case
    config = {**{k: VALID_CONFIG[k] for k in sorted(others)}, key: value}
    path = str(tmp_path_factory.getbasetemp() / "config.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(config, indent=1).replace("\n", "\r\n" if crlf else "\n"))
    with mock.patch("idea.cli.train", lambda config, log=None: pytest.fail(f"{key}={value!r} reached train")):
        code, _, err = run_quietly(["train", "--config", path])
    assert code == 1 and f"idea: error: {path}: key {key!r}: invalid value {value!r}" in err, err


def test_eval_max_len_beyond_checkpoint_exits_1(trained_dir, capsys):
    # the CSV does not exist: the check must fire before any data is read
    code, _, err = run_cli(
        capsys, "eval", "--model-dir", trained_dir, "--test-csv", "/no/such.csv",
        "--max-len", "511",
    )
    assert code == 1
    assert "--max-len 511" in err and "max_positions - 2 = 510" in err


@pytest.mark.parametrize("vocab_txt", ["permuted", "deleted"])
@pytest.mark.parametrize("command", ["eval", "export-features"])
def test_output_ignores_vocab_txt(cli_corpus, trained_dir, tmp_path, capsys, command, vocab_txt):
    # the checkpoint's header holds the vocabulary; vocab.txt is only a readable copy
    tsv = str(tmp_path / "features.tsv")
    args = ["--test-csv", cli_corpus["test"]] if command == "eval" else ["--csv", cli_corpus["test"], "--out", tsv]

    def output(model_dir):
        code, stdout, err = run_cli(capsys, command, "--model-dir", model_dir, *args)
        assert code == 0, err
        if command == "eval":
            return stdout
        with open(tsv, encoding="utf-8") as fh:
            return stdout + fh.read()

    want = output(trained_dir)
    model_dir = copy_model_dir(trained_dir, tmp_path)
    vocab_path = os.path.join(model_dir, "vocab.txt")
    if vocab_txt == "deleted":
        os.remove(vocab_path)
    else:  # reverse every token but the specials, the label tokens and ","
        with open(vocab_path, encoding="utf-8") as fh:
            tokens = fh.read().split("\n")
        fixed = {"[PAD]", "[UNK]", "[CLS]", "[SEP]", "sport", "finance", "science", ",", ""}
        slots = [i for i, t in enumerate(tokens) if t not in fixed]
        for i, t in zip(slots, reversed([tokens[i] for i in slots])):
            tokens[i] = t
        with open(vocab_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens))
    assert output(model_dir) == want


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, key, field", [("--lr", "lr", "learning_rate"), ("--lambda", "lambda_l2", "lambda_l2")],
                         ids=["lr", "lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_rate_exits_1_before_reading_the_csv(tmp_path, capsys, source, flag, key, field, value):
    args = ["--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv", "--labels", "a,b"]
    if source == "flag":
        args += [flag, value]
    else:  # JSON's NaN and Infinity
        args += ["--config", write_config(tmp_path, f'{{"{key}": {"NaN" if value == "nan" else "Infinity"}}}')]
    code, _, err = run_cli(capsys, "train", *args)
    assert code == 1
    assert f"TrainConfig.{field} " in err and "/no/such.csv" not in err


def test_train_max_len_beyond_positions_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "train", "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
        "--labels", "a,b", "--max-len", "511",
    )
    assert code == 1
    assert "max_len 511" in err


@pytest.mark.parametrize("flag, field", [
    ("--train-limit", "train_limit"), ("--test-limit", "test_limit"), ("--max-steps", "max_steps"),
    ("--max-len", "max_len"), ("--min-freq", "min_freq"), ("--batch-size", "batch_size"), ("--epochs", "epochs"),
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_train_limit_below_one_exits_1_before_reading_the_csv(capsys, flag, field, value):
    code, _, err = run_cli(capsys, "train", "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
                           "--labels", "a,b", flag, value)
    assert code == 1
    assert f"TrainConfig.{field} must be >= 1, got {value}" in err and "/no/such.csv" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
    ("--d", "0", "d must be a positive integer, got 0"),
    ("--n-layers", "0", "n_layers must be a positive integer, got 0"),
    ("--n-heads", "3", "d=64 not divisible by n_heads=3"),
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_bad_encoder_setting_exits_1_before_reading_the_csv(capsys, command, flag, value, message):
    code, _, err = run_cli(capsys, command, "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
                           "--labels", "a,b", flag, value)
    assert code == 1
    assert message in err and "/no/such.csv" not in err


@pytest.mark.parametrize("labels, message", [
    ([], "train: label names required (--labels or --dataset)"),
    (["--labels", "a,,b"], "train: empty label name in --labels"),
    (["--labels", "world"], "train: need at least two label names"),
], ids=["none", "empty-name", "one-name"])
def test_train_bad_label_names_exit_1_before_reading_the_csv(capsys, labels, message):
    code, out, err = run_cli(capsys, "train", "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv", *labels)
    assert code == 1 and out == ""
    assert message in err and "/no/such.csv" not in err


def test_train_negative_seed_exits_1_before_reading_the_csv(capsys):
    code, _, err = run_cli(capsys, "train", "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
                           "--labels", "a,b", "--seed", "-1")
    assert code == 1
    assert "TrainConfig.seed must be >= 0, got -1" in err and "/no/such.csv" not in err


@pytest.mark.parametrize("value", ["4", "0", "-5"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_vocab_cap_with_no_room_for_a_corpus_token_exits_1_before_reading_the_csv(capsys, command, value):
    code, _, err = run_cli(capsys, command, "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
                           "--labels", "a,b", "--vocab-max-size", value)
    assert code == 1
    assert f"TrainConfig.vocab_max_size must be > 4 (the special tokens), got {value}" in err
    assert "/no/such.csv" not in err


def test_vocab_cap_of_five_trains(cli_corpus, capsys):
    code, stdout, err = run_cli(capsys, "train", "--train-csv", cli_corpus["train"], "--test-csv",
                                cli_corpus["test"], "--labels", "sport,finance,science", "--epochs", "1",
                                "--vocab-max-size", "5", *FAST)
    assert code == 0, err
    assert "test_accuracy=" in stdout


@pytest.mark.parametrize("command, csv_flag, flag", [
    ("eval", "--test-csv", "--test-limit"), ("export-features", "--csv", "--limit"),
    ("eval", "--test-csv", "--max-len"), ("export-features", "--csv", "--max-len"),
    ("eval", "--test-csv", "--batch-size"), ("export-features", "--csv", "--batch-size"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_below_one_exits_1(tmp_path, capsys, command, csv_flag, flag, value):
    args = [command, "--model-dir", str(tmp_path / "no_model"), csv_flag, "/no/such.csv", flag, value]
    if command == "export-features":
        args += ["--out", str(tmp_path / "features.tsv")]
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert f"argument {flag}: must be >= 1, got {value}" in err


@pytest.mark.parametrize("command, args", [
    ("eval", ["--model-dir", "/no/such/dir", "--test-csv", "/no/such.csv", "--test-limit", "10"]),
    ("export-features", ["--model-dir", "/no/such/dir", "--csv", "/no/such.csv", "--limit", "5",
                         "--out", "/no/such/features.tsv"]),
    ("make-synthetic", ["--out", "/no/such/corpus.csv"]),
])
def test_negative_seed_exits_1_naming_the_flag(capsys, command, args):
    code, out, err = run_cli(capsys, command, *args, "--seed", "-1")
    assert code == 1 and out == ""
    assert "argument --seed: must be >= 0, got -1" in err and "/no/such" not in err


def test_dataset_preset_fills_labels_and_epochs(cli_corpus, tmp_path, capsys):
    # agnews preset: 4 labels, 2 epochs; corpus must be 4-class to match
    train_csv = str(tmp_path / "ag_train.csv")
    test_csv = str(tmp_path / "ag_test.csv")
    main(["make-synthetic", "--out", train_csv, "--docs", "200", "--classes", "4",
          "--label-names", "world,sports,business,sci tech", "--seed", "5"])
    main(["make-synthetic", "--out", test_csv, "--docs", "80", "--classes", "4",
          "--label-names", "world,sports,business,sci tech", "--seed", "6"])
    code, stdout, _ = run_cli(
        capsys, "train", "--dataset", "agnews", "--train-csv", train_csv,
        "--test-csv", test_csv, *FAST,
    )
    assert code == 0
    assert "epochs_run=2" in stdout


def test_config_file_precedence(cli_corpus, tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"epochs": 1, "d": 16, "n_layers": 1, "n_heads": 2,
                   "lr": 1e-3, "max_steps": 8, "labels": "sport,finance,science",
                   "train_csv": cli_corpus["train"], "test_csv": cli_corpus["test"]}, fh)
    # config file supplies everything
    code, stdout, _ = run_cli(capsys, "train", "--config", cfg_path)
    assert code == 0
    assert "epochs_run=1" in stdout
    # explicit flag wins over the file
    code, stdout, _ = run_cli(capsys, "train", "--config", cfg_path, "--epochs", "2")
    assert code == 0
    assert "epochs_run=2" in stdout


def test_config_file_with_a_bom(tmp_path, capsys, train_calls):
    path = str(tmp_path / "cfg.json")
    with open(path, "w", encoding="utf-8-sig") as fh:  # as some Windows editors save it
        json.dump({**CSVS, "labels": "a,b", "epochs": 3}, fh)
    code, _, err = run_cli(capsys, "train", "--config", path)
    assert code == 0, err
    assert train_calls == [TrainConfig(**CSVS, label_names=["a", "b"], epochs=3)]


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"learning_rate_typo": 1}, fh)
    code, _, err = run_cli(capsys, "train", "--config", cfg_path)
    assert code == 1
    assert "unknown config keys" in err


@pytest.fixture()
def train_calls(monkeypatch):
    """Replace idea.cli.train with a recorder of the TrainConfigs it is given."""
    calls = []

    def fake_train(config, log=None):
        calls.append(config)
        return SimpleNamespace(report=lambda: "", test_metrics=SimpleNamespace(accuracy=0.5))

    monkeypatch.setattr("idea.cli.train", fake_train)
    return calls


def write_config(tmp_path, obj) -> str:
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


CSVS = {"train_csv": "a.csv", "test_csv": "b.csv"}
CSV_FLAGS = ["--train-csv", "a.csv", "--test-csv", "b.csv"]
AGNEWS, YAHOO, YELPF = (DATASETS[name][0] for name in ("agnews", "yahoo", "yelpf"))


@pytest.mark.parametrize("file_cfg, flags, expected", [
    # preset only
    (None, ["--dataset", "agnews"], {"label_names": AGNEWS, "epochs": 2}),
    # flags beat the preset
    (None, ["--dataset", "agnews", "--labels", "x, y"], {"label_names": ["x", "y"], "epochs": 2}),
    (None, ["--dataset", "agnews", "--epochs", "7"], {"label_names": AGNEWS, "epochs": 7}),
    # dataset given only inside the file
    ({"dataset": "yelpf"}, [], {"label_names": YELPF, "epochs": 5}),
    # flags beat the file
    ({"labels": "p,q", "epochs": 1, "lr": 1e-3}, ["--epochs", "3"],
     {"label_names": ["p", "q"], "epochs": 3, "learning_rate": 1e-3}),
    # the file beats a preset named by a flag
    ({"labels": "p,q", "epochs": 4}, ["--dataset", "yahoo"], {"label_names": ["p", "q"], "epochs": 4}),
    ({"epochs": 4}, ["--dataset", "yahoo"], {"label_names": YAHOO, "epochs": 4}),
    # null leaves the key unset; strings go through the flag's type
    ({"dataset": "yahoo", "labels": None, "epochs": "3"}, [], {"label_names": YAHOO, "epochs": 3}),
    ({"labels": "p,q", "ablation": "no-abs-diff", "out": "run", "lambda_l2": 0}, [],
     {"label_names": ["p", "q"], "ablation": "no_abs_diff", "out_dir": "run", "lambda_l2": 0.0}),
])
def test_train_config_precedence(tmp_path, capsys, train_calls, file_cfg, flags, expected):
    args = ["train", *flags]
    if file_cfg is None:
        args += CSV_FLAGS
    else:
        args += ["--config", write_config(tmp_path, {**CSVS, **file_cfg})]
    code, _, err = run_cli(capsys, *args)
    assert code == 0, err
    assert train_calls == [TrainConfig(**CSVS, **expected)]


def test_ablate_runs_every_mode_and_seed_from_one_base(tmp_path, capsys, train_calls):
    out = str(tmp_path / "sweep")
    code, _, err = run_cli(capsys, "ablate", "--dataset", "yelpp", *CSV_FLAGS,
                           "--seeds", "3,4", "--lr", "0.5", "--out", out)
    assert code == 0, err
    assert os.path.exists(os.path.join(out, "ablation.tsv"))
    base = TrainConfig(**CSVS, label_names=["negative", "positive"], epochs=5, learning_rate=0.5)
    assert train_calls == [
        replace(base, ablation=mode, seed=seed) for mode in ABLATION_MODES for seed in (3, 4)
    ]


def test_ablate_negative_seed_exits_1_before_any_run(capsys, train_calls):
    code, _, err = run_cli(capsys, "ablate", "--labels", "a,b", *CSV_FLAGS, "--seeds", "0,-1")
    assert code == 1 and train_calls == []
    assert "bad seed list '0,-1': seeds must be >= 0" in err


@pytest.mark.parametrize("seeds, message", [
    ("x", "bad seed list 'x'"),
    (",", "empty seed list"),
    ("0,1,0", "bad seed list '0,1,0': seed 0 repeats"),
], ids=["malformed", "empty", "repeated"])
@pytest.mark.parametrize("command", ["ablate", "gradcheck"])
def test_bad_seed_list_exits_1_before_any_run(capsys, monkeypatch, train_calls, command, seeds, message):
    monkeypatch.setattr("idea.cli.gradcheck_setup", lambda seed: pytest.fail("a check ran"))
    args = ["--labels", "a,b", *CSV_FLAGS] if command == "ablate" else []
    code, out, err = run_cli(capsys, command, *args, "--seeds", seeds)
    assert code == 1 and out == "" and train_calls == []
    assert message in err


def test_failed_ablation_table_write_keeps_previous_file(tmp_path, capsys, train_calls, full_disk):
    out = str(tmp_path / "sweep")
    check = keeps_previous_file(out, "ablation.tsv")
    full_disk("ablation.tsv")
    code, _, err = run_cli(capsys, "ablate", "--labels", "a,b", *CSV_FLAGS, "--seeds", "3", "--out", out)
    assert code == 1 and "No space left" in err
    check()


@pytest.mark.parametrize("file_cfg, key", [
    ({"epochs": 2.5}, "epochs"),
    ({"epochs": True}, "epochs"),
    ({"labels": ["a", "b"]}, "labels"),
    ({"ablation": "bogus"}, "ablation"),
    ({"dataset": "nope"}, "dataset"),
    ({"max_steps": "x"}, "max_steps"),
    ({"lr": "fast"}, "lr"),
    ('{"epochs": 2,', None),  # malformed JSON
    ('[{"epochs": 2}]', None),  # an array, not an object
])
def test_config_file_bad_value_exits_1(tmp_path, capsys, train_calls, file_cfg, key):
    if isinstance(file_cfg, dict):
        file_cfg = {**CSVS, "labels": "a,b", **file_cfg}
    path = write_config(tmp_path, file_cfg)
    code, _, err = run_cli(capsys, "train", "--config", path)
    assert code == 1
    assert path in err
    if key is not None:
        assert repr(key) in err
    assert train_calls == []


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("flag, value", [
    ("--gamma-mode", "per-batch-literal"), ("--backend", "bag-of-embeddings"),
])
def test_removed_model_flag_exits_1(capsys, train_calls, command, flag, value):
    code, _, err = run_cli(capsys, command, "--labels", "a,b", *CSV_FLAGS, flag, value)
    assert code == 1
    assert flag in err
    assert train_calls == []


@pytest.mark.parametrize("key, value", [
    ("gamma_mode", "per-batch-literal"), ("gamma_mode", "per-sample"),
    ("backend", "bag-of-embeddings"), ("backend", "mini-transformer"),
])
def test_config_file_removed_model_key_exits_1(tmp_path, capsys, train_calls, key, value):
    path = write_config(tmp_path, {**CSVS, "labels": "a,b", key: value})
    code, _, err = run_cli(capsys, "train", "--config", path)
    assert code == 1
    assert f"{path}: unknown config keys: {key}" in err
    assert train_calls == []


# ---------------------------------------------------------------------------
# exit codes and help


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "train", "--does-not-exist")
    assert code == 1


def test_missing_required_inputs_exits_1(capsys):
    code, _, err = run_cli(capsys, "train")
    assert code == 1
    assert "error" in err


def test_missing_dataset_file_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "train", "--train-csv", "/no/such.csv", "--test-csv", "/no/such.csv",
        "--labels", "a,b",
    )
    assert code == 1


def test_non_finite_loss_exits_2_naming_the_error(capsys, monkeypatch):
    def diverge(config, log=None):
        raise NonFiniteLossError("non-finite loss nan at step 3 (epoch 1, lr 0.5, grad_norm 7.0 (previous step))")

    monkeypatch.setattr("idea.cli.train", diverge)
    code, out, err = run_cli(capsys, "train", "--labels", "a,b", *CSV_FLAGS)
    assert code == 2 and out == ""
    assert err == ("idea: runtime failure: NonFiniteLossError: non-finite loss nan at step 3 "
                   "(epoch 1, lr 0.5, grad_norm 7.0 (previous step))\n")


def test_entrypoint_exits_with_the_code_main_returns(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["idea", "gradcheck", "--seeds", "x"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 1
    assert "bad seed list 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--train-csv"])
def test_directory_input_path_exits_1(tmp_path, capsys, flag):
    # the directory exists, so only reading it as a file fails
    code, _, err = run_cli(
        capsys, "train", flag, str(tmp_path), "--test-csv", str(tmp_path), "--labels", "a,b"
    )
    assert code == 1
    assert str(tmp_path) in err
    assert "runtime failure" not in err


def test_help_lists_flags_with_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["train", "--help"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    for flag in ("--train-csv", "--test-csv", "--labels", "--epochs", "--lr",
                 "--batch-size", "--lambda", "--dropout", "--seed", "--ablation",
                 "--train-limit", "--test-limit", "--out"):
        assert flag in stdout
    assert "--gamma-mode" not in stdout and "--backend" not in stdout
    assert "5e-05" in stdout  # learning rate default
    assert "32" in stdout  # batch size default
    assert "0.01" in stdout  # lambda default
    assert "0.1" in stdout  # dropout default


def test_train_config_fields_are_the_train_flags():
    flags = build_parser().parse_args(["train"]).train_flags
    assert {f.name for f in fields(TrainConfig)} == {
        _FIELD_NAMES.get(dest, dest) for dest in flags if dest != "dataset"}


def test_dataset_presets_match_expected_shapes():
    assert len(DATASETS["agnews"][0]) == 4
    assert len(DATASETS["dbpedia"][0]) == 14
    assert len(DATASETS["yahoo"][0]) == 10
    assert DATASETS["yelpp"][0] == ["negative", "positive"]
    assert DATASETS["yelpf"][0] == ["bad", "poor", "fair", "good", "excellent"]
    # per-dataset default epochs
    assert [DATASETS[k][1] for k in ("agnews", "dbpedia", "yahoo", "yelpp", "yelpf")] == [2, 3, 2, 5, 5]


def test_importing_the_cli_leaves_scipy_unloaded():
    # numpy is the only dependency: Welch's t tail is computed in the package, with no scipy
    src = os.path.dirname(os.path.dirname(idea.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, idea.cli, idea.training; idea.training.welch_t_test([1, 2, 3], [4, 5, 7]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imported_top_level_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in source, also those inside functions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_top_level_modules_are_found():
    source = "import os.path, json\nfrom numpy import random\nfrom . import data\nfrom .x import y\n" \
             "def f():\n    from scipy.special import stdtr\n"
    assert _imported_top_level_modules(source) == {"os", "json", "numpy", "scipy"}


def test_dependencies_are_the_packages_the_source_imports():
    package = os.path.dirname(idea.__file__)
    imported = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                imported |= _imported_top_level_modules(fh.read())
    third_party = imported - set(sys.stdlib_module_names) - {"idea"}
    assert "numpy" in third_party
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in dependencies}
