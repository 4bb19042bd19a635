import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from idea.cli import DATASETS, build_parser, gradcheck_setup, main
from idea.data import load_csv
from idea.head import ABLATION_MODES
from idea.training import TrainConfig


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
    assert open(a).read() == open(b).read()
    assert open(a).read() != open(c).read()


def test_make_synthetic_custom_labels(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code, stdout, _ = run_cli(
        capsys, "make-synthetic", "--out", out, "--docs", "40", "--classes", "4",
        "--label-names", "world,sports,business,sci tech",
    )
    assert code == 0
    assert "labels: world,sports,business,sci tech" in stdout


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
    lines = open(tsv).read().splitlines()
    assert len(lines) == 30
    assert all(len(line.split("\t")) == 2 + 16 * 4 for line in lines)


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


@pytest.mark.parametrize("file_cfg, key", [
    ({"epochs": 2.5}, "epochs"),
    ({"epochs": True}, "epochs"),
    ({"labels": ["a", "b"]}, "labels"),
    ({"ablation": "bogus"}, "ablation"),
    ({"dataset": "nope"}, "dataset"),
    ({"max_steps": "x"}, "max_steps"),
    ({"lr": "fast"}, "lr"),
    ('{"epochs": 2,', None),  # malformed JSON
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
                 "--train-limit", "--test-limit", "--out", "--gamma-mode"):
        assert flag in stdout
    assert "5e-05" in stdout  # learning rate default
    assert "32" in stdout  # batch size default
    assert "0.01" in stdout  # lambda default
    assert "0.1" in stdout  # dropout default


def test_dataset_presets_match_expected_shapes():
    assert len(DATASETS["agnews"][0]) == 4
    assert len(DATASETS["dbpedia"][0]) == 14
    assert len(DATASETS["yahoo"][0]) == 10
    assert DATASETS["yelpp"][0] == ["negative", "positive"]
    assert DATASETS["yelpf"][0] == ["bad", "poor", "fair", "good", "excellent"]
    # per-dataset default epochs
    assert [DATASETS[k][1] for k in ("agnews", "dbpedia", "yahoo", "yelpp", "yelpf")] == [2, 3, 2, 5, 5]
