"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# report lines every untraced run prints, by name with unit, besides the JSON result
REPORTED = {
    "train-agnews": [("train_docs_per_s", "docs/s"), ("train_step_ms_p50", "ms"),
                     ("train_step_ms_p90", "ms"), ("train_steps", "count"),
                     ("train_loss_final", "nats")],
    "eval-dbpedia": [("eval_docs_per_s", "docs/s"), ("eval_batch_ms_p50", "ms"),
                     ("eval_batch_ms_p90", "ms"), ("eval_batches", "count"),
                     ("eval_accuracy", "ratio")],
    "gradcheck-tiny": [("gradcheck_s", "s"), ("gradcheck_calls", "count"),
                       ("gradcheck_forward_ms_p50", "ms"), ("gradcheck_forward_ms_p90", "ms"),
                       ("gradcheck_max_rel_err", "ratio")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio")]
ENV_KEYS = {"nproc", "blas_name", "blas_version", "blas_threads", "numpy", "python", "warmup_ops"}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(REPORTED)


@pytest.mark.parametrize("workload", list(REPORTED))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name

    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert set(env) == ENV_KEYS
    reported = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
    for name, unit in REPORTED[workload] + COMMON:
        assert (name, unit) in reported, name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-agnews", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
