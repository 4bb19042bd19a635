"""Benchmark of the idea classifier: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-agnews --seed 1 --seconds 20 --trace 0

Workloads: train-agnews, eval-dbpedia, gradcheck-tiny (see perfbench/README.md).
The program is imported from the checkout's src/; without it the benchmark
exits with status 2 and prints no result. Human-readable report lines come
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ones. --smoke runs a tiny size for tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread keeps the figures independent of the core count. On 2 CPUs,
# alternating 1 and 2 threads within one process gave the same mean and
# spread for train steps and eval batches: the model's matrices are small.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-agnews", "eval-dbpedia", "gradcheck-tiny"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed for the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer spans and tracing overhead instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def limit_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit the setting."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment(warmup: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "warmup_ops": warmup,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "idea" / "__init__.py").is_file():
        print(f"perfbench: {src} holds no idea package; run from the root of a checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(src))
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    out = workloads.Outcome(tracer=workloads.Tracer() if args.trace else None)
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        size=workloads.SMOKE if args.smoke else workloads.FULL, work=work, src=src,
    )
    try:
        workloads.WORKLOADS[args.workload](ctx, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(workloads.WARMUP_OPS)
    metrics = out.per_layer if args.trace else out.end_to_end
    report = out.report + [
        ("setup_s", out.end_to_end["setup_s"][0], "s"),
        ("peak_rss_mb", out.end_to_end["peak_rss_mb"][0], "MB"),
        ("error_rate", out.failed / out.attempted, "ratio"),
    ]
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": report, "failures": out.failures, **result}, fh, indent=1)
    if out.tracer is not None:
        out.tracer.write_jsonl(WORK / f"trace-{tag}.jsonl")

    for failure in out.failures:
        print(failure, file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value, unit in report:
        print(f"metric {name} {value!r} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
