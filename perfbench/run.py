"""The xft benchmark: closed-loop fast_lct workloads, checked against the closed form.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded processes (``worker.py``) driven
as a closed loop by one caller.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; without ``--workload`` every workload runs.
Names and units come from BENCHMARK.json.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 0 only when every output was correct.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh processes whose first transform is timed; setup_s is their median.
SETUP_SAMPLES = 5
# Wall-clock limit of one workload, including its set-up processes.
WORKLOAD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "xft").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "xft_git_commit": commit,
        "xft_src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "thread_env": THREAD_ENV,
        "note": "shared machine: other tenants' load adds noise to every timing",
    }


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Metrics (by BENCHMARK.json name) and counts of one workload."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if trace:
        res = worker(name, seed, seconds, 1, deadline)
        values = res["layers"]
        correct = res["failed"] == 0 and res["bit_identical"]
        detail = {k: res[k] for k in ("absent", "route", "compared_outputs", "bit_identical",
                                      "err_rel_max", "held_input_bytes")}
        attempted, failed = res["attempted"], res["failed"]
    else:
        setups = [worker(name, seed, 0, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = worker(name, seed, seconds, 0, deadline)
        runs = [*setups, res]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        err = max(r["err_rel_max"] for r in runs)
        values = {
            "latency_ms_p50": res["p50_ms"],
            "latency_ms_tail": res["tail_ms"],
            "throughput_tps": res["throughput_tps"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": res["peak_rss_mb"],
            "err_digits": -math.log10(err) if err > 0 else 0.0,
        }
        correct = failed == 0
        detail = {
            "samples": res["samples"],
            "tail_percentile": res["tail_pct"],
            "tail_samples_beyond": res["tail_beyond"],
            "setup_samples_s": [r["setup_s"] for r in runs],
            "failed_frac": failed / attempted,
            "err_rel_max": err,
            "held_input_bytes": res["held_input_bytes"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "xft" / "__init__.py").is_file():
        print(f"no xft sources under {SRC}", file=sys.stderr)
        return 2
    spec = bench["per_layer" if args.trace else "end_to_end"]
    print("env " + json.dumps(environment(args.seed)))
    results = {}
    for name in ([args.workload] if args.workload else names):
        try:
            res = results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        for metric, m in res["metrics"].items():
            print(f"{name:22} {metric:32} {m['value']:<14.6g} {m['unit']}")
        if not args.trace:
            print(f"{name:22} {'err_rel_max':32} {res['detail']['err_rel_max']:<14.6g} 1")
            print(f"{name:22} {'failed_frac':32} {res['detail']['failed_frac']:<14.6g} "
                  f"(of {res['attempted']} attempted)")
        print(f"{name:22} detail {json.dumps(res['detail'])}")
    if args.workload:
        summary = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
