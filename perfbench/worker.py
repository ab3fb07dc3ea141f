"""One workload in one fresh, single-threaded process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this with ``src`` on PYTHONPATH and the BLAS/OpenMP thread
counts set to 1.  The first transform after ``import xft`` is the set-up op;
``--seconds 0`` stops there, which is how ``run.py`` takes extra set-up samples.
With ``--trace 1`` the budget is split between an untraced and a traced loop
over the same cases, whose outputs must be bit-identical.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import xft
import xft.fftcore
import xft.kernel
import xft.lct

import spans
import workloads

# Candidate tail percentiles, highest first.  Above p90 the sub-millisecond
# sweep measures the shared host's multi-millisecond stalls, not xft.
TAIL_PERCENTILES = (90, 75, 50)


def latency_summary(latencies) -> dict:
    """Median, and the highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = np.sort(latencies)  # a float64 array, not a list of Python floats
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n) - 1  # nearest-rank percentile
        if n - 1 - rank >= 10:
            break
    return {
        "samples": n,
        "p50_ms": float(np.median(ordered)) * 1e3,
        "tail_ms": float(ordered[rank]) * 1e3,
        "tail_pct": pct,
        "tail_beyond": n - 1 - rank,
        "throughput_tps": n / float(ordered.sum()),
    }


def dft_cost(route: str, n: int) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one apply_dft on ``route``.

    A length-m radix-2 pass counts 5*m*log2(m) flops and reads and writes
    every complex once per stage and once in the bit reversal.  Chirp-z
    embeds n in m = next power of two >= 2n-1: two such passes, the filter
    product over m, and the chirp products and scaling over n.
    """
    def pass_cost(m: int) -> tuple[float, float]:
        stages = m.bit_length() - 1
        return 5.0 * m * stages, 32.0 * m * (stages + 1)

    if route == "radix-2":
        return pass_cost(n)
    if route == "chirp-z":
        m = 1 << (2 * n - 2).bit_length()
        flops, nbytes = pass_cost(m)
        return 2 * flops + 6.0 * m + 14.0 * n, 2 * nbytes + 64.0 * m + 128.0 * n
    return 0.0, 0.0


def numpy_fft_floor_ms(inputs: workloads.Inputs, min_s: float = 0.5) -> float:
    """Median time of np.fft.fft on a length-n complex vector of the workload."""
    v = next(inputs.chunks())[0].samples.astype(complex)
    times = []
    while len(times) < 5 or sum(times) < min_s:
        start = time.perf_counter()
        np.fft.fft(v)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def untraced(args, inputs: workloads.Inputs) -> dict:
    op = partial(workloads.transform, xft.lct, inputs.grid)
    tally = workloads.Tally()
    setup = workloads.run_ops(inputs, op, math.inf, tally, max_ops=1)
    out = {"setup_s": setup[0]}
    if args.seconds > 0:
        loop = workloads.run_ops(inputs, op, args.seconds, tally)
        out.update(latency_summary(loop))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out.update(attempted=tally.attempted, failed=tally.failed, err_rel_max=tally.err_max)
    return out


def traced(args, inputs: workloads.Inputs) -> dict:
    n = inputs.workload.n
    tally = workloads.Tally()
    tracer = spans.Tracer()
    ids = itertools.count()

    def traced_op(case):
        return spans.traced_transform(tracer, xft.lct, inputs.grid, case, next(ids))

    with spans.traced(tracer, xft.lct):
        workloads.run_ops(inputs, traced_op, math.inf, tally, max_ops=1)
    setup_op = spans.per_op(tracer.spans)[0]
    tracer.spans.clear()

    plain_digests: list = []
    plain = workloads.run_ops(inputs, partial(workloads.transform, xft.lct, inputs.grid),
                              args.seconds / 2, tally, plain_digests)
    traced_digests: list = []
    with spans.traced(tracer, xft.lct):
        loop = workloads.run_ops(inputs, traced_op, args.seconds / 2, tally, traced_digests)
    ops = spans.per_op(tracer.spans)
    metrics = spans.layer_metrics(ops, list(range(1, 1 + len(loop))))  # op 0 was set-up

    common = min(len(plain_digests), len(traced_digests))
    identical = plain_digests[:common] == traced_digests[:common] and None not in plain_digests
    route = getattr(xft.fftcore.plan_dft(n, xft.kernel.DFT_SIGN), "route", "")
    flops, nbytes = dft_cost(route, n)
    p50_plain = statistics.median(plain)
    metrics.update({
        "fftcore.plan_dft_ms": setup_op["ns"].get("fftcore.plan_dft", 0) / 1e6,
        "fftcore.plan_alloc_mb": tracer.alloc_peak.get("fftcore.plan_dft", 0) / 1e6,
        "hermite.asymptotic_zeros_ms": setup_op["ns"].get("hermite.asymptotic_zeros", 0) / 1e6,
        "fftcore.flops_computed": flops,
        "fftcore.bytes_computed": nbytes,
        "floor.numpy_fft_ms": numpy_fft_floor_ms(inputs),
        "trace.overhead_pct": 100.0 * (statistics.median(loop) - p50_plain) / p50_plain,
    })
    absent = sorted({name for name in spans.WRAPPED.values()
                     if metrics[f"{name}_calls"] == 0 and name not in setup_op["calls"]})
    return {
        "layers": metrics,
        "absent": absent,
        "route": route,
        "compared_outputs": common,
        "bit_identical": identical,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "err_rel_max": tally.err_max,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(xft.__file__).resolve().parents:
        print(f"xft imported from {xft.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = workloads.Inputs(workloads.WORKLOADS[args.workload], args.seed)
    result = (traced if args.trace else untraced)(args, inputs)
    result["held_input_bytes"] = workloads.held_bytes(inputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
