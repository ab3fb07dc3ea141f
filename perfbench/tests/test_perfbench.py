"""Tests of the benchmark's own machinery: inputs, spans, wrappers and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import xft.lct  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import dft_cost, latency_summary  # noqa: E402


def first_cases(name: str, seed: int, chunks: int = 2) -> list:
    inputs = workloads.Inputs(workloads.WORKLOADS[name], seed)
    return [case for chunk in islice(inputs.chunks(), chunks) for case in chunk]


def fingerprint(cases) -> list:
    return [(c.params.as_tuple(), c.gaussian, c.samples.tobytes()) for c in cases]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert fingerprint(first_cases(name, 7)) == fingerprint(first_cases(name, 7))


def test_other_seed_other_sweep_inputs():
    a, b = first_cases("lct_512_sweep", 7), first_cases("lct_512_sweep", 8)
    assert all(x.params != y.params for x, y in zip(a, b))


def test_fixed_workload_cycles_the_same_cases():
    inputs = workloads.Inputs(workloads.WORKLOADS["lct_prime65537_fixed"], 3)
    first, second = islice(inputs.chunks(), 2)
    assert first is second
    assert len({c.gaussian for c in first}) == len(first)


def test_quadruples_are_unimodular():
    cases = first_cases("lct_512_sweep", 11, chunks=8)
    for case in cases:
        assert abs(case.params.det - 1.0) <= 1e-12
        assert 0.5 <= abs(case.params.b) <= 4.0
        assert abs(case.params.a) <= 1.0 and abs(case.params.d) <= 1.0
    assert abs(workloads.FIXED_PARAMS.det - 1.0) <= 1e-12


def test_self_time_on_synthetic_tree():
    # fast_lct covers [10, 90); children cover [20, 60) (overlapping) and
    # [85, 95) (clipped to 90), so 45 of its 80 ns are covered.
    tree = [
        (0, None, 1, spans.OP, 0, 100),
        (1, 0, 1, spans.FAST_LCT, 10, 90),
        (2, 1, 1, "fftcore.apply_dft", 20, 50),
        (3, 1, 1, "kernel.input_chirp", 40, 60),
        (4, 1, 1, "kernel.output_chirp", 85, 95),
        (5, 0, 1, spans.SIGNAL, 2, 8),
        (6, None, 2, spans.OP, 100, 200),
        (7, 6, 2, spans.FAST_LCT, 100, 200),
        (8, 7, 2, "fftcore.apply_dft", 150, 170),
    ]
    assert spans.self_ns(10, 90, [(20, 50), (40, 60), (85, 95)]) == 35
    assert spans.self_ns(0, 10, []) == 10
    ops = spans.per_op(tree)
    assert ops[1]["self_ns"] == 35 and ops[2]["self_ns"] == 80
    assert ops[1]["ns"]["fftcore.apply_dft"] == 30 and ops[1]["calls"][spans.SIGNAL] == 1
    m = spans.layer_metrics(ops, [1, 2])
    assert m["lct.self_ms"] == pytest.approx(57.5e-6)
    assert m["fftcore.apply_dft_ms"] == pytest.approx(25e-6)
    assert m["kernel.input_chirp_calls"] == 0.5
    assert m["hermite.asymptotic_zeros_calls"] == 0
    assert m["lct.plan_cache_hit_ratio"] == 1.0
    assert m["lct.dft_kernel_share_pct"] == pytest.approx(100.0 * (30 + 20 + 10 + 20) / 180)


def test_wrappers_restore_xft_lct_even_on_error():
    before = dict(vars(xft.lct))
    case = first_cases("lct_512_sweep", 5, chunks=1)[0]
    grid = workloads.Inputs(workloads.WORKLOADS["lct_512_sweep"], 5).grid
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer, xft.lct):
            assert xft.lct.apply_dft is not before["apply_dft"]
            traced = spans.traced_transform(tracer, xft.lct, grid, case, op_id=0)
            raise RuntimeError("abort inside the traced block")
    assert vars(xft.lct).keys() == before.keys()
    assert all(vars(xft.lct)[k] is v for k, v in before.items())
    names = {s[3] for s in tracer.spans}
    assert {spans.OP, spans.SIGNAL, spans.FAST_LCT, "fftcore.apply_dft",
            "kernel.input_chirp", "kernel.output_chirp"} <= names
    plain = workloads.transform(xft.lct, grid, case)
    assert workloads.digest(plain.values) == workloads.digest(traced.values)


def test_tally_trips_on_corrupted_output():
    case = first_cases("lct_512_sweep", 9, chunks=1)[0]
    inputs = workloads.Inputs(workloads.WORKLOADS["lct_512_sweep"], 9)
    oracle = case.oracle(inputs.grid.nodes)
    values = workloads.transform(xft.lct, inputs.grid, case).values
    tally = workloads.Tally()
    assert tally.record(values, oracle)
    corrupted = values.copy()
    corrupted[len(corrupted) // 2] += 1e-9 * np.max(np.abs(oracle))
    assert not tally.record(corrupted, oracle)
    corrupted[0] = np.nan
    assert not tally.record(corrupted, oracle)
    assert not tally.record(None, oracle)
    assert not tally.record(values[:-1], oracle)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert 0 < tally.err_max <= 1e-13


def test_latency_summary_keeps_ten_samples_beyond_tail():
    s = latency_summary([i / 1000 for i in range(1, 61)])  # 1..60 ms
    assert (s["tail_pct"], s["tail_beyond"], s["tail_ms"]) == (75, 15, pytest.approx(45.0))
    assert s["p50_ms"] == pytest.approx(30.5)
    s = latency_summary([i / 1000 for i in range(1, 201)])
    assert (s["tail_pct"], s["tail_beyond"]) == (90, 20)


def test_dft_cost_counts_radix2_and_chirp_z():
    assert dft_cost("radix-2", 512) == (5.0 * 512 * 9, 32.0 * 512 * 10)
    flops, _ = dft_cost("chirp-z", 65537)  # padded to 2^18
    assert flops == 2 * 5.0 * 2 ** 18 * 18 + 6.0 * 2 ** 18 + 14.0 * 65537
    assert dft_cost("unknown", 8) == (0.0, 0.0)


def test_benchmark_json_names_the_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lct_512_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
