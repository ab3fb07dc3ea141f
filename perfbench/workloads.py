"""Seeded inputs, the timed operation and the output check of each workload.

A workload is a stream of cases.  A case is one ``(params, gaussian)`` pair,
its samples on the workload's grid, and (computed lazily, outside the timed
region) the closed-form oracle on the output nodes ``y = 4*b*x/pi``.  Fixed
workloads cycle a handful of distinct cases; the sweep draws fresh ones in
chunks of ``SWEEP_CHUNK``, so the same seed always yields the same stream.
"""
from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from xft import GaussianParams, LctParams, asymptotic_zeros, gaussian_lct_closed_form

# An output fails when it is off the closed form by more than this share of
# the peak: the fast == dense gate of the test suite.
FAIL_REL_ERR = 1e-12
# The figure-1 quadruple.
FIXED_PARAMS = LctParams(1.0, 2.0, 0.5, 2.0)
SWEEP_CHUNK = 256


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    distinct: int  # cases cycled by a fixed workload; 0 means fresh every call
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lct_2p20_fixed", 2 ** 20, 8,
                 "n = 2^20, radix-2 route: the DFT and the two chirps dominate and "
                 "every call after the first reuses (n, params)"),
        Workload("lct_prime65537_fixed", 65537, 8,
                 "n = 65537 is prime: the chirp-z DFT route dominates the call and "
                 "its plan build dominates set-up"),
        Workload("lct_512_sweep", 512, 0,
                 "n = 512 with fresh parameters and input on every call: per-call "
                 "fixed cost dominates and parameter-keyed caches always miss"),
    )
}


@dataclass
class Case:
    params: LctParams
    gaussian: GaussianParams
    samples: np.ndarray
    _oracle: np.ndarray | None = field(default=None, repr=False)

    def oracle(self, nodes: np.ndarray) -> np.ndarray:
        if self._oracle is None:
            y = (4.0 * self.params.b / math.pi) * nodes
            self._oracle = gaussian_lct_closed_form(self.gaussian, self.params, y)
        return self._oracle


def random_gaussians(rng: np.random.Generator, size: int) -> list[GaussianParams]:
    alpha = rng.uniform(0.5, 2.0, size)
    beta = rng.uniform(-0.5, 0.5, size)
    return [GaussianParams(float(a), float(b), 0.0) for a, b in zip(alpha, beta)]


def random_quadruples(rng: np.random.Generator, size: int) -> list[LctParams]:
    """Unimodular (a, b, c, d) with |b| in [0.5, 4] and |a|, |d| <= 1."""
    b = rng.uniform(0.5, 4.0, size) * rng.choice((-1.0, 1.0), size)
    a = rng.uniform(-1.0, 1.0, size)
    d = rng.uniform(-1.0, 1.0, size)
    c = (a * d - 1.0) / b
    return [LctParams(*map(float, q)) for q in zip(a, b, c, d)]


class Inputs:
    """The case stream of one workload for one seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.grid = asymptotic_zeros(workload.n)

    def _cases(self, params: list[LctParams], gaussians: list[GaussianParams]) -> list[Case]:
        nodes = self.grid.nodes
        return [Case(p, g, g.evaluate(nodes)) for p, g in zip(params, gaussians)]

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.workload.name.encode())])

    @cached_property
    def _fixed_cases(self) -> list[Case]:
        # Built once per process, so each oracle is computed once.
        k = self.workload.distinct
        return self._cases([FIXED_PARAMS] * k, random_gaussians(self._rng(), k))

    def chunks(self):
        """Yield lists of cases; identical for identical (workload, seed)."""
        if self.workload.distinct:
            while True:
                yield self._fixed_cases
        rng = self._rng()
        while True:
            yield self._cases(random_quadruples(rng, SWEEP_CHUNK),
                              random_gaussians(rng, SWEEP_CHUNK))


def rel_error(values: np.ndarray, oracle: np.ndarray) -> float:
    """max|values - oracle| / max|oracle|; inf for a wrong shape or a non-finite value."""
    if values.shape != oracle.shape or not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(np.abs(values - oracle)) / np.max(np.abs(oracle)))


class Tally:
    """Attempted and failed operations, and the worst error of the passing ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0

    def record(self, values: np.ndarray | None, oracle: np.ndarray) -> bool:
        """Count one operation; ``values`` is None when it raised.  True if it passed."""
        self.attempted += 1
        err = math.inf if values is None else rel_error(values, oracle)
        if not err <= FAIL_REL_ERR:
            self.failed += 1
            return False
        self.err_max = max(self.err_max, err)
        return True


def transform(lct, grid, case: Case):
    """The timed operation: one user-visible transform through ``xft.lct``."""
    return lct.fast_lct(case.params, lct.Signal(grid, case.samples))


def run_ops(inputs: Inputs, op, budget_s: float, tally: Tally, digests: list | None = None,
            max_ops: int | None = None) -> array:
    """Closed loop of ``op(case)`` until ``budget_s`` of op time is spent.

    Only the op is timed; checking each output against the oracle (and
    hashing it, when ``digests`` is given) happens between timed ops.
    Returns the per-op latencies in seconds.
    """
    latencies = array("d")  # 8 bytes a sample, so peak RSS barely depends on the op count
    spent = 0.0
    for chunk in inputs.chunks():
        for case in chunk:
            if spent >= budget_s or (max_ops is not None and len(latencies) >= max_ops):
                return latencies
            start = time.perf_counter()
            try:
                values = op(case).values
            except Exception:  # a raising op is a failed op, not a broken benchmark
                elapsed = time.perf_counter() - start
                if tally.failed == 0:
                    traceback.print_exc(file=sys.stderr)
                values = None
            else:
                elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            spent += elapsed
            tally.record(values, case.oracle(inputs.grid.nodes))
            if digests is not None:
                digests.append(None if values is None else digest(values))
    return latencies


def digest(values: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(values).data, digest_size=16).hexdigest()


def held_bytes(inputs: Inputs) -> int:
    """Bytes of samples and oracles the benchmark holds for one chunk of cases."""
    k = inputs.workload.distinct or SWEEP_CHUNK
    return k * inputs.workload.n * (8 + 16)
