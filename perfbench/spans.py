"""Spans around the calls ``xft.lct`` makes into each layer.

``traced(tracer)`` swaps the module-level bindings that ``xft.lct`` calls
through (``apply_dft``, ``input_chirp``, ...) for timing wrappers and puts
the originals back on exit, error or not.  Nothing under ``src/`` changes.
A binding that ``xft.lct`` no longer has is skipped: its span is absent and
its time lands in the parent's self time.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

# Binding in xft.lct -> span name (layer.function).
WRAPPED = {
    "apply_dft": "fftcore.apply_dft",
    "plan_dft": "fftcore.plan_dft",
    "boundary_phase": "kernel.boundary_phase",
    "input_chirp": "kernel.input_chirp",
    "output_chirp": "kernel.output_chirp",
    "kernel_prefactor": "kernel.kernel_prefactor",
    "asymptotic_zeros": "hermite.asymptotic_zeros",
}
# Spans the benchmark opens itself, around its own calls into xft.lct.
OP, SIGNAL, FAST_LCT = "op", "lct.signal", "lct.fast_lct"
# Allocation peaks are taken inside these spans only.
ALLOC_TRACKED = {"fftcore.plan_dft"}


class Tracer:
    """Spans kept in memory: (id, parent id, op id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.alloc_peak: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._next = 0

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end))

    def wrap(self, name: str, fn):
        track_alloc = name in ALLOC_TRACKED

        def wrapper(*args, **kwargs):
            with self.span(name):
                if not track_alloc:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

        return wrapper


@contextmanager
def traced(tracer: Tracer, module):
    """Route ``module``'s layer bindings through ``tracer`` for the block."""
    originals = {b: getattr(module, b) for b in WRAPPED if hasattr(module, b)}
    try:
        for binding, fn in originals.items():
            setattr(module, binding, tracer.wrap(WRAPPED[binding], fn))
        yield
    finally:
        for binding, fn in originals.items():
            setattr(module, binding, fn)


def traced_transform(tracer: Tracer, lct, grid, case, op_id: int):
    """The timed operation of ``workloads.transform``, with the benchmark's own spans."""
    with tracer.span(OP, op=op_id):
        with tracer.span(SIGNAL):
            signal = lct.Signal(grid, case.samples)
        with tracer.span(FAST_LCT):
            return lct.fast_lct(case.params, signal)


def self_ns(start: int, end: int, children) -> int:
    """Duration of [start, end) minus the part covered by the child intervals."""
    covered, cursor = 0, start
    for s, e in sorted(children):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return (end - start) - covered


def per_op(spans) -> dict[int, dict]:
    """Per op id: total ns and call count per span name, and fast_lct self ns."""
    children: dict[int, list] = {}
    for sid, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    ops: dict[int, dict] = {}
    for sid, _, op, name, start, end in spans:
        rec = ops.setdefault(op, {"ns": {}, "calls": {}, "self_ns": 0})
        rec["ns"][name] = rec["ns"].get(name, 0) + (end - start)
        rec["calls"][name] = rec["calls"].get(name, 0) + 1
        if name == FAST_LCT:
            rec["self_ns"] += self_ns(start, end, children.get(sid, ()))
    return ops


def layer_metrics(ops: dict[int, dict], loop_ops: list[int]) -> dict[str, float]:
    """Per-layer metrics over the loop's ops.

    ``<span>_ms`` is the median over ops of that span's total time in the op
    (0 where absent), ``<span>_calls`` the calls per op.
    """
    names = [SIGNAL, FAST_LCT, *WRAPPED.values()]
    recs = [ops.get(op, {"ns": {}, "calls": {}, "self_ns": 0}) for op in loop_ops]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}_ms"] = statistics.median(r["ns"].get(name, 0) for r in recs) / 1e6
        out[f"{name}_calls"] = sum(r["calls"].get(name, 0) for r in recs) / len(recs)
    out["lct.self_ms"] = statistics.median(r["self_ns"] for r in recs) / 1e6
    lct_ns = sum(r["ns"].get(FAST_LCT, 0) for r in recs)
    dft_kernel_ns = sum(ns for r in recs for name, ns in r["ns"].items()
                        if name == "fftcore.apply_dft" or name.startswith("kernel."))
    out["lct.dft_kernel_share_pct"] = 100.0 * dft_kernel_ns / lct_ns if lct_ns else 0.0
    fast_calls = out[f"{FAST_LCT}_calls"]
    out["lct.plan_cache_hit_ratio"] = (
        1.0 - out["fftcore.plan_dft_calls"] / fast_calls if fast_calls else 0.0)
    return out
