"""Exact discrete Fourier transform of arbitrary length in O(N log N).

Semantics: ``out[j] = sum_k exp(direction_sign * 2j*pi*j*k/n) * v[k]`` with no
normalization.  A plan's route, chosen from n alone, names one of three engines:

- "rader": a prime n >= 257 whose n - 1 has no prime factor above 5 runs as
  Rader's cyclic convolution of length n - 1 (Proc. IEEE 1968), two forward
  5-smooth ffts against a cached kernel spectrum; see _rader_tables.
- "rows": from n = ROWS_FROM, a length whose largest divisor cols up to
  ROW_POINTS leaves rows = n/cols of at most ROW_POINTS runs as Bailey's four
  steps in rows, each step in two halves on two threads; see _row_twiddles,
  _row_dft and _halves.
- "numpy": every other length is one ``numpy.fft`` (pocketfft) call.

Each cutoff is measured; see README's cost table.  A plan is a validated
(length, direction) record that holds no tables or scratch, so one plan may
be applied concurrently from several threads.  Every apply returns a fresh
array, or fills the caller's ``out``, and is deterministic: the output bits
do not depend on the host or on which thread runs a half.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from functools import lru_cache, partial

import numpy as np
# Imported eagerly: numpy loads numpy.fft lazily, and paying that load on the
# first transform instead of at ``import xft`` would land in its latency.
from numpy.fft import fft, ifft

from .errors import ParameterError, ShapeError
from .hermite import _require_dense_size, _require_size
from .kernel import _cis

__all__ = ["DftPlan", "plan_dft", "apply_dft", "dft_matrix", "naive_dft"]


class DftPlan:
    """Validated transform parameters for one (length, direction) pair.

    Attributes
    ----------
    n : int
        Transform length.
    direction_sign : int
        +1 or -1, the sign of i*2*pi*j*k/n in the kernel exponent.
    route : str
        "rader", "rows" or "numpy": the engine that runs the plan.
    """

    __slots__ = ("n", "direction_sign", "route")

    def __init__(self, n: int, direction_sign: int):
        _require_size(n)
        if direction_sign not in (1, -1):
            raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
        self.n = int(n)
        self.direction_sign = int(direction_sign)
        self.route = ("rader" if _rader_tables(self.n, self.direction_sign) is not None
                      else "rows" if _row_twiddles(self.n, self.direction_sign) is not None
                      else "numpy")


# From n - 1 = SPLIT_FROM, Rader's route runs its ffts in rows of at most
# ROW_POINTS points, and from n = ROWS_FROM so does every other length that
# splits into at most ROW_POINTS such rows.
ROW_POINTS = 4096
SPLIT_FROM = 14400
ROWS_FROM = 2**17
# Entries added to each row of _row_dft's work array, so that its columns
# are not a power-of-two stride apart.
ROW_PAD = 4


@lru_cache(maxsize=8)
def _rader_tables(n: int, sign: int) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """Read-only (perm, spectrum, twiddles) of Rader's route at (n, sign), or None off it.

    The route takes a prime 257 <= n < 2^31 with 5-smooth n - 1; the search
    for g, the least primitive root, is Lucas's primality proof.  perm[q] =
    g^q mod n for q < n - 1; the spectrum is fft(w^(g^-q)) / (n - 1), w =
    exp(sign * 2j*pi/n).

    Below n - 1 = SPLIT_FROM the spectrum has shape (n - 1,) and twiddles is
    (): an apply makes two length-(n - 1) ffts.  From there, where one fft's
    pocketfft scratch is faulted in again on every call (measured; see
    README's cost table), each fft is Bailey's four steps (J. Supercomputing
    4, 1990) in rows of cols points, cols the largest divisor of n - 1 up to
    ROW_POINTS: the first fft leaves frequency r + rows*c at [r, c], the
    spectrum of shape (rows, cols) is kept in that order, and the second fft
    reverses the steps, so no transpose is materialized.  twiddles =
    _twiddles(n - 1, cols, -1) for both signs: both ffts are forward.

    An entry holds 8*n bytes of g^q table (perm is a view of it), 16*(n - 1)
    of spectrum and 16*rows*(cols/m + m) of twiddles, m from _twiddles; the
    8 most recent (n, sign) are cached.
    """
    # Below 257 one numpy.fft call is as fast; from 2^31 the table products
    # would pass 2^62.  n - 1 < 2^31 divides 2^30 * 3^19 * 5^13 exactly when
    # it is 5-smooth.
    if not (257 <= n < 2**31 and 2**30 * 3**19 * 5**13 % (n - 1) == 0):
        return None
    factors = [f for f in (2, 3, 5) if (n - 1) % f == 0]
    for g in range(2, n):  # ends by n's least prime factor if n is composite
        if pow(g, n - 1, n) != 1:
            return None
        if all(pow(g, (n - 1) // f, n) != 1 for f in factors):
            break  # g has order n - 1, which only a prime n allows
    m = math.isqrt(n - 1) + 1  # g^q for q = i*m + j < n from two m-entry tables
    low, high = (np.array([pow(g, step * k, n) for k in range(m)], dtype=np.intp)
                 for step in (1, m))
    table = (high[:, None] * low % n).ravel()[:n]
    table.setflags(write=False)
    # w^(g^-q) with g^-q = g^(n-1-q); g^-(q+h) = -g^-q for h = (n-1)/2, so the
    # second half is the conjugate of the first.
    h = (n - 1) // 2
    kernel = np.empty(n - 1, dtype=complex)
    kernel[:h] = _roots(table[n - 1:h:-1], n, sign)
    np.conjugate(kernel[:h], out=kernel[h:])
    if n - 1 < SPLIT_FROM:
        spectrum, twiddles = fft(kernel, norm="forward"), ()
    else:
        cols = _largest_divisor(n - 1, ROW_POINTS)
        twiddles = _twiddles(n - 1, cols, -1)
        spectrum = kernel.reshape(-1, cols)
        _fft_to_transposed(spectrum, twiddles)
        spectrum *= 1 / (n - 1)  # as norm="forward" scales
    spectrum.setflags(write=False)
    return table[:-1], spectrum, twiddles


def _largest_divisor(total: int, limit: int) -> int:
    d = np.arange(1, limit + 1)
    return int(d[total % d == 0][-1])


def _roots(residues: np.ndarray, total: int, sign: int) -> np.ndarray:
    """exp(sign*2j*pi*residues/total) for residues in [0, total), centred to phases <= pi."""
    centred = np.where(2 * residues > total, residues - total, residues)
    return _cis(centred * (sign * 2 * np.pi / total))


def _twiddles(total: int, cols: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (coarse, fine) with coarse[r, i] * fine[r, j] = exp(sign*2j*pi*r*(i*m + j)/total).

    Shapes (rows, cols/m, 1) and (rows, 1, m), rows = total/cols and m the
    largest divisor of cols up to sqrt(cols): two small tables in place of
    one of total entries, each entry from its exact residue by _roots.
    """
    m = _largest_divisor(cols, math.isqrt(cols))
    r = np.arange(total // cols)[:, None, None]
    tables = tuple(_roots(residues, total, sign)
                   for residues in (r * np.arange(0, cols, m)[:, None], r * np.arange(m)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _twiddle(grid: np.ndarray, twiddles: tuple) -> None:
    coarse, fine = twiddles
    blocks = grid.reshape(coarse.shape[0], coarse.shape[1], fine.shape[2])
    blocks *= coarse
    blocks *= fine


def _fft_to_transposed(grid: np.ndarray, twiddles: tuple) -> None:
    """Forward DFT of grid.ravel() in place, frequency r + rows*c left at grid[r, c]."""
    if twiddles:
        fft(grid, axis=0, out=grid)
        _twiddle(grid, twiddles)
    fft(grid, out=grid)


def _fft_from_transposed(grid: np.ndarray, twiddles: tuple) -> None:
    """Forward DFT in place, in natural order, of the entries r + rows*c held at grid[r, c]."""
    fft(grid, out=grid)
    if twiddles:
        _twiddle(grid, twiddles)
        fft(grid, axis=0, out=grid)


@lru_cache(maxsize=8)
def _row_twiddles(n: int, sign: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only twiddles of the row route at (n, sign), or None off it.

    The route takes n >= ROWS_FROM with cols, the largest divisor of n up
    to ROW_POINTS, and rows = n/cols both at most ROW_POINTS, so that every
    fft is at most ROW_POINTS long; below ROWS_FROM one numpy.fft call is
    faster than the halves (measured; see README's cost table).  The
    twiddles are _twiddles(n, cols, sign), 16*rows*(cols/m + m) bytes,
    cached for the 8 most recent (n, sign).
    """
    if n < ROWS_FROM:
        return None
    cols = _largest_divisor(n, ROW_POINTS)
    if n // cols > ROW_POINTS:
        return None
    return _twiddles(n, cols, sign)


def _pocketfft(sign: int):
    """numpy.fft's unnormalized DFT of kernel sign ``sign``: fft, or ifft scaled forward."""
    return fft if sign < 0 else partial(ifft, norm="forward")


def _row_dft(v: np.ndarray, out: np.ndarray, sign: int, twiddles: tuple) -> None:
    """out[:] = the DFT of v in natural order, by Bailey's four steps; out may be v.

    Axis-0 ffts of the (rows, cols) view of v into the work array, the
    twiddle product and the row ffts, then a transposed copy into out.  The
    work array, 16*rows*(cols + ROW_PAD) bytes, comes from and goes back to
    _spare; its rows are ROW_PAD entries longer than cols, so that the
    axis-0 ffts and the copy do not read columns a power of two apart.  Each
    step is split in halves by _halves.
    """
    coarse, fine = twiddles
    rows, cols = coarse.shape[0], coarse.shape[1] * fine.shape[2]
    transform = _pocketfft(sign)
    src = v.reshape(rows, cols)
    size = rows * (cols + ROW_PAD)
    try:
        work = _spare.pop()
    except IndexError:  # none yet, or another apply holds it
        work = None
    if work is None or work.size < size:
        work = np.empty(size, dtype=complex)
    grid = work[:size].reshape(rows, cols + ROW_PAD)[:, :cols]
    dst = out.reshape(cols, rows)

    def columns(lo: int, hi: int) -> None:
        block = grid[:, lo:hi]
        np.copyto(block, src[:, lo:hi])
        transform(block, axis=0, out=block)

    def twiddled_rows(lo: int, hi: int) -> None:
        # Eight rows at a time by one product of their two tables, which
        # measured faster than _twiddle's broadcast over padded rows.
        for r in range(lo, hi, 8):
            end = min(r + 8, hi)
            block = grid[r:end]
            block *= (coarse[r:end] * fine[r:end]).reshape(block.shape)
        transform(grid[lo:hi], out=grid[lo:hi])

    def transposed(lo: int, hi: int) -> None:
        np.copyto(dst[lo:hi], grid[:, lo:hi].T)

    _halves(cols, columns)  # reads all of v before out, which may be v, is written
    _halves(rows, twiddled_rows)
    _halves(cols, transposed)
    _spare[:] = [work]


# The row route's idle work array, which the next apply takes if it fits.
# Freeing one per apply, beside fast_lct's values, leaves the top of the heap
# large enough for malloc to return it to the system, and smaller transforms
# later in the process then fault their memory in again.
_spare: list[np.ndarray] = []

_executor = None
_busy = threading.Lock()  # held by the caller whose half the worker runs


def _worker():
    """The executor of the module's one worker thread; call it holding _busy."""
    global _executor
    if _executor is None:
        # Imported here, so that a process that never takes the row route
        # pays neither its import time nor its memory.
        from concurrent.futures import ThreadPoolExecutor
        _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="xft-fftcore")
    return _executor


def _forget_worker() -> None:
    # A forked child has no copy of the worker thread: start a new one there.
    global _executor, _busy
    _executor, _busy = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _halves(count: int, stage) -> None:
    """stage(0, count // 2) here and stage(count // 2, count) on the worker thread.

    The split depends only on count, so the output bits do not depend on the
    host or on which thread runs a half.  The worker's half runs in a copy of
    the caller's context, so numpy's errstate holds there too, and its
    exception is raised here once both halves have ended.  Both halves run
    here when the process may run on one CPU only, while the worker runs
    another caller's half, at interpreter exit (e.g. in an atexit function),
    and when the worker has not begun its half by the time this one ends.
    """
    half = count // 2
    future = None
    if _may_use_two_cpus() and _busy.acquire(blocking=False):
        try:
            future = _worker().submit(contextvars.copy_context().run, stage, half, count)
        except RuntimeError:  # at interpreter exit, where no thread takes new work
            _busy.release()
    try:
        stage(0, half)
    finally:
        if future is not None:
            try:
                if not future.cancel():  # the worker has begun its half
                    future.result()
            finally:
                _busy.release()
    if future is None or future.cancelled():
        stage(half, count)


def _may_use_two_cpus() -> bool:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _multiply(plan: DftPlan, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out[:] = x * y, in halves on two threads where the plan takes the row route."""
    if plan.route == "rows":
        _halves(plan.n, lambda lo, hi: np.multiply(x[lo:hi], y[lo:hi], out=out[lo:hi]))
    else:
        np.multiply(x, y, out=out)


def plan_dft(n: int, direction_sign: int) -> DftPlan:
    """Create a plan; see DftPlan."""
    return DftPlan(n, direction_sign)


def apply_dft(plan: DftPlan, v, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a plan to a length-n vector.

    Returns a fresh complex128 array, or writes into and returns ``out``, a
    complex128 array of shape (n,) that may be ``v`` itself (same bits as
    the fresh result, one length-n array less).
    """
    # complex128 up front: numpy.fft would keep a float32/complex64 input in
    # single precision.
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != plan.n:
        raise ShapeError(f"expected a vector of length {plan.n}, got shape {v.shape}")
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == (plan.n,)
                                and out.dtype == np.complex128):
        raise ShapeError(f"out must be a complex128 array of shape ({plan.n},)")
    if plan.route == "numpy":
        return _pocketfft(plan.direction_sign)(v, out=out)
    if out is None:
        out = np.empty(plan.n, dtype=complex)
    if plan.route == "rows":
        _row_dft(v, out, plan.direction_sign, _row_twiddles(plan.n, plan.direction_sign))
        return out
    # out[g^p] - v[0] = sum_q v[g^q] w^(g^(p+q)), a cyclic correlation: a second
    # forward fft, not an ifft, reads it out at p, so the scatter reuses perm.
    perm, spectrum, twiddles = _rader_tables(plan.n, plan.direction_sign)
    head = v[0]  # read before out, which may be v, is written
    work = v[perm]
    grid = work.reshape(spectrum.shape)  # a view: frequency 0 stays at work[0]
    _fft_to_transposed(grid, twiddles)
    total = head + work[0]  # the DC term is the sum of v[1:]
    grid *= spectrum
    work[0] += head  # adds head to every output of the second fft
    _fft_from_transposed(grid, twiddles)
    out[perm] = work
    out[0] = total
    return out


def dft_matrix(n: int, direction_sign: int) -> np.ndarray:
    """Dense n x n kernel exp(direction_sign * 2j*pi*j*k/n) of the plain DFT, n <= MAX_DENSE_N."""
    if direction_sign not in (1, -1):
        raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
    _require_dense_size(n)
    j = np.arange(n, dtype=np.int64)
    return np.exp(direction_sign * 2j * np.pi * (np.outer(j, j) % n) / n)


def naive_dft(v, direction_sign: int) -> np.ndarray:
    """Quadratic-time reference DFT, kept as the validation oracle."""
    v = np.asarray(v, dtype=complex)
    return dft_matrix(v.shape[0], direction_sign) @ v
