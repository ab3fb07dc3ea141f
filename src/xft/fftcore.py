"""Exact discrete Fourier transform of arbitrary length in O(N log N).

Semantics: ``out[j] = sum_k exp(direction_sign * 2j*pi*j*k/n) * v[k]`` with no
normalization.  Lengths run on ``numpy.fft`` (pocketfft): sign -1 is
``fft(v)``, sign +1 is ``ifft(v, norm="forward")``, the unscaled inverse sum.
A prime n >= 257 whose n - 1 has no prime factor above 5 (257, 769, 3457,
12289, 65537, ...) runs instead as Rader's cyclic convolution of length n - 1
(Proc. IEEE 1968): two 5-smooth forward FFTs, which from n - 1 = 14400 run
as four-step transforms in rows of at most 4,096 points, so that no
pocketfft scratch is large enough for the heap to return it to the system
and fault it in again on the next call.  At n = 65537 one DFT takes ~3.2 ms
warm, against ~4.4 ms with two whole length-65536 FFTs and ~10 ms for the
one prime-length ``numpy.fft`` (numpy 2.4.6, 2-core Xeon VM).

A plan is a validated (length, direction) record and holds no tables or
scratch (the Rader tables are cached read-only, about 24*n bytes per
(n, sign) for the 8 most recent), so one plan may be applied concurrently
from multiple threads; every apply returns a fresh array (or fills the
caller's ``out``) and is deterministic (bit-identical output for identical
input and plan).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# Imported eagerly: numpy loads numpy.fft lazily, and paying that load on the
# first transform instead of at ``import xft`` would land in its latency.
from numpy.fft import fft, ifft

from .errors import InvalidSizeError, ParameterError, ShapeError
from .hermite import _require_dense_size
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
        The DFT engine: "rader" for the prime lengths of the Rader route,
        "numpy" for every other length.
    """

    __slots__ = ("n", "direction_sign", "route")

    def __init__(self, n: int, direction_sign: int):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidSizeError(f"transform length must be positive, got {n!r}")
        if direction_sign not in (1, -1):
            raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
        self.n = int(n)
        self.direction_sign = int(direction_sign)
        self.route = "numpy" if _rader_tables(self.n, self.direction_sign) is None else "rader"


# From n - 1 = SPLIT_FROM, Rader's route runs its ffts in rows of at most
# ROW_POINTS points; see _rader_tables.
ROW_POINTS = 4096
SPLIT_FROM = 14400


@lru_cache(maxsize=8)
def _rader_tables(n: int, sign: int) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """Read-only (perm, spectrum, twiddles) of Rader's route at (n, sign), or None off it.

    The route takes a prime 257 <= n < 2^31 with 5-smooth n - 1; the search
    for g, the least primitive root, is Lucas's primality proof.  perm[q] =
    g^q mod n for q < n - 1; the spectrum is fft(w^(g^-q)) / (n - 1), w =
    exp(sign * 2j*pi/n), at phases of at most pi.

    Below n - 1 = SPLIT_FROM the route is one row: the spectrum has shape
    (n - 1,), twiddles is (), and an apply makes two length-(n - 1) ffts.
    From there each fft is Bailey's four-step ("FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990) on a (rows, cols) view,
    cols the largest divisor of n - 1 up to ROW_POINTS (16 x 4096 at 65537):
    a 4,096-point row needs 64 KiB of pocketfft scratch, below glibc's
    128 KiB mmap threshold, where the 1 MiB of a length-65536 fft was
    faulted in again on every call (960 page faults per fast_lct).  The
    first fft ends in transposed order, so the spectrum has shape (rows,
    cols) with spectrum[r, c] at frequency r + rows*c, and the second takes
    the same steps in reverse back to natural order; no transpose is
    materialized.  twiddles = (coarse, fine) from _twiddles carry the
    forward sign whatever ``sign`` is, since both ffts are forward.

    An entry holds 8*n bytes of the g^q table (perm is a view of it) and
    16*(n - 1) of spectrum, plus 16*rows*(cols/m + m) of twiddles, m from
    _twiddles: 1,572,872 + 32,768 bytes at 65537.  SPLIT_FROM is measured
    with fast_lct (2-core Xeon VM, numpy 2.4.6): at 12289 one row took no
    page faults a call and 3 rows were slower; at 14401 one row took 162
    faults a call and 4 rows none and were faster, as were the splits at
    15361, 18433, 40961 and 65537.
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
    residues = table[n - 1:h:-1]
    centred = np.where(2 * residues > n, residues - n, residues)
    kernel = np.empty(n - 1, dtype=complex)
    kernel[:h] = _cis(centred * (sign * 2 * np.pi / n))
    np.conjugate(kernel[:h], out=kernel[h:])
    if n - 1 < SPLIT_FROM:
        spectrum, twiddles = fft(kernel, norm="forward"), ()
    else:
        cols = _largest_divisor(n - 1, ROW_POINTS)
        twiddles = _twiddles(n - 1, cols)
        spectrum = kernel.reshape(-1, cols)
        _fft_to_transposed(spectrum, twiddles)
        spectrum *= 1 / (n - 1)  # as norm="forward" scales
    spectrum.setflags(write=False)
    return table[:-1], spectrum, twiddles


def _largest_divisor(total: int, limit: int) -> int:
    d = np.arange(1, limit + 1)
    return int(d[total % d == 0][-1])


def _twiddles(total: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (coarse, fine) with coarse[r, i] * fine[r, j] = exp(-2j*pi*r*(i*m + j)/total).

    Shapes (rows, cols/m, 1) and (rows, 1, m), rows = total/cols and m the
    largest divisor of cols up to sqrt(cols): two small tables in place of
    one of total entries, as boundary_phase builds its factor.  Each entry
    is evaluated at its exact residue r*c < total, centred to at most pi.
    """
    m = _largest_divisor(cols, math.isqrt(cols))
    r = np.arange(total // cols)[:, None, None]
    tables = []
    for residues in (r * np.arange(0, cols, m)[:, None], r * np.arange(m)):
        centred = np.where(2 * residues > total, residues - total, residues)
        table = _cis(centred * (-2 * np.pi / total))
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _twiddle(grid: np.ndarray, twiddles: tuple) -> None:
    coarse, fine = twiddles
    blocks = grid.reshape(coarse.shape[0], coarse.shape[1], fine.shape[2])
    blocks *= coarse
    blocks *= fine


def _fft_to_transposed(grid: np.ndarray, twiddles: tuple) -> None:
    """Forward DFT of grid.ravel() in place, frequency r + rows*c left at grid[r, c].

    Axis-0 ffts, the twiddle product, then row ffts; with no twiddles, one fft.
    """
    if twiddles:
        fft(grid, axis=0, out=grid)
        _twiddle(grid, twiddles)
    fft(grid, out=grid)


def _fft_from_transposed(grid: np.ndarray, twiddles: tuple) -> None:
    """Forward DFT in place of the sequence held at grid[r, c] as entry r + rows*c.

    The steps of _fft_to_transposed in reverse: the result is in natural order.
    """
    fft(grid, out=grid)
    if twiddles:
        _twiddle(grid, twiddles)
        fft(grid, axis=0, out=grid)


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
    tables = _rader_tables(plan.n, plan.direction_sign)
    if tables is None:
        if plan.direction_sign < 0:
            return fft(v, out=out)
        return ifft(v, norm="forward", out=out)
    # out[g^p] - v[0] = sum_q v[g^q] w^(g^(p+q)), a cyclic correlation: a second
    # forward fft, not an ifft, reads it out at p, so the scatter reuses perm.
    perm, spectrum, twiddles = tables
    head = v[0]  # read before out, which may be v, is written
    work = v[perm]
    grid = work.reshape(spectrum.shape)  # a view: frequency 0 stays at work[0]
    _fft_to_transposed(grid, twiddles)
    total = head + work[0]  # the DC term is the sum of v[1:]
    grid *= spectrum
    work[0] += head  # adds head to every output of the second fft
    _fft_from_transposed(grid, twiddles)
    if out is None:
        out = np.empty(plan.n, dtype=complex)
    out[perm] = work
    out[0] = total
    return out


def dft_matrix(n: int, direction_sign: int) -> np.ndarray:
    """Dense n x n kernel exp(direction_sign * 2j*pi*j*k/n) of the plain DFT.

    Shares the dense guard, n <= MAX_DENSE_N; the matrix costs O(n^2) memory
    and time.
    """
    if direction_sign not in (1, -1):
        raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
    _require_dense_size(n)
    j = np.arange(n, dtype=np.int64)
    return np.exp(direction_sign * 2j * np.pi * (np.outer(j, j) % n) / n)


def naive_dft(v, direction_sign: int) -> np.ndarray:
    """Quadratic-time reference DFT, kept as the validation oracle."""
    v = np.asarray(v, dtype=complex)
    return dft_matrix(v.shape[0], direction_sign) @ v
