"""Exact discrete Fourier transform of arbitrary length in O(N log N).

Semantics: ``out[j] = sum_k exp(direction_sign * 2j*pi*j*k/n) * v[k]`` with no
normalization.  Every length runs on ``numpy.fft`` (pocketfft): sign -1 is
``fft(v)``, sign +1 is ``ifft(v, norm="forward")``, the unscaled inverse sum.

A plan is a validated (length, direction) record and holds no tables or
scratch, so one plan may be applied concurrently from multiple threads; every
apply returns a fresh array and is deterministic (bit-identical output for
identical input and plan).
"""
from __future__ import annotations

import numpy as np
# Imported eagerly: numpy loads numpy.fft lazily, and paying that load on the
# first transform instead of at ``import xft`` would land in its latency.
from numpy.fft import fft, ifft

from .errors import InvalidSizeError, ParameterError, ShapeError

__all__ = ["DftPlan", "plan_dft", "apply_dft", "naive_dft"]

_NAIVE_CAP = 4096


class DftPlan:
    """Validated transform parameters for one (length, direction) pair.

    Attributes
    ----------
    n : int
        Transform length.
    direction_sign : int
        +1 or -1, the sign of i*2*pi*j*k/n in the kernel exponent.
    route : str
        The DFT engine, always "numpy".
    """

    __slots__ = ("n", "direction_sign", "route")

    def __init__(self, n: int, direction_sign: int):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidSizeError(f"transform length must be positive, got {n!r}")
        if direction_sign not in (1, -1):
            raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
        self.n = int(n)
        self.direction_sign = int(direction_sign)
        self.route = "numpy"


def plan_dft(n: int, direction_sign: int) -> DftPlan:
    """Create a plan; see DftPlan."""
    return DftPlan(n, direction_sign)


def apply_dft(plan: DftPlan, v) -> np.ndarray:
    """Apply a plan to a length-n vector; returns a fresh complex128 array."""
    # complex128 up front: numpy.fft would keep a float32/complex64 input in
    # single precision.
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != plan.n:
        raise ShapeError(f"expected a vector of length {plan.n}, got shape {v.shape}")
    if plan.direction_sign < 0:
        return fft(v)
    return ifft(v, norm="forward")


def naive_dft(v, direction_sign: int) -> np.ndarray:
    """Quadratic-time reference DFT, kept as the validation oracle.

    Guarded at n = 4096; the dense kernel costs O(n^2) memory and time.
    """
    if direction_sign not in (1, -1):
        raise ParameterError(f"direction_sign must be +1 or -1, got {direction_sign!r}")
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if n < 1:
        raise InvalidSizeError("empty input")
    if n > _NAIVE_CAP:
        raise InvalidSizeError(f"naive DFT capped at n={_NAIVE_CAP} (got {n})")
    j = np.arange(n, dtype=np.int64)
    kernel = np.exp(direction_sign * 2j * np.pi * (np.outer(j, j) % n) / n)
    return kernel @ v
