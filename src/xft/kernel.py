"""Shared pieces of the chirp-DFT-chirp factorization.

The scaled Fourier kernel matrix on the n-point asymptotic grid is

    F[j, k] = C(n) * p[j] * exp(DFT_SIGN * 2j*pi*j*k/n) * p[k],

with C(n) = pi/sqrt(2n) * exp(DFT_SIGN * 1j*pi*(n-1)^2/(2n)) and
p[k] = exp(-DFT_SIGN * 1j*pi*(n-1)*k/n); equivalently
F[j, k] = pi/sqrt(2n) * exp(DFT_SIGN * 2j*pi/n * (j-(n-1)/2) * (k-(n-1)/2)),
the uniform-grid quadrature of the Fourier kernel at output points 4*x_j/pi.

DFT_SIGN is frozen at -1: of the two coherent sign conventions (the grid is
symmetric, so conjugating all phases is the same matrix with its output rows
reversed), only -1 reproduces the transform's defining integral, whose cross
term is exp(-i*x*y/b).  Calibrated once against the direct-quadrature oracle;
a regression test pins the choice.

Both the fast path and the dense reference assemble their transforms from
the exact same factor arrays below, so they agree to rounding error by
construction.  Integer phase arguments are reduced modulo the period before
multiplying by pi/n, keeping phases accurate at large n.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fftcore import DftPlan, apply_dft, plan_dft
from .errors import InvalidSizeError, ParameterError, ShapeError

__all__ = [
    "DFT_SIGN",
    "kernel_prefactor",
    "boundary_phase",
    "scaled_fourier_matrix",
    "apply_scaled_fourier",
    "input_chirp",
    "output_chirp",
]

DFT_SIGN = -1


def kernel_prefactor(n: int) -> complex:
    """Scalar constant C(n) of the scaled Fourier kernel matrix."""
    red = ((n - 1) * (n - 1)) % (4 * n)
    return np.pi / np.sqrt(2.0 * n) * np.exp(DFT_SIGN * 1j * np.pi * red / (2.0 * n))


@lru_cache(maxsize=32)
def _boundary_phase_cached(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.int64)
    red = ((n - 1) * k) % (2 * n)
    phase = np.exp(-DFT_SIGN * 1j * np.pi * red.astype(float) / n)
    phase.setflags(write=False)
    return phase


def boundary_phase(n: int) -> np.ndarray:
    """Diagonal phase p[k] bracketing the plain DFT inside the kernel.

    Depends on n only; cached and returned read-only.
    """
    return _boundary_phase_cached(n)


def scaled_fourier_matrix(n: int) -> np.ndarray:
    """Dense n x n scaled Fourier kernel matrix F (test/reference use).

    Materialized only up to n = 4096, like the rest of the dense path.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidSizeError(f"size must be a positive integer, got {n!r}")
    if n > 4096:
        raise InvalidSizeError(f"dense kernel matrix capped at n=4096 (got {n})")
    j = np.arange(n, dtype=np.int64)
    dft = np.exp(DFT_SIGN * 2j * np.pi * (np.outer(j, j) % n) / n)
    p = boundary_phase(n)
    return kernel_prefactor(n) * (p[:, None] * dft * p[None, :])


def apply_scaled_fourier(v: np.ndarray, plan: DftPlan | None = None) -> np.ndarray:
    """F @ v in O(n log n): phase, one DFT, phase, constant."""
    v = np.asarray(v)
    n = v.shape[0]
    if plan is None:
        plan = plan_dft(n, DFT_SIGN)
    elif plan.n != n or plan.direction_sign != DFT_SIGN:
        raise ShapeError(
            f"plan is for (n={plan.n}, sign={plan.direction_sign}), "
            f"need (n={n}, sign={DFT_SIGN})"
        )
    p = boundary_phase(n)
    return kernel_prefactor(n) * (p * apply_dft(plan, p * v))


def input_chirp(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Pre-multiplication chirp exp(i*a*x^2/(2b))."""
    if b == 0:
        raise ParameterError("chirp undefined for b = 0")
    phase = (0.5j * a / b) * np.square(x)
    return np.exp(phase, out=phase)


def output_chirp(d: float, b: float, y: np.ndarray) -> np.ndarray:
    """Post-multiplication factor exp(i*d*y^2/(2b)) / sqrt(2*pi*i*b).

    The square root takes the principal branch: sqrt(2*pi*|b|) *
    exp(i*pi*sign(b)/4), continuous with the b = 1 Fourier normalization.
    """
    if b == 0:
        raise ParameterError("chirp undefined for b = 0")
    chirp = (0.5j * d / b) * np.square(y)
    np.exp(chirp, out=chirp)
    chirp /= np.sqrt(2j * np.pi * b)
    return chirp
