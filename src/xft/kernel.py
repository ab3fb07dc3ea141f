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

Each factor (p, C(n), the chirps and 1/sqrt(2*pi*i*b)) is defined once,
below.  ``xft.lct`` fuses them into a pre-DFT and a post-DFT vector per
(n, a, b, d), and both ``fast_lct`` and ``dense_lct_matrix`` are built from
those two vectors, so they agree to rounding error by construction.  F
itself is the Fourier quadruple (0, 1, -1, 0) times sqrt(2*pi*i):
``xft_fourier`` applies it and ``dense_lct_matrix`` materializes it.
Phases stay accurate at large n: C(n) reduces its integer phase argument
modulo the period before multiplying by pi/n, and p is assembled from
phases of at most about pi.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError

__all__ = [
    "DFT_SIGN",
    "kernel_prefactor",
    "boundary_phase",
    "input_chirp",
    "output_chirp",
]

DFT_SIGN = -1


def kernel_prefactor(n: int) -> complex:
    """Scalar constant C(n) of the scaled Fourier kernel matrix."""
    red = ((n - 1) * (n - 1)) % (4 * n)
    return math.pi / math.sqrt(2.0 * n) * cmath.exp(DFT_SIGN * 1j * math.pi * red / (2.0 * n))


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i*phase) for a real array, as cos(phase) + i*sin(phase).

    Cheaper than numpy's complex exp of 1j*phase, and needs no complex
    temporary for the phase.
    """
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@lru_cache(maxsize=32)
def boundary_phase(n: int) -> np.ndarray:
    """Diagonal phase p[k] bracketing the plain DFT inside the kernel.

    p[k] = exp(-DFT_SIGN * 1j*pi*(n-1)*k/n) = (-1)^k * w^k with w =
    exp(DFT_SIGN * 1j*pi/n).  Writing k = i*m + j with m = ceil(sqrt(n)),
    w^k is the product of w^(i*m) and w^j: two m-entry tables evaluated at
    phases of at most about pi, so each entry is within a few ulp, and n
    products in place of n sines and n cosines.  Cached for the 32 most
    recent n; the returned array is read-only.
    """
    m = math.isqrt(n - 1) + 1
    phase = np.arange(m) * (DFT_SIGN * np.pi / n)
    out = (_cis(m * phase)[:, None] * _cis(phase)).ravel()[:n]
    out[1::2] *= -1
    out.setflags(write=False)
    return out


def input_chirp(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Pre-multiplication chirp exp(i*a*x^2/(2b))."""
    if b == 0:
        raise ParameterError("chirp undefined for b = 0")
    phase = np.square(x)
    phase *= 0.5 * a / b
    return _cis(phase)


def output_chirp(d: float, b: float, y: np.ndarray) -> np.ndarray:
    """Post-multiplication factor exp(i*d*y^2/(2b)) / sqrt(2*pi*i*b).

    The square root takes the principal branch: sqrt(2*pi*|b|) *
    exp(i*pi*sign(b)/4), continuous with the b = 1 Fourier normalization.
    """
    if b == 0:
        raise ParameterError("chirp undefined for b = 0")
    phase = np.square(y)
    phase *= 0.5 * d / b
    chirp = _cis(phase)
    chirp /= np.sqrt(2j * np.pi * b)
    return chirp
