"""Shared pieces of the chirp-DFT-chirp factorization, each defined once here.

On the n-point asymptotic grid x, the transform at (a, b, c, d) with b != 0
is the matrix

    L[j, k] = post[j] * exp(DFT_SIGN * 2j*pi*j*k/n) * pre[k],
    pre[k]  = p[k] * exp(i*a*x_k^2/(2b)),
    post[j] = C(n) * p[j] * exp(i*d*y_j^2/(2b)) / sqrt(2*pi*i*b),

at the output nodes y_j = 4*b*x_j/pi, with the boundary phase
p[k] = exp(-DFT_SIGN * 1j*pi*(n-1)*k/n), the constant
C(n) = pi/sqrt(2n) * exp(DFT_SIGN * 1j*pi*(n-1)^2/(2n)), and the principal
branch sqrt(2*pi*|b|) * exp(i*pi*sign(b)/4) of the square root.  At the
Fourier quadruple (0, 1, -1, 0), sqrt(2*pi*i) * L is the scaled Fourier
kernel F[j, k] = pi/sqrt(2n) * exp(DFT_SIGN * 2j*pi/n * (j-(n-1)/2) *
(k-(n-1)/2)), the uniform-grid quadrature of the Fourier kernel at output
points 4*x_j/pi; ``xft_fourier`` applies it.

DFT_SIGN is frozen at -1: of the two coherent sign conventions (the grid is
symmetric, so conjugating all phases is the same matrix with its output rows
reversed), only -1 reproduces the transform's defining integral, whose cross
term is exp(-i*x*y/b).  Calibrated once against the direct-quadrature oracle;
a regression test pins the choice.

``xft.lct`` caches p per n and pre, post and y per (n, a, b, d), and both
``fast_lct`` and ``dense_lct_matrix`` are built from them, so they agree to
rounding error by construction.  Phases stay accurate at large n: C(n)
reduces its integer phase argument modulo the period before multiplying by
pi/n, and p is assembled from phases of at most about pi.
"""
from __future__ import annotations

import cmath
import math

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
    """The constant C(n)."""
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


def boundary_phase(n: int) -> np.ndarray:
    """The boundary phase p, as a fresh read-only array.

    p[k] = (-1)^k * w^k with w = exp(DFT_SIGN * 1j*pi/n).  Writing k = i*m + j
    with m = ceil(sqrt(n)), w^k is the product of w^(i*m) and w^j: two
    m-entry tables evaluated at phases of at most about pi, so each entry is
    within a few ulp, and n products in place of n sines and n cosines.
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
    """Post-multiplication factor exp(i*d*y^2/(2b)) / sqrt(2*pi*i*b)."""
    chirp = input_chirp(d, b, y)
    chirp /= np.sqrt(2j * np.pi * b)
    return chirp
