"""Sampling grids from Hermite-polynomial zeros.

The transform samples functions at the asymptotic (equispaced) zeros of the
degree-N Hermite polynomial,

    x_k = (2k - n + 1) * pi / (2 * sqrt(2n)),   k = 0..n-1  (0-based),

with uniform spacing pi / sqrt(2n).  The exact zeros and the orthonormal
Hermite functions

    psi_m(x) = H_m(x) exp(-x^2/2) / sqrt(2^m m! sqrt(pi))

at them back the dense reference path, both from a numpy eigensolve of the
Jacobi matrix of the recurrence (eigenvectors signed by their last row).
``hermite_function_row``, the check on it, runs the three-term recurrence on
psi directly; H_m, 2^m and m! are never materialized (they overflow double
precision near m ~ 300).

Indexing is 0-based throughout; a 1-based presentation of the same grid maps
via k_1based = k + 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSizeError

__all__ = [
    "HermiteGrid",
    "asymptotic_zeros",
    "grid_spacing",
    "exact_hermite_zeros",
    "hermite_function_row",
]

# Largest n the dense path (exact zeros, eigenvectors, matrices) builds.
MAX_DENSE_N = 4096


def _require_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidSizeError(f"size must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class HermiteGrid:
    """Equispaced sampling grid built from asymptotic Hermite zeros.

    Attributes
    ----------
    n : int
        Number of samples.
    nodes : ndarray
        Strictly increasing abscissae, antisymmetric about 0.
    spacing : float
        Uniform node distance, pi / sqrt(2n).
    """

    n: int
    nodes: np.ndarray
    spacing: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSizeError(f"grid size must be positive, got {self.n}")
        if len(self.nodes) != self.n:
            raise InvalidSizeError(
                f"grid claims {self.n} nodes but holds {len(self.nodes)}"
            )


def grid_spacing(n: int) -> float:
    """Uniform spacing pi / sqrt(2n) of the n-point asymptotic grid."""
    _require_size(n)
    return math.pi / math.sqrt(2.0 * n)


def asymptotic_zeros(n: int) -> HermiteGrid:
    """The n-point grid of asymptotic Hermite zeros, one shared grid per n.

    nodes[k] = pi * (2k - n + 1) / (2 * sqrt(2n)).  The integer factor keeps
    antisymmetry exact: nodes[k] == -nodes[n-1-k] in floating point.  The
    grid for each of the 32 most recent sizes is cached, so repeat calls
    return the same object; its nodes are read-only.
    """
    _require_size(n)
    return _asymptotic_grid(int(n))


@lru_cache(maxsize=32)
def _asymptotic_grid(n: int) -> HermiteGrid:
    half = grid_spacing(n) / 2.0
    offsets = 2 * np.arange(n) - (n - 1)
    nodes = offsets * half
    nodes.setflags(write=False)
    return HermiteGrid(n=n, nodes=nodes, spacing=2.0 * half)


def hermite_function_row(n_max: int, x: float) -> np.ndarray:
    """Evaluate psi_0(x) .. psi_{n_max-1}(x) by the stable recurrence.

    psi_{m+1} = x sqrt(2/(m+1)) psi_m - sqrt(m/(m+1)) psi_{m-1},
    seeded with psi_0 = pi^{-1/4} exp(-x^2/2).  Total on its domain: for
    large |x| the leading entries underflow to 0 harmlessly; nothing
    overflows for n_max <= 4096 and |x| <= 200.
    """
    _require_size(n_max)
    x = float(x)
    out = np.empty(n_max)
    p = math.pi ** -0.25 * math.exp(-0.5 * x * x)
    out[0] = p
    if n_max == 1:
        return out
    q = math.sqrt(2.0) * x * p
    out[1] = q
    for m in range(1, n_max - 1):
        p, q = q, x * math.sqrt(2.0 / (m + 1)) * q - math.sqrt(m / (m + 1.0)) * p
        out[m + 1] = q
    return out


def _require_dense_size(n: int) -> None:
    _require_size(n)
    if n > MAX_DENSE_N:
        raise InvalidSizeError(
            f"dense path materializes only n <= {MAX_DENSE_N} (got {n})"
        )


def _jacobi_eigh(n: int, vectors: bool) -> np.ndarray:
    """Eigenvalues, or else eigenvectors, of the n x n Jacobi matrix J_n.

    J_n is tridiagonal with off-diagonal sqrt(m/2), m = 1..n-1.  Its
    eigenvalues are the zeros x_k of H_n, and the eigenvector of x_k is
    proportional to (psi_0(x_k) .. psi_{n-1}(x_k)) (Golub & Welsch, Math.
    Comp. 1969).  The eigenvalues are made exactly antisymmetric; column k of
    U is signed so that U[n-1, k] has the sign (-1)^(n-1-k) of psi_{n-1}(x_k).
    """
    jacobi = np.diag(np.sqrt(np.arange(1, n) / 2.0), -1)
    if not vectors:
        w = np.linalg.eigvalsh(jacobi)
        return 0.5 * (w - w[::-1])
    u = np.linalg.eigh(jacobi)[1]
    u *= np.copysign(1.0, u[-1]) * (-1.0) ** (n - 1 - np.arange(n))
    return u


def exact_hermite_zeros(n: int) -> np.ndarray:
    """All n real zeros of the degree-n Hermite polynomial, ascending.

    The eigenvalues of the Jacobi matrix J_n from numpy's symmetric
    eigensolver (``eigvalsh``), symmetrized so that antisymmetry is exact.
    Shares the dense guard: n <= MAX_DENSE_N, else InvalidSizeError.
    """
    _require_dense_size(n)
    return _jacobi_eigh(n, vectors=False)
