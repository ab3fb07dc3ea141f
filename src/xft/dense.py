"""Dense O(N^2) reference transforms: the correctness oracle for the fast path.

Builds the discrete fractional Fourier matrix from the eigendecomposition of
the symmetric Jacobi matrix of the Hermite recurrence,

    F_z = sqrt(2*pi) * U^T D(z) U,     D(z) = diag(1, z, ..., z^{n-1}),

where column k of U is the unit eigenvector (numpy's ``eigh``, signed by its
last row) whose eigenvalue is the k-th exact Hermite zero, plus the chirp-
factored LCT matrix on the asymptotic grid, built from the fast path's own
factor vectors.  Each matrix function returns the plain n x n complex ndarray;
apply it to a sample vector with ``@``.  Matrices are materialized only up
to n = 4096 (memory guard; the dense path is a test oracle, not the
product).  Construction is pure: every call returns a fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameterError,
    ParameterError,
    SingularParameterError,
)
from .fftcore import dft_matrix
from .hermite import MAX_DENSE_N, _jacobi_eigh, _require_dense_size, asymptotic_zeros
from .kernel import DFT_SIGN
from .lct import LctParams, _fused_factors

__all__ = [
    "MAX_DENSE_N",
    "FrftOrder",
    "eigenvector_matrix",
    "frft_matrix",
    "mehler_kernel",
    "frft_matrix_asymptotic",
    "dense_lct_matrix",
]

_UNIT_DISK_TOL = 1e-12
_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class FrftOrder:
    """Complex order z of the discrete fractional Fourier transform, |z| <= 1."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if abs(z) > 1.0 + _UNIT_DISK_TOL:
            raise ParameterError(f"|z| = {abs(z)!r} lies outside the closed unit disk")
        object.__setattr__(self, "z", z)


def eigenvector_matrix(n: int) -> np.ndarray:
    """Orthogonal eigenvector matrix U of the symmetric Jacobi matrix.

    U[m, k] = psi_m(x_k) / sqrt(sum_m psi_m(x_k)^2), with x_k the k-th exact
    Hermite zero (ascending).  numpy's ``eigh`` gives each column up to
    sign; the sign is fixed on the last row, where U[n-1, k] has the sign
    (-1)^(n-1-k) of psi_{n-1}(x_k) and never underflows.  The mode-0 row
    U[0, k] is then positive wherever it is above rounding (at the edge
    zeros it is rounding noise once n reaches ~512).  Satisfies
    H U = U diag(x_k) and U^T U = I to rounding for every n <= MAX_DENSE_N.
    """
    _require_dense_size(n)
    return _jacobi_eigh(n, vectors=True)


def frft_matrix(n: int, order: FrftOrder) -> np.ndarray:
    """Discrete fractional Fourier matrix sqrt(2*pi) U^T D(z) U."""
    u = eigenvector_matrix(n)
    weights = complex(order.z) ** np.arange(n)
    return np.sqrt(2.0 * np.pi) * ((u.T * weights[None, :]) @ u.astype(complex))


def mehler_kernel(order: FrftOrder, x, y):
    """Closed-form kernel K_z(x, y) the fractional matrix tends to.

    K_z = sqrt(2/(1-z^2)) * exp(-((1+z^2)(x^2+y^2) - 4xyz) / (2(1-z^2))),
    principal square-root branch; symmetric in (x, y).  Singular at z = +-1.
    """
    z = complex(order.z)
    if abs(z - 1.0) < _SINGULAR_TOL or abs(z + 1.0) < _SINGULAR_TOL:
        raise SingularParameterError(f"kernel is singular at z = {z} (1 - z^2 = 0)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one = 1.0 - z * z
    expo = -((1.0 + z * z) * (x * x + y * y) - 4.0 * x * y * z) / (2.0 * one)
    out = np.sqrt(2.0 / one) * np.exp(expo)
    return complex(out) if out.ndim == 0 else out


def frft_matrix_asymptotic(n: int, order: FrftOrder) -> np.ndarray:
    """Kernel approximation K_z(x_j, x_k) * dx on the asymptotic grid.

    Approaches frft_matrix entrywise as n grows for fixed z strictly inside
    the unit disk.
    """
    _require_dense_size(n)
    grid = asymptotic_zeros(n)
    x = grid.nodes
    return mehler_kernel(order, x[:, None], x[None, :]) * grid.spacing


def dense_lct_matrix(n: int, params: LctParams) -> np.ndarray:
    """Materialized LCT matrix L = diag(post) W diag(pre) on the asymptotic grid.

    W is the plain DFT matrix of sign DFT_SIGN, and pre and post are
    fast_lct's cached factor vectors (defined in xft.kernel), so L applied
    to a sample vector reproduces fast_lct up to rounding, arithmetic
    reordered.
    """
    _require_dense_size(n)
    if params.b == 0:
        raise DegenerateParameterError("b = 0 has no kernel matrix; use lct_b_zero")
    params.require_unimodular()
    pre, post, _ = _fused_factors(n, params.a, params.b, params.d)
    return post[:, None] * dft_matrix(n, DFT_SIGN) * pre[None, :]
