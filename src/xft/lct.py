"""Fast O(N log N) linear canonical transform on the Hermite-zero grid.

For a unimodular parameter quadruple (a, b, c, d), ad - bc = 1 and b != 0,
the transform of f is

    L[f](y) = 1/sqrt(2*pi*i*b) * Integral exp(i/(2b) (a x^2 - 2 x y + d y^2)) f(x) dx,

and for b = 0 it degenerates to sqrt(d) * exp(i c d y^2 / 2) * f(d y).
Sampling f at the asymptotic Hermite zeros x_k turns the b != 0 case into a
pointwise chirp, one plain DFT, and a pointwise scale, evaluated at the
output nodes y_j = 4 b x_j / pi, and inverse_lct maps them back to the
input grid.  Fourier, fractional Fourier and Fresnel transforms are
parameter special cases.

All operations are pure; results are frozen records whose values are fresh
arrays; independent transforms may run fully in parallel (the factor cache
holds read-only arrays).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateParameterError,
    GridMismatchError,
    ParameterError,
    ShapeError,
    UnsupportedBranchError,
)
from .fftcore import DftPlan, _multiply, apply_dft, plan_dft
from .hermite import HermiteGrid, asymptotic_zeros
from .kernel import DFT_SIGN, boundary_phase, input_chirp, kernel_prefactor, output_chirp

__all__ = [
    "LctParams",
    "Signal",
    "TransformResult",
    "fast_lct",
    "xft_fourier",
    "fast_frft",
    "inverse_lct",
    "lct_b_zero",
    "chirp_phase_step",
]

UNIMODULAR_TOL = 1e-10
# Largest distance a grid's nodes and spacing may sit from the asymptotic grid.
GRID_TOL = 1e-9


@dataclass(frozen=True)
class LctParams:
    """The (a, b, c, d) quadruple of a 2x2 unit-determinant parameter matrix."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name, value in zip("abcd", self.as_tuple()):
            if not math.isfinite(value):
                raise ParameterError(f"parameter {name} must be finite, got {value!r}")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def is_unimodular(self) -> bool:
        return abs(self.det - 1.0) <= UNIMODULAR_TOL

    def require_unimodular(self) -> None:
        if not self.is_unimodular():
            raise ParameterError(
                f"parameters {self.as_tuple()} have determinant {self.det!r}, "
                f"not 1 within {UNIMODULAR_TOL}"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "LctParams":
        """Parameters of the inverse transform: (d, -b, -c, a)."""
        return LctParams(self.d, -self.b, -self.c, self.a)

    def matmul(self, other: "LctParams") -> "LctParams":
        """Matrix product self @ other (composition of transforms)."""
        return LctParams(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def fourier(cls) -> "LctParams":
        return cls(0.0, 1.0, -1.0, 0.0)

    @classmethod
    def fresnel(cls, b: float) -> "LctParams":
        return cls(1.0, b, 0.0, 1.0)

    @classmethod
    def frft(cls, angle: float) -> "LctParams":
        """Rotation parameters (cos t, sin t, -sin t, cos t).

        cos(angle) below 1e-15 in magnitude snaps to 0 so that angle = pi/2
        reproduces the Fourier quadruple exactly.
        """
        if not math.isfinite(angle):
            raise ParameterError(f"angle must be finite, got {angle!r}")
        ca, sa = math.cos(angle), math.sin(angle)
        if abs(ca) < 1e-15:
            ca = 0.0
        if abs(sa) < 1e-15:
            sa = 0.0
        return cls(ca, sa, -sa, ca)


@dataclass(frozen=True)
class Signal:
    """Samples aligned to a HermiteGrid.

    float64 and complex128 values are kept as given, without a copy; any
    other dtype is cast to complex128.
    """

    grid: HermiteGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype not in (np.float64, np.complex128):
            values = values.astype(complex)
        if values.ndim != 1 or values.shape[0] != self.grid.n:
            raise ShapeError(
                f"signal has {values.shape} values for an n={self.grid.n} grid"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("signal values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TransformResult:
    """Transform output: values on the scaled nodes y_j = 4*b*x_j/pi."""

    params: LctParams
    output_nodes: np.ndarray
    values: np.ndarray
    n: int


@lru_cache(maxsize=32)
def _cached_plan(n: int) -> DftPlan:
    return plan_dft(n, DFT_SIGN)


def _mirrored(chirp, coef: float, b: float, nodes: np.ndarray) -> np.ndarray:
    """chirp(coef, b, nodes) for nodes with nodes[k] == -nodes[n-1-k].

    The chirps are even in their node, so only the upper half is evaluated
    and the lower half is its mirror image.
    """
    n = nodes.shape[0]
    upper = chirp(coef, b, nodes[n // 2:])  # starts at the centre node when n is odd
    return np.concatenate((upper[n % 2:][::-1], upper))


@lru_cache(maxsize=8)
def _fused_factors(
    n: int, a: float, b: float, d: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (pre, post, y) at (n, a, b, d), as xft.kernel defines them.

    Cached for the 8 most recent keys; an entry holds 40*n bytes.
    """
    x = asymptotic_zeros(n).nodes
    y = (4.0 * b / np.pi) * x
    p = boundary_phase(n)
    pre = _mirrored(input_chirp, a, b, x)
    pre *= p
    post = _mirrored(output_chirp, d, b, y)
    post *= p
    post *= kernel_prefactor(n)
    for factor in (pre, post, y):
        factor.setflags(write=False)
    return pre, post, y


def _require_asymptotic_grid(grid: HermiteGrid) -> None:
    expected = asymptotic_zeros(grid.n)
    if grid is expected:
        return
    # Written as "not within" so that a NaN node or spacing fails.
    if not (abs(grid.spacing - expected.spacing) <= GRID_TOL
            and np.max(np.abs(grid.nodes - expected.nodes)) <= GRID_TOL):
        raise GridMismatchError(
            f"signal grid is not the {grid.n}-point asymptotic Hermite-zero grid"
        )


def _chirp_dft_chirp(n: int, a: float, b: float, d: float,
                     samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(post * DFT(pre * samples), y) at (n, a, b, d): the steps of fast_lct.

    Raises ParameterError, and lets no numpy warning out, when an overflow
    or invalid operation in the factors, the products or the DFT would make
    a value non-finite.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            pre, post, y = _fused_factors(n, a, b, d)
            plan = _cached_plan(n)
            values = np.empty(n, dtype=complex)
            _multiply(plan, pre, samples, values)
            apply_dft(plan, values, out=values)
            _multiply(plan, values, post, values)
    except FloatingPointError as exc:
        raise ParameterError(f"the transform leaves the double range ({exc})") from None
    return values, y


def fast_lct(params: LctParams, signal: Signal) -> TransformResult:
    """Linear canonical transform of a sampled signal in O(n log n).

    values = post * DFT(pre * f), one in-place DFT of sign DFT_SIGN between
    two products.  pre, post and the output nodes y are defined in
    xft.kernel's module docstring and cached by _fused_factors.  Agrees with
    dense_lct_matrix, which is built from the same pre and post, to
    rounding error.  The steps read a, b and d; c enters only through the
    unimodular check.

    ``values`` is a fresh writable array on every call, and ``output_nodes``
    is the cached read-only y.  Where the DFT takes fftcore's row route,
    both products and the DFT run in two halves, one on the calling thread
    and one on fftcore's worker thread.
    """
    if params.b == 0:
        raise DegenerateParameterError(
            "b = 0 is the scaling branch; use lct_b_zero with a resampling callable"
        )
    params.require_unimodular()
    _require_asymptotic_grid(signal.grid)
    n = signal.grid.n
    values, y = _chirp_dft_chirp(n, params.a, params.b, params.d, signal.values)
    return TransformResult(params=params, output_nodes=y, values=values, n=n)


def xft_fourier(signal: Signal) -> TransformResult:
    """Fourier-kernel quadrature at y_j = 4*x_j/pi, without LCT normalization.

    Identical to sqrt(2*pi*i) * fast_lct at (0, 1, -1, 0): the bare kernel
    with the 1/sqrt(2*pi*i*b) prefactor removed.
    """
    res = fast_lct(LctParams.fourier(), signal)
    values = res.values  # fresh on every call: scale it in place
    values *= np.sqrt(2j * np.pi)
    return res


def fast_frft(angle: float, signal: Signal) -> TransformResult:
    """Fractional Fourier transform: fast_lct at (cos t, sin t, -sin t, cos t)."""
    return fast_lct(LctParams.frft(angle), signal)


def inverse_lct(result: TransformResult) -> TransformResult:
    """The samples that result = fast_lct(params, f) came from, on the input grid.

    The forward output sits on y = s*x with s = 4b/pi.  With r = |s|, the
    values read in increasing y are transformed at (d*r, -b/r, -c*r, a/r),
    scaled by sqrt(r) and read in increasing x.  That quadruple is
    unimodular whenever params is, so no second check runs.
    """
    a, b, _, d = result.params.as_tuple()
    if b == 0:
        raise DegenerateParameterError(
            "b = 0: the inverse resamples off-grid; use lct_b_zero with a callable"
        )
    if np.shape(result.values) != (result.n,):  # the products below would broadcast
        raise ShapeError(f"result has {np.shape(result.values)} values for n={result.n}")
    r = abs(4.0 * b / math.pi)
    grid = asymptotic_zeros(result.n)
    forward = result.values if b > 0 else result.values[::-1]
    back, _ = _chirp_dft_chirp(result.n, d * r, -b / r, a / r, forward)
    values = math.sqrt(r) * (back[::-1] if b > 0 else back)
    return TransformResult(params=result.params.inverse(), output_nodes=grid.nodes,
                           values=values, n=result.n)


def lct_b_zero(params: LctParams, sampler, n: int) -> TransformResult:
    """The b = 0 branch: values[j] = sqrt(d) * exp(i c d y_j^2/2) * f(d y_j).

    Needs a callable, not a Signal: the branch resamples f at d*y, which is
    off-grid, and silent interpolation would add an unanalyzed error term.
    Output nodes are the grid nodes themselves (y = x).  Raises
    ParameterError when the scaled samples overflow.
    """
    if params.b != 0:
        raise ParameterError(f"lct_b_zero requires b = 0, got b = {params.b!r}")
    params.require_unimodular()  # det = a*d at b = 0
    if params.d <= 0:
        raise UnsupportedBranchError(
            f"sqrt(d) branch undefined for d = {params.d!r} <= 0"
        )
    if not callable(sampler):
        raise ParameterError("sampler must be a vectorized callable real -> complex")
    grid = asymptotic_zeros(n)
    y = grid.nodes
    samples = Signal(grid, sampler(params.d * y)).values  # checks shape and finiteness
    with np.errstate(over="ignore"):
        values = math.sqrt(params.d) * np.exp(0.5j * params.c * params.d * np.square(y)) * samples
    if not np.all(np.isfinite(values)):
        raise ParameterError("b = 0 branch: the scaled samples overflow")
    return TransformResult(params=params, output_nodes=y.copy(), values=values, n=n)


def chirp_phase_step(params: LctParams, grid: HermiteGrid) -> float:
    """Largest pre-chirp phase increment per grid step, in radians.

    Returns max_k |a/(2b)| * |x_{k+1}^2 - x_k^2|: how coarsely the grid
    samples the chirp exp(i a x^2/(2b)) at its edge.  It is not a verdict on
    the result, whose accuracy depends on the signal as well: results with
    values far above pi can be exact to rounding, and results with smaller
    values can alias (measured; see README).  No limit is enforced.
    """
    if params.b == 0:
        raise DegenerateParameterError("no chirp for b = 0")
    if grid.n < 2:
        return 0.0
    sq = np.square(grid.nodes)
    return float(abs(0.5 * params.a / params.b) * np.max(np.abs(np.diff(sq))))
