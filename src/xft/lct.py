"""Fast O(N log N) linear canonical transform on the Hermite-zero grid.

For a unimodular parameter quadruple (a, b, c, d), ad - bc = 1 and b != 0,
the transform of f is

    L[f](y) = 1/sqrt(2*pi*i*b) * Integral exp(i/(2b) (a x^2 - 2 x y + d y^2)) f(x) dx,

and for b = 0 it degenerates to sqrt(d) * exp(i c d y^2 / 2) * f(d y).
Sampling f at the asymptotic Hermite zeros x_k turns the b != 0 case into a
pointwise chirp, one plain DFT, and a pointwise scale, evaluated at the
output nodes y_j = 4 b x_j / pi.  Fourier, fractional Fourier and Fresnel
transforms are parameter special cases.

All operations are pure; results are immutable; independent transforms may
run fully in parallel (a shared DftPlan is safe for concurrent applies).
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
from .fftcore import DftPlan, apply_dft, plan_dft
from .hermite import HermiteGrid, asymptotic_zeros
from .kernel import DFT_SIGN, boundary_phase, input_chirp, kernel_prefactor, output_chirp

__all__ = [
    "LctParams",
    "Signal",
    "TransformResult",
    "fast_lct",
    "xft_fourier",
    "fast_frft",
    "lct_b_zero",
    "chirp_phase_step",
]

UNIMODULAR_TOL = 1e-10


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

    def is_unimodular(self, tol: float = UNIMODULAR_TOL) -> bool:
        return abs(self.det - 1.0) <= tol

    def require_unimodular(self, tol: float = UNIMODULAR_TOL) -> None:
        if not self.is_unimodular(tol):
            raise ParameterError(
                f"parameters {self.as_tuple()} have determinant {self.det!r}, "
                f"not 1 within {tol}"
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
    """Complex samples aligned to a HermiteGrid."""

    grid: HermiteGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.shape[0] != self.grid.n:
            raise ShapeError(
                f"signal has {values.shape} values for an n={self.grid.n} grid"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, func, grid: HermiteGrid) -> "Signal":
        """Sample a vectorized callable on the grid nodes."""
        return cls(grid=grid, values=np.asarray(func(grid.nodes), dtype=complex))


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


@lru_cache(maxsize=32)
def _reference_grid(n: int) -> HermiteGrid:
    grid = asymptotic_zeros(n)
    grid.nodes.setflags(write=False)
    return grid


def _require_asymptotic_grid(grid: HermiteGrid) -> None:
    expected = _reference_grid(grid.n)
    if grid is expected:
        return
    if (abs(grid.spacing - expected.spacing) > 1e-9
            or np.max(np.abs(grid.nodes - expected.nodes)) > 1e-9):
        raise GridMismatchError(
            f"signal grid is not the {grid.n}-point asymptotic Hermite-zero grid"
        )


def fast_lct(
    params: LctParams,
    signal: Signal,
    *,
    plan: DftPlan | None = None,
    check_unimodular: bool = True,
    unimodular_tol: float = UNIMODULAR_TOL,
) -> TransformResult:
    """Linear canonical transform of a sampled signal in O(n log n).

    Steps: (1) pointwise pre-chirp p_k * exp(i a x_k^2/(2b)) * f_k,
    (2) one length-n DFT with the calibrated kernel sign, (3) pointwise
    post-scale C(n) * p_j * exp(i d y_j^2/(2b)) / sqrt(2*pi*i*b), where p and
    C(n) are the boundary phases and constant of the scaled Fourier kernel.
    Agrees with the dense reference matrix to rounding error.

    A ``plan`` only fixes (n, the calibrated sign) and holds no tables;
    passing one checks it against the signal, and omitting it uses a cached
    plan for n.
    """
    if params.b == 0:
        raise DegenerateParameterError(
            "b = 0 is the scaling branch; use lct_b_zero with a resampling callable"
        )
    if check_unimodular:
        params.require_unimodular(unimodular_tol)
    _require_asymptotic_grid(signal.grid)
    n = signal.grid.n
    x = signal.grid.nodes
    y = (4.0 * params.b / np.pi) * x
    if plan is None:
        plan = _cached_plan(n)
    elif plan.n != n or plan.direction_sign != DFT_SIGN:
        raise ShapeError(
            f"plan is for (n={plan.n}, sign={plan.direction_sign}); "
            f"this transform needs (n={n}, sign={DFT_SIGN})"
        )
    # The products accumulate in place in the fresh chirp arrays, which
    # saves length-n temporaries (and their page faults at large n).
    p = boundary_phase(n)
    u = input_chirp(params.a, params.b, x)
    u *= p
    u *= signal.values
    spectrum = apply_dft(plan, u)
    values = output_chirp(params.d, params.b, y)
    values *= kernel_prefactor(n) * p
    values *= spectrum
    return TransformResult(params=params, output_nodes=y, values=values, n=n)


def xft_fourier(signal: Signal, *, plan: DftPlan | None = None) -> TransformResult:
    """Fourier-kernel quadrature at y_j = 4*x_j/pi, without LCT normalization.

    Identical to sqrt(2*pi*i) * fast_lct at (0, 1, -1, 0): the bare kernel
    with the 1/sqrt(2*pi*i*b) prefactor removed.
    """
    res = fast_lct(LctParams.fourier(), signal, plan=plan)
    return TransformResult(
        params=res.params,
        output_nodes=res.output_nodes,
        values=np.sqrt(2j * np.pi) * res.values,
        n=res.n,
    )


def fast_frft(angle: float, signal: Signal, *, plan: DftPlan | None = None) -> TransformResult:
    """Fractional Fourier transform: fast_lct at (cos t, sin t, -sin t, cos t)."""
    params = LctParams.frft(angle)
    if params.b == 0:
        raise DegenerateParameterError(
            f"sin({angle}) = 0 is the identity/parity case; use lct_b_zero"
        )
    return fast_lct(params, signal, plan=plan)


def lct_b_zero(params: LctParams, sampler, n: int) -> TransformResult:
    """The b = 0 branch: values[j] = sqrt(d) * exp(i c d y_j^2/2) * f(d y_j).

    Needs a callable, not a Signal: the branch resamples f at d*y, which is
    off-grid, and silent interpolation would add an unanalyzed error term.
    Output nodes are the grid nodes themselves (y = x).
    """
    if params.b != 0:
        raise ParameterError(f"lct_b_zero requires b = 0, got b = {params.b!r}")
    if abs(params.a * params.d - 1.0) > UNIMODULAR_TOL:
        raise ParameterError(
            f"b = 0 requires a*d = 1, got a*d = {params.a * params.d!r}"
        )
    if params.d <= 0:
        raise UnsupportedBranchError(
            f"sqrt(d) branch undefined for d = {params.d!r} <= 0"
        )
    if not callable(sampler):
        raise ParameterError("sampler must be a vectorized callable real -> complex")
    grid = asymptotic_zeros(n)
    y = grid.nodes
    samples = np.asarray(sampler(params.d * y), dtype=complex)
    if samples.shape != y.shape:
        raise ShapeError(
            f"sampler returned shape {samples.shape} for {y.shape} evaluation points"
        )
    values = math.sqrt(params.d) * np.exp(0.5j * params.c * params.d * np.square(y)) * samples
    return TransformResult(params=params, output_nodes=y.copy(), values=values, n=n)


def chirp_phase_step(params: LctParams, grid: HermiteGrid) -> float:
    """Aliasing diagnostic: max pre-chirp phase increment per grid step.

    Returns max_k |a/(2b)| * |x_{k+1}^2 - x_k^2|.  Values approaching pi mean
    the chirp exp(i a x^2/(2b)) is undersampled near the grid edge and the
    result aliases; no hard limit is enforced.
    """
    if params.b == 0:
        raise DegenerateParameterError("no chirp for b = 0")
    if grid.n < 2:
        return 0.0
    sq = np.square(grid.nodes)
    return float(abs(0.5 * params.a / params.b) * np.max(np.abs(np.diff(sq))))
