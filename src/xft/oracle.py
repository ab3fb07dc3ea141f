"""Ground-truth generators and error metrics for validating the transforms.

Two independent oracles for Gaussian-class inputs f(x) = exp(-(alpha x^2 +
2 beta x + gamma)), alpha > 0:

* ``gaussian_lct_closed_form`` - the closed-form transform of a Gaussian,
  evaluated term by term with principal branches;
* ``direct_quadrature_lct`` - composite trapezoid evaluation of the defining
  integral with embedded step-halving self-consistency.

Both take a scalar output point y and return a complex scalar, or an array
of points and return an array of the same shape.

The quadrature is authoritative: the closed form is validated against it
(they agree to ~1e-15 on both reference configurations), and any future
disagreement should be resolved in the quadrature's favor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    ParameterError,
    ShapeError,
    TruncationWarning,
)
from .hermite import HermiteGrid
from .lct import LctParams, Signal, TransformResult

__all__ = [
    "GaussianParams",
    "ErrorReport",
    "QuadratureConfig",
    "gaussian_sample",
    "gaussian_lct_closed_form",
    "direct_quadrature_lct",
    "compare",
]


@dataclass(frozen=True)
class GaussianParams:
    """Exponent coefficients of f(x) = exp(-(alpha x^2 + 2 beta x + gamma))."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha!r}")

    def evaluate(self, x):
        """The Gaussian itself; vectorized, usable as a sampler callable."""
        x = np.asarray(x, dtype=float)
        return np.exp(-(self.alpha * x * x + 2.0 * self.beta * x + self.gamma))


@dataclass(frozen=True)
class ErrorReport:
    """Error summary of a transform result against oracle values.

    max_rel_central is the max absolute deviation over the central 80% of
    nodes, normalized by the peak oracle magnitude (pointwise relative error
    is meaningless where a Gaussian-decaying oracle underflows).
    """

    max_abs: float
    rms: float
    max_rel_central: float
    n: int


# Trapezoid points of the first pass (odd, so each halving keeps the old nodes)
# and the cap past which the refinement raises ConvergenceError.
_INITIAL_POINTS = 2049
_MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and refinement controls for the brute-force quadrature."""

    radius: float = 12.0
    tol: float = 1e-10

    def __post_init__(self):
        for name in ("radius", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and positive, got {value!r}")

    @classmethod
    def for_gaussian(cls, g: GaussianParams) -> "QuadratureConfig":
        """Radius |beta|/alpha + 12/sqrt(alpha): the centre -beta/alpha plus 12
        widths, where g has fallen by exp(-144) from its peak."""
        return cls(radius=abs(g.beta) / g.alpha + 12.0 / math.sqrt(g.alpha))


def gaussian_sample(g: GaussianParams, grid: HermiteGrid) -> Signal:
    """Sample the Gaussian on a grid."""
    return Signal(grid=grid, values=g.evaluate(grid.nodes))


def gaussian_lct_closed_form(g: GaussianParams, params: LctParams, y):
    """Closed-form transform of the Gaussian at output point(s) y, b != 0.

    Product of six factors with principal branches for sqrt(2*pi*i*b) and
    the quarter power; cross-validated against direct_quadrature_lct.
    Scalar y in, complex scalar out; array in, array out.  Raises
    ParameterError when an intermediate or the result leaves the double
    range; an envelope that underflows to 0 is a valid result.
    """
    if params.b == 0:
        raise DegenerateParameterError("closed form defined for b != 0 only")
    a, b, c, d = params.as_tuple()
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    y = np.asarray(y, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            big_d = 4.0 * b * b * alpha * alpha + a * a
            quarter = alpha * alpha + a * a / (4.0 * b * b)
            prefactor = math.sqrt(math.pi) / (np.sqrt(2j * np.pi * b) * quarter ** 0.25)
            stationary = math.exp(alpha * (beta * beta - alpha * gamma) / quarter)
            rotation = np.exp(0.5j * math.atan(a / (2.0 * alpha * b)))
            envelope = np.exp(-(alpha * y * y + 2.0 * beta * a * y + a * a * gamma) / big_d)
            shear = np.exp(1j * a * c * y * y / (2.0 * big_d))
            carrier = np.exp(
                2j * b * (alpha * alpha * d * y * y + 2.0 * beta * alpha * y + beta * beta * a)
                / big_d
            )
            out = prefactor * stationary * rotation * envelope * shear * carrier
        # Python float sums reach inf without raising, so they are checked too.
        finite = math.isfinite(big_d + quarter) and np.all(np.isfinite(out))
    except ArithmeticError:  # OverflowError, ZeroDivisionError, FloatingPointError
        finite = False
    if not finite:
        raise ParameterError(f"the closed form for {g} at {params.as_tuple()} "
                             "leaves the double range")
    return complex(out) if out.ndim == 0 else out


def direct_quadrature_lct(params: LctParams, f, y,
                          cfg: QuadratureConfig | None = None):
    """Brute-force transform value at output point(s) y.

    Composite trapezoid over [-radius, radius], step-halved until two
    refinements agree to cfg.tol (the embedded self-consistency check);
    raises ConvergenceError past 2^22 points and warns TruncationWarning
    when f has not decayed at the interval ends.  Requires b != 0.  Scalar y
    in, complex scalar out; array in, array out.
    """
    if params.b == 0:
        raise DegenerateParameterError("quadrature oracle defined for b != 0 only")
    if cfg is None:
        cfg = QuadratureConfig()
    a, b, _, d = params.as_tuple()
    y = np.asarray(y, dtype=float)
    ys = y.ravel()
    if ys.size == 0:
        return np.zeros(y.shape, dtype=complex)
    radius = float(cfg.radius)
    points = _INITIAL_POINTS

    edge = np.abs(np.asarray(f(np.array([-radius, 0.0, radius])), dtype=complex))
    if max(edge[0], edge[2]) > 1e-12 * max(1.0, edge[1]):
        warnings.warn(
            f"integrand has not decayed at +-{radius} "
            f"(|f| ~ {max(edge[0], edge[2]):.2e}); increase the radius",
            TruncationWarning,
            stacklevel=2,
        )

    norm = np.sqrt(2j * np.pi * b)
    post = np.exp((0.5j * d / b) * ys * ys) / norm
    previous = None
    while True:
        x = np.linspace(-radius, radius, points)
        weights = np.full(points, x[1] - x[0])
        weights[0] *= 0.5
        weights[-1] *= 0.5
        base = np.exp((0.5j * a / b) * x * x) * np.asarray(f(x), dtype=complex) * weights
        out = np.empty(ys.shape, dtype=complex)
        for start in range(0, ys.size, 64):
            block = ys[start:start + 64]
            out[start:start + 64] = np.exp((-1j / b) * np.outer(block, x)) @ base
        out *= post
        if previous is not None:
            drift = np.max(np.abs(out - previous))
            if drift <= cfg.tol * max(1.0, float(np.max(np.abs(out)))):
                return complex(out[0]) if y.ndim == 0 else out.reshape(y.shape)
        if 2 * points - 1 > _MAX_POINTS:
            raise ConvergenceError(
                f"quadrature not self-consistent to {cfg.tol} within "
                f"{_MAX_POINTS} points"
            )
        previous = out
        points = 2 * points - 1


def compare(result: TransformResult, oracle_values) -> ErrorReport:
    """Error metrics of a TransformResult against oracle values."""
    oracle = np.asarray(oracle_values, dtype=complex)
    if oracle.shape != result.values.shape:
        raise ShapeError(
            f"oracle has shape {oracle.shape}, result has {result.values.shape}"
        )
    delta = np.abs(result.values - oracle)
    n = result.n
    lo, hi = n // 10, max((9 * n) // 10, n // 10 + 1)
    peak = float(np.max(np.abs(oracle)))
    central = float(np.max(delta[lo:hi]))
    if peak > 0.0:
        rel_central = central / peak
    else:
        rel_central = 0.0 if central == 0.0 else math.inf
    return ErrorReport(
        max_abs=float(np.max(delta)),
        rms=float(np.sqrt(np.mean(delta * delta))),
        max_rel_central=rel_central,
        n=n,
    )
