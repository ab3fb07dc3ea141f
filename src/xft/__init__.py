"""XFT: a fast discrete linear canonical transform.

Samples a function at the asymptotic Hermite zeros and evaluates its linear
canonical transform (Fourier, fractional Fourier and Fresnel transforms as
special cases) through a chirp-DFT-chirp factorization in O(N log N), with a
dense O(N^2) reference path and analytic/brute-force oracles for validation.
"""

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    GridMismatchError,
    InvalidSizeError,
    ParameterError,
    ShapeError,
    SingularParameterError,
    TruncationWarning,
    UnsupportedBranchError,
    XftError,
)
from .hermite import (
    HermiteGrid,
    asymptotic_zeros,
    exact_hermite_zeros,
    grid_spacing,
    hermite_function_row,
)
from .fftcore import DftPlan, apply_dft, naive_dft, plan_dft
from .kernel import DFT_SIGN
from .lct import (
    LctParams,
    Signal,
    TransformResult,
    chirp_phase_step,
    fast_frft,
    fast_lct,
    lct_b_zero,
    xft_fourier,
)
from .dense import (
    FrftOrder,
    dense_lct_matrix,
    eigenvector_matrix,
    frft_matrix,
    frft_matrix_asymptotic,
    mehler_kernel,
)
from .oracle import (
    ErrorReport,
    GaussianParams,
    QuadratureConfig,
    compare,
    direct_quadrature_lct,
    gaussian_lct_closed_form,
    gaussian_sample,
)

__version__ = "0.1.0"

__all__ = [
    "XftError", "InvalidSizeError", "ParameterError", "SingularParameterError",
    "DegenerateParameterError", "UnsupportedBranchError", "ShapeError",
    "GridMismatchError", "ConvergenceError", "TruncationWarning",
    "HermiteGrid", "asymptotic_zeros", "grid_spacing", "exact_hermite_zeros",
    "hermite_function_row",
    "DftPlan", "plan_dft", "apply_dft", "naive_dft", "DFT_SIGN",
    "LctParams", "Signal", "TransformResult", "fast_lct", "xft_fourier",
    "fast_frft", "lct_b_zero", "chirp_phase_step",
    "FrftOrder", "eigenvector_matrix", "frft_matrix",
    "mehler_kernel", "frft_matrix_asymptotic", "dense_lct_matrix",
    "GaussianParams", "ErrorReport", "QuadratureConfig", "gaussian_sample",
    "gaussian_lct_closed_form", "direct_quadrature_lct", "compare",
    "__version__",
]
