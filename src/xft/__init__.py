"""XFT: a fast discrete linear canonical transform.

Samples a function at the asymptotic Hermite zeros and evaluates its linear
canonical transform (Fourier, fractional Fourier and Fresnel transforms as
special cases) through a chirp-DFT-chirp factorization in O(N log N), with a
dense O(N^2) reference path and analytic/brute-force oracles for validation.
"""

from . import dense, errors, fftcore, hermite, kernel, lct, oracle
from .errors import *
from .hermite import *
from .fftcore import *
from .kernel import *
from .lct import *
from .dense import *
from .oracle import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += hermite.__all__
__all__ += fftcore.__all__
__all__ += kernel.__all__
__all__ += lct.__all__
__all__ += dense.__all__
__all__ += oracle.__all__
