"""Exact weighted lattice-point counting for dilations of lattice polytopes.

Everything runs over exact rationals: polytopes come in as integer
vertex lists, weights as multivariate polynomials, and the package
returns the counting polynomials, their rational generating functions,
lift constructions, reciprocity and root-vanishing checks, and the
Hilbert-type counts of distinct linear-weight images.

Each module's ``__all__`` declares its public names; the package
re-exports them all.
"""

from . import errors, geometry, hilbert, polynomials, weighted
from .errors import *
from .geometry import *
from .hilbert import *
from .polynomials import *
from .weighted import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *geometry.__all__, *hilbert.__all__, *polynomials.__all__,
           *weighted.__all__]
