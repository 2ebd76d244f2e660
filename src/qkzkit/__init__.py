"""Exact verification kernel for spectral R-matrices and the quantum KZ connection.

Everything is computed in the ring k(w)[[h]]/(h^(D+1)) with exact rational
coefficients; identity checks are tolerance-zero.
"""

__version__ = "0.1.0"

from .errors import (
    KernelError,
    LiftFailure,
    ModeMismatch,
    NonUnitError,
    PoleError,
    ShapeMismatch,
    SingularMatrix,
    TruncationMismatch,
)
from .hseries import HSeries
from .ratfn import RatFn
from .scalar import ADDITIVE, MULTIPLICATIVE, Point, Scalar
from .tensor import LegMatrix, LegShape
from .families import (
    ArgShift,
    RMatrixFamily,
    build_rational,
    build_trigonometric,
    family_from_descriptor,
)
from .qdet import NormalizedFamily, normalize
from .reps import ComoduleWord, build_braiding, build_L, build_rvw
from .qkz import QKZInstance, build_nabla, residual_qkz

__all__ = [
    "HSeries",
    "RatFn",
    "Scalar",
    "Point",
    "ADDITIVE",
    "MULTIPLICATIVE",
    "LegMatrix",
    "LegShape",
    "ArgShift",
    "RMatrixFamily",
    "build_rational",
    "build_trigonometric",
    "family_from_descriptor",
    "NormalizedFamily",
    "normalize",
    "ComoduleWord",
    "build_braiding",
    "build_L",
    "build_rvw",
    "QKZInstance",
    "build_nabla",
    "residual_qkz",
    "KernelError",
    "TruncationMismatch",
    "ModeMismatch",
    "PoleError",
    "NonUnitError",
    "ShapeMismatch",
    "SingularMatrix",
    "LiftFailure",
]
