"""Exception types shared across the kernel."""


class KernelError(Exception):
    """Base class for all kernel errors."""


class TruncationMismatch(KernelError):
    """Operands carry different h-truncation orders."""


class ModeMismatch(KernelError):
    """Operands live over different curve coordinates (additive vs multiplicative)."""


class PoleError(KernelError):
    """A denominator vanishes at the requested evaluation point."""


class NonUnitError(KernelError):
    """Inversion of a series whose h^0 part is zero."""


class ShapeMismatch(KernelError):
    """Incompatible tensor-leg shapes."""


class SingularMatrix(KernelError):
    """Matrix whose h^0 reduction is singular over the rational-function field."""


class LiftFailure(KernelError):
    """A grade-by-grade equation fails: the antisymmetrizer is not an
    eigenvector of the determinant ladder at some h-grade, or the
    normalizing scalar does not satisfy its product equation."""
