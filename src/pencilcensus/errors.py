"""Exception types shared across the package."""


class PencilCensusError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(PencilCensusError, ValueError):
    """A field characteristic (or order) is not a prime (power)."""


class FieldTooLargeError(PencilCensusError, ValueError):
    """Requested field order exceeds the supported cap."""


class DivisionByZeroError(PencilCensusError, ZeroDivisionError):
    """Inversion of zero, or division by the zero polynomial."""


class ZeroArgumentError(PencilCensusError, ValueError):
    """An operation required a nonzero polynomial."""


class OutOfRangeError(PencilCensusError, ValueError):
    """An index or order parameter is outside its valid range."""


class ShapeError(PencilCensusError, ValueError):
    """Matrix dimensions are inconsistent with the operation."""


class DegreeMismatchError(PencilCensusError, ValueError):
    """A polynomial degree does not match a declared dimension."""


class NonMonicError(PencilCensusError, ValueError):
    """An operation required a monic polynomial."""


class DegreeTooLargeError(PencilCensusError, ValueError):
    """A polynomial degree exceeds the allowed bound."""


class BudgetExceededError(PencilCensusError, ValueError):
    """An enumeration would evaluate more matrices than the budget allows."""


class BadSubspaceError(PencilCensusError, ValueError):
    """A subspace basis is not an independent reduced-echelon basis."""


class ParamMismatchError(PencilCensusError, ValueError):
    """Two reports being compared were produced with different parameters."""


class ExactnessError(PencilCensusError, ArithmeticError):
    """An exactness check failed: a count, quotient or total that must be
    exact came out otherwise.  Raised instead of ``assert`` so the check
    survives ``python -O``."""
