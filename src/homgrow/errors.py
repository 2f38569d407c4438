"""Exception types shared across the package."""

__all__ = [
    "HomgrowError", "DimensionMismatch", "DegreeOutOfRange", "NonSquareMatrix",
    "InvalidComplex", "IdentityViolation", "IncompatibleAction",
    "HypothesisViolated", "InconsistentProfile", "DegenerateLevel", "ParseError",
]


class HomgrowError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HomgrowError):
    """Operands have incompatible shapes."""


class DegreeOutOfRange(HomgrowError):
    """A chain degree outside 0..top_degree was requested."""


class NonSquareMatrix(HomgrowError):
    """A square matrix was required."""


class InvalidComplex(HomgrowError):
    """Differentials have wrong shapes or do not compose to zero."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class IdentityViolation(HomgrowError):
    """An identity that must hold exactly failed; signals an implementation bug."""


class IncompatibleAction(HomgrowError):
    """Action matrices do not descend to the presented module."""


class HypothesisViolated(HomgrowError):
    """A lemma hypothesis (nilpotency, trivial rational action) fails on the input."""


class InconsistentProfile(HomgrowError):
    """Rank-gradient profile values violate their ordering constraints."""


class DegenerateLevel(HomgrowError):
    """A tower level is degenerate, e.g. det(A^i - I) = 0."""


class ParseError(HomgrowError):
    """Malformed input document."""
