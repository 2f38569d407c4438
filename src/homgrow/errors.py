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


class IdentityViolation(HomgrowError):
    """An identity that must hold exactly failed; signals an implementation bug."""


class IncompatibleAction(HomgrowError):
    """Action matrices do not descend to the presented module."""


class HypothesisViolated(HomgrowError):
    """A lemma hypothesis (nilpotency, trivial rational action) fails on the input."""


class InconsistentProfile(HomgrowError):
    """Rank-gradient profile values violate their ordering constraints."""


class DegenerateLevel(HomgrowError):
    """A tower request is refused before any level is computed: no levels,
    a level whose arity differs from the complex's m or whose base change
    passes `growth.MAX_ROWS` or `growth.MAX_NONZEROS`, levels out of order,
    a bad max_degree or jobs, or primes that fail `check_primes`."""


class ParseError(HomgrowError):
    """Malformed input document."""
