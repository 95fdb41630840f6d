"""Exception types shared across the package."""


class UlfitError(Exception):
    """Base class for all package errors."""


class DomainError(UlfitError):
    """An argument is outside the mathematical domain of an operation."""


class EmptyRegion(UlfitError):
    """A region construction or restriction produced the empty set."""


class QuadratureFailure(UlfitError):
    """Quadrature refinement hit its node cap without the estimates settling."""


class SamplingStall(UlfitError):
    """Rejection sampling acceptance rate fell below the usable floor."""


class NoConvergence(UlfitError):
    """An iterative solver exhausted its iteration budget."""


class PlacementFailure(UlfitError):
    """Random layout generation could not satisfy the spacing constraint."""


class SchemaError(UlfitError):
    """A scenario document violates the schema.

    The message names the offending field by dotted path, e.g.
    ``channel.eta``.
    """


class ParseError(UlfitError):
    """A scenario document is not syntactically valid JSON."""
