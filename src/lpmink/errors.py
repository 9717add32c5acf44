"""Exception hierarchy shared by all lpmink modules."""


class LpMinkError(Exception):
    """Base class for all lpmink errors."""


class EmptyBodyError(LpMinkError):
    """The half-plane constraints are inconsistent."""


class UnboundedError(LpMinkError):
    """The normals fit in a closed half-circle; the intersection is unbounded."""


class DegenerateBodyError(LpMinkError):
    """The intersection has (near) zero area."""


class OriginOutsideError(LpMinkError):
    """An operation requiring the origin inside the body got a body without it."""


class NonPlanarFacetError(LpMinkError):
    """A 3-D facet's vertices do not lie in a common plane."""


class EmptyMeasureError(LpMinkError):
    """A measure with zero total mass where a nontrivial one is required."""


class PreconditionViolatedError(LpMinkError):
    """A documented operation hypothesis fails; the message names it."""


class AnchorOutsideError(LpMinkError):
    """Anchor point outside the body in the dual objective evaluation."""


class NoInteriorMaximizerError(LpMinkError):
    """The dual objective has no interior maximizer (concentrated measure)."""


class MaxItersExceededError(LpMinkError):
    """An iterative routine hit its iteration cap."""


class ConcentratedError(LpMinkError):
    """Measure concentrated on a closed semicircle; use the reduction path."""


class NotSymmetricError(LpMinkError):
    """The measure is not invariant under the requested symmetry group."""


class NotClosedUnderGroupError(LpMinkError):
    """A normal set is not closed under the group action."""


class AntipodalPairError(LpMinkError):
    """Nonexistence: the support is exactly a pair of antipodal directions."""


class NoConvergenceError(LpMinkError):
    """Solver failed to reach the residual tolerance; carries the best report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidExponentError(LpMinkError):
    """Exponent parameters outside the admissible range."""


class SchemaError(LpMinkError):
    """Malformed JSON input; the message points at the offending field."""
