"""Exception types shared across the package."""


class SteinLabError(Exception):
    """Base class for all steinlab errors."""


class NotPositiveDefinite(SteinLabError):
    """A matrix required to be positive definite is not (within tolerance)."""


class DimensionMismatch(SteinLabError):
    """Array shapes do not agree with the declared dimension."""


class QuadratureNotConverged(SteinLabError):
    """Adaptive quadrature refinement stalled above the requested tolerance."""


class InfeasibleAdjustment(SteinLabError):
    """A resampled cell count cannot be reconciled with the ball budget."""


class NonfiniteMoment(SteinLabError):
    """A model moment overflows a float."""


class NonfiniteNorm(SteinLabError):
    """A bound evaluator received an infinite or NaN derivative norm."""


class BadSpec(SteinLabError, ValueError):
    """A ``kind:key=value,...`` spec string is malformed or incomplete."""


class InvariantViolation(SteinLabError):
    """A sampled object broke an invariant its construction guarantees."""
