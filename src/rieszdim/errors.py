"""Domain error types shared across the package."""


class RieszdimError(Exception):
    """Base class for all domain errors raised by rieszdim."""


class DuplicatePoints(RieszdimError):
    """Two points coincide exactly; pair energies are undefined."""


class TooFewPoints(RieszdimError):
    """An operation needs more points than the cloud provides."""


class DimensionMismatch(RieszdimError):
    """A point or cloud has the wrong ambient dimension."""


class SizeCapExceeded(RieszdimError):
    """A generator would allocate more points than the configured cap."""


class TargetUnreachable(RieszdimError):
    """Bracketing or bisection failed to hit an energy target."""


class UnsupportedVariant(RieszdimError):
    """The measure variant has no oracle for the requested quantity."""


class UnsupportedDimension(RieszdimError):
    """The requested computation is not available in this ambient dimension."""


class HypothesisViolated(RieszdimError):
    """A precondition of the ball-measure identity fails for this input."""


class OracleUnavailable(RieszdimError):
    """A statistical check needs a reference energy that is not available."""


class WindowTooSmall(RieszdimError):
    """A slope fit window contains too few grid points."""


class NoTransition(RieszdimError):
    """No growth transition found in the scanned exponent range."""


class NonFiniteResult(RieszdimError):
    """A result is NaN, which has no JSON encoding."""
