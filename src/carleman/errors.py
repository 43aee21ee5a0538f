"""Exception types shared across the toolkit."""


class CarlemanError(Exception):
    """Base class for toolkit errors."""


class NonFiniteError(CarlemanError):
    """An integrand or field evaluated to NaN/inf."""


class DegenerateFitError(CarlemanError):
    """Least-squares fit attempted on a degenerate abscissa set."""


class RingOutsideWindowError(CarlemanError):
    """Requested ring R-2 <= |j| <= R+1 does not fit inside the window."""


class ToleranceExceededError(CarlemanError):
    """A batch check exceeded its tolerance; carries the offending trial."""

    def __init__(self, message, trial=None, defect=None):
        super().__init__(message)
        self.trial = trial
        self.defect = defect


class SupportViolationError(CarlemanError):
    """Test function has mass outside the admissible support set."""


class SolverDivergenceError(CarlemanError):
    """Linear solve residual stalled above tolerance."""


class ZeroObservationError(CarlemanError):
    """Observation integral too small to normalize against."""


class ExactRangeError(CarlemanError):
    """Exact integer arithmetic would leave int64 or the 2^53 float-exact range."""


class ConfigError(CarlemanError):
    """Bad CLI/config input (maps to exit code 2)."""
