"""Exception types shared across the package."""


class HBSpaceError(Exception):
    """Base class for all library errors."""


class ConfigError(HBSpaceError):
    """Invalid user-supplied configuration (CLI exit code 2)."""


class InvariantViolation(HBSpaceError, ValueError):
    """A constructed object fails one of its declared invariants
    (CLI exit code 1)."""


class NumericalError(HBSpaceError):
    """A numerical procedure failed to meet its contract (CLI exit code 3)."""


class ExtremeTypeError(NumericalError):
    """The symbol has non-integrable log-defect; the analytic model does not apply."""


class ConvergenceError(NumericalError):
    """An iterative solver stalled before reaching its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
