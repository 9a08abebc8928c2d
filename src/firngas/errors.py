"""Exception hierarchy for the firngas package."""


class FirngasError(Exception):
    """Base class for all firngas errors."""


class ValidationError(FirngasError):
    """A constructor argument or configuration value is invalid."""


class DomainError(FirngasError):
    """An evaluation point lies outside the admissible domain."""


class AssumptionError(FirngasError):
    """An admissibility assumption on the coefficient profiles fails.

    ``assumption`` carries the short label, e.g. ``"(5)"`` for positivity
    of the open-pore fraction.
    """

    def __init__(self, assumption, message):
        super().__init__(f"assumption {assumption} violated: {message}")
        self.assumption = assumption


class SingularMatrixError(FirngasError):
    """A linear solve hit a zero or near-zero pivot.

    ``pivot_index`` is the 0-based row at which elimination broke down, or,
    for a factor whose stored inverse overflows, its first non-finite row.
    """

    def __init__(self, pivot_index, message=None):
        super().__init__(message or f"singular matrix: zero pivot at row {pivot_index}")
        self.pivot_index = pivot_index


class TimeStepError(FirngasError):
    """A requested time step exceeds the admissible bound.

    ``dt_max`` carries the computed bound so callers can quote it.
    """

    def __init__(self, dt, dt_max):
        super().__init__(
            f"time step {dt:g} exceeds the admissible bound dt_max={dt_max:.17g}"
        )
        self.dt = dt
        self.dt_max = dt_max


class ConfigError(FirngasError):
    """A configuration or input file could not be parsed."""
