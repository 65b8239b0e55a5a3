"""Exception hierarchy for qiepulse.

Every error raised by the library derives from QiePulseError so callers can
catch library failures without masking programming errors.  The CLI maps the
subclasses onto its exit codes (see qiepulse.cli).
"""

__all__ = [
    "QiePulseError", "ParameterError", "GridError", "SingularityError",
    "DegeneracyError", "DesignError", "ScanError", "PulseFormatError",
    "ConfigError",
]


class QiePulseError(Exception):
    """Base class for all qiepulse errors."""


class ParameterError(QiePulseError, ValueError):
    """An argument is outside its documented domain."""


class GridError(QiePulseError, ValueError):
    """A time or error grid violates its invariants (ordering, uniformity)."""


class SingularityError(QiePulseError):
    """A designed beta reached sin(beta) = 0, where Omega is undefined;
    carries the first such time."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


class DegeneracyError(QiePulseError):
    """Omega = Delta = 0: instantaneous eigenbasis / adiabaticity parameter
    undefined."""


class DesignError(QiePulseError):
    """Constrained integration failed; carries the time of failure."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


class ScanError(QiePulseError):
    """Propagation failed at one grid point of an error scan; names the
    offending delta value."""

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class PulseFormatError(QiePulseError, ValueError):
    """A pulse/scan CSV file is malformed; carries the 1-based line number
    when known."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(QiePulseError, ValueError):
    """A run configuration has unknown keys or out-of-range values."""
