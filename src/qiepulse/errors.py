"""Exception hierarchy for qiepulse.

Every error raised by the library derives from QiePulseError so callers can
catch library failures without masking programming errors.  The CLI maps the
subclasses onto its exit codes (see qiepulse.cli).
"""

__all__ = [
    "QiePulseError", "ParameterError", "GridError", "DesignError",
    "PulseFormatError", "ConfigError",
]


class QiePulseError(Exception):
    """Base class for all qiepulse errors."""


class ParameterError(QiePulseError, ValueError):
    """An argument is outside its documented domain."""


class GridError(QiePulseError, ValueError):
    """A pulse's time axis is not 1-D, finite, strictly increasing and at
    least 3 samples long, or its field samples do not match it."""


class DesignError(QiePulseError):
    """Constrained integration failed; carries the time of failure."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


class PulseFormatError(QiePulseError, ValueError):
    """A pulse/scan CSV file is malformed; carries the 1-based line number
    when known."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(QiePulseError, ValueError):
    """A run configuration has unknown keys or out-of-range values."""
