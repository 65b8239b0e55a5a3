"""Exception hierarchy for qiepulse.

Every error raised by the library derives from QiePulseError so callers can
catch library failures without masking programming errors.  The CLI maps
each subclass onto its own exit code (see qiepulse.cli): ParameterError 2,
DesignError 3, PulseFormatError 4.
"""

__all__ = ["QiePulseError", "ParameterError", "DesignError", "PulseFormatError"]


class QiePulseError(Exception):
    """Base class for all qiepulse errors."""


class ParameterError(QiePulseError, ValueError):
    """An argument, a pulse's time axis or a run configuration is outside
    its documented domain."""


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
