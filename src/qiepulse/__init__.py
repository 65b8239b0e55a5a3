"""qiepulse: constant-adiabaticity pulse design and verification.

Synthesizes two-level control pulses by integrating the state azimuth under
a constant-adiabaticity constraint, reconstructs the drive fields, and
verifies the result by Schrodinger propagation, fidelity evaluation, and
systematic-error robustness scans.
"""

__version__ = "0.1.0"

from . import designer, dynamics, errors, profiles, pulse_io, robustness
from .errors import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .designer import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .robustness import *  # noqa: F401,F403
from .pulse_io import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *errors.__all__,
    *profiles.__all__,
    *designer.__all__,
    *dynamics.__all__,
    *robustness.__all__,
    *pulse_io.__all__,
]
