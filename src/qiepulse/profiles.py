"""Prescribed polar-angle trajectory theta(t) and its analytic derivatives.

The design fixes the polar angle of the followed eigenstate to a smooth
error-function ramp from 0 to pi/2,

    theta(t)     = (pi/4) * (erf(t/T) + 1)
    theta_dot(t) = (sqrt(pi) / (2 T)) * exp(-(t/T)^2)
    theta_ddot(t)= theta_dot(t) * (-2 t / T^2)

The derivative formulas are exact (differentiate the erf definition); tests
verify them against central finite differences.  theta is monotone, and the
window [-kappa*T, kappa*T] with kappa >= 3 truncates tails where theta is
within erfc(kappa)*pi/4 of its asymptotes (about 1.2e-8 rad for kappa = 4).
theta_profile takes any time or array of times; the time axis a pulse is
sampled on is a plain array that the pulse carries (designer.Pulse.t).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["theta_profile"]

_SQRT_PI = math.sqrt(math.pi)
_erf = np.frompyfunc(math.erf, 1, 1)


@dataclass(frozen=True)
class ThetaSample:
    """theta and its first two time derivatives; fields may be scalars or
    arrays sampled at common times."""

    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray


def theta_profile(t, T: float) -> ThetaSample:
    """Evaluate the erf ramp and its analytic derivatives at time(s) t.

    Parameters
    ----------
    t : float or ndarray
        Time, same units as T.
    T : float
        Characteristic ramp time, must be positive.

    Returns
    -------
    ThetaSample
        theta in [0, pi/2], theta_dot >= 0, theta_ddot odd in t.
    """
    if not T > 0:
        raise ParameterError(f"T must be positive, got {T}")
    # one time, as the design ODE asks: math on floats (isinstance first, as
    # np.ndim of a float costs more than the evaluation)
    if isinstance(t, float) or np.ndim(t) == 0:
        x = float(t) / T
        theta_dot = (_SQRT_PI / (2.0 * T)) * math.exp(-x * x)
        return ThetaSample(0.25 * math.pi * (math.erf(x) + 1.0), theta_dot,
                           theta_dot * (-2.0 * x / T))
    x = np.asarray(t, dtype=float) / T
    theta = 0.25 * np.pi * (_erf(x).astype(float) + 1.0)
    theta_dot = (_SQRT_PI / (2.0 * T)) * np.exp(-x * x)
    return ThetaSample(theta, theta_dot, theta_dot * (-2.0 * x / T))
