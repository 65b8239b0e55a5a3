"""Prescribed polar-angle trajectory theta(t) and its analytic derivatives.

The design fixes the polar angle of the followed eigenstate to a smooth
error-function ramp from 0 to pi/2,

    theta(t)     = (pi/4) * (erf(t/T) + 1)
    theta_dot(t) = (sqrt(pi) / (2 T)) * exp(-(t/T)^2)
    theta_ddot(t)= theta_dot(t) * (-2 t / T^2)

Where theta_dot is 0 (the far tails, and t = +-inf, where the product is
0 * inf) theta_ddot is its limit, 0 with the sign of -t.

The derivative formulas are exact (differentiate the erf definition); tests
verify them against central finite differences.  theta is monotone, and the
window [-kappa*T, kappa*T] with kappa >= 3 truncates tails where theta is
within erfc(kappa)*pi/4 of its asymptotes (about 1.2e-8 rad for kappa = 4).
theta_profile takes any time or array of times; the time axis a pulse is
sampled on is a plain array that the pulse carries (designer.Pulse.t).
"""

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["theta_profile"]

_SQRT_PI = math.sqrt(math.pi)


def _value_eq(self, other):
    """== for dataclasses that hold arrays: the same type and every compared
    field equal, arrays and floats by np.array_equal (NaN equals NaN),
    nested dataclasses field by field."""
    if type(other) is not type(self):
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


def _same(x, y):
    if is_dataclass(x):
        return _value_eq(x, y) is True
    if isinstance(x, str):
        return x == y
    return np.array_equal(x, y, equal_nan=True)


@dataclass(slots=True)
class ThetaSample:
    """theta and its first two time derivatives, scalars or arrays sampled at
    common times; equal by value."""

    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray

    __eq__ = _value_eq


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
    # one time: math on floats (isinstance first, as np.ndim of a float
    # costs more than the evaluation)
    if isinstance(t, float) or np.ndim(t) == 0:
        x = float(t) / T
        theta_dot = (_SQRT_PI / (2.0 * T)) * math.exp(-x * x)
        return ThetaSample(0.25 * math.pi * (math.erf(x) + 1.0), theta_dot,
                           theta_dot * (-2.0 * x / T) if theta_dot
                           else math.copysign(0.0, -x))
    # x * x overflows past |t/T| ~ 1.3e154 (exp(-inf) = 0 is the limit),
    # and theta_ddot is 0 * inf at t = +-inf (replaced by its limit)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(t, dtype=float) / T
        erf = np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size)
        theta = 0.25 * np.pi * (erf.reshape(x.shape) + 1.0)
        theta_dot = (_SQRT_PI / (2.0 * T)) * np.exp(-x * x)
        theta_ddot = theta_dot * (-2.0 * x / T)
    return ThetaSample(theta, theta_dot, np.where(
        theta_dot == 0.0, np.copysign(0.0, -x), theta_ddot))
