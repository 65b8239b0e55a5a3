"""Constant-adiabaticity pulse synthesis.

The followed eigenstate is parameterized by the polar angle theta(t) (fixed
by profiles.theta_profile) and an azimuth beta(t).  The fields are recovered
algebraically from the angles,

    Omega = theta_dot / sin(beta)
    Delta = beta_dot - theta_dot * cot(theta) * cot(beta),

and beta(t) is integrated under the constraint that the adiabaticity
parameter

    mu = |Omega_dot * Delta - Omega * Delta_dot| / (2 (Omega^2 + Delta^2)^{3/2})

stays equal to a constant c.  Because Delta_dot is affine in beta_ddot with
unit coefficient and Omega_dot does not contain beta_ddot, the constraint is
affine in beta_ddot and solves to

    beta_ddot = (A - branch_sign * 2 c (Omega^2 + Delta^2)^{3/2}) / Omega,
    A         = Omega_dot * Delta - Omega * G,

where G collects the beta_ddot-free part of Delta_dot (Delta_dot =
beta_ddot + G).  The boundary condition is beta(t_start) = pi/2; the initial
rate is a configuration choice because the constraint ODE is second order
and admits a family of solutions.

Sign conventions are fixed by the algebra above and by the propagator's
Hamiltonian (see dynamics): under that Hamiltonian the Bloch azimuth of the
propagated state is -beta(t), so Pulse.beta_final records -beta[-1], the
azimuth actually reached.  That is the value to hand to target_state.

A Pulse is its samples: the fields at the times t it carries, which
design_pulse refines where the field between uniform samples is not linear.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegeneracyError, DesignError, GridError, ParameterError, SingularityError,
)
from .profiles import ThetaSample, theta_profile

__all__ = [
    "DesignParams",
    "AngleTrajectory",
    "Pulse",
    "design_pulse",
    "analytic_diagnostics",
]

# |Omega| floor (units of 1/T) below which the constrained acceleration is
# frozen at its last finite value; the fields there are physically negligible.
OMEGA_FLOOR = 1e-10

_SIN_BETA_FLOOR = 1e-14

# Largest defect (|field error| x interval width, in radians) that linear
# interpolation between a designed pulse's samples may leave in an interval
# the solver stepped through more than once; see _refine.
REFINE_TOL = 1e-3

# Dormand-Prince 5(4) pair (Dormand & Prince 1980) and the coefficients of
# its quartic dense output (Shampine 1986); Hairer, Norsett & Wanner,
# Solving ODEs I, II.4-II.6.  Stage nodes c2..c5 (c6 = c7 = 1), the rows of
# A, the 5th-order weights B and the error weights E, zeros left out.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_DENSE_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass(frozen=True)
class DesignParams:
    """Complete specification of one design run.

    branch_sign picks the sign of the constrained term in beta_ddot;
    beta_rate_init picks beta_dot(t_start): "zero", or "consistency" for the
    rate that satisfies the constraint in the Omega -> 0 limit, with its sign
    given by consistency_sign (negative descends from pi/2, the shipped
    default).
    """

    c: float
    T: float = 1.0
    kappa: float = 4.0
    n_samples: int = 4001
    branch_sign: int = -1
    beta_rate_init: str = "consistency"
    consistency_sign: int = -1
    ode_rel_tol: float = 1e-9
    ode_abs_tol: float = 1e-11

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ParameterError(f"c must be positive and finite, got {self.c}")
        if not 0 < self.T < math.inf:
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not 3 <= self.kappa < math.inf:
            raise ParameterError(f"kappa must be finite and >= 3, got {self.kappa}")
        if self.n_samples < 3:
            raise ParameterError(
                f"n_samples must be >= 3, got {self.n_samples}"
            )
        if self.branch_sign not in (-1, 1):
            raise ParameterError(
                f"branch_sign must be +1 or -1, got {self.branch_sign}"
            )
        if self.beta_rate_init not in ("zero", "consistency"):
            raise ParameterError(
                "beta_rate_init must be 'zero' or 'consistency', "
                f"got {self.beta_rate_init!r}"
            )
        if self.consistency_sign not in (-1, 1):
            raise ParameterError(
                f"consistency_sign must be +1 or -1, got {self.consistency_sign}"
            )
        if not (self.ode_rel_tol > 0 and self.ode_abs_tol > 0):
            raise ParameterError("ODE tolerances must be positive")


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


@dataclass
class AngleTrajectory:
    """Designed angles at the pulse's times t; beta starts at pi/2 exactly."""

    t: np.ndarray
    theta: ThetaSample
    beta: np.ndarray
    beta_dot: np.ndarray

    __eq__ = _value_eq  # by value, NaN equal to NaN


@dataclass
class Pulse:
    """Sampled drive with derived metadata.

    t is the time axis, any spacing: 1-D, finite, strictly increasing, at
    least 3 samples, one omega and one delta sample per time (else
    GridError); omega and delta are held as float arrays.  beta_final is the
    Bloch azimuth the propagated state reaches at t[-1] (equal to -beta[-1]
    of the design trajectory; the Hamiltonian precession sense mirrors the
    azimuth).  adiabaticity_residual is the max interior deviation of the
    analytically evaluated parameter from c; params is the design provenance
    when the pulse came from design_pulse, else None.  Pulses are equal when
    their samples and metadata are (NaN equals NaN); params is not compared.
    """

    t: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    area: float
    beta_final: float
    adiabaticity_residual: float
    params: Optional[DesignParams] = field(default=None, compare=False)

    __eq__ = _value_eq

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.delta = np.asarray(self.delta, dtype=float)
        t = self.t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise GridError(f"t must be 1-D with >= 3 samples, got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise GridError("t must be finite and strictly increasing")
        if self.omega.shape != t.shape or self.delta.shape != t.shape:
            raise GridError(f"omega and delta need one sample per time, "
                            f"t has {t.size}")


def _constraint(theta: ThetaSample, beta, beta_dot, c: float,
                branch_sign: int):
    """The constraint algebra at one point or along aligned arrays.

    Returns (omega, delta, omega_dot, G, beta_ddot): the fields, the
    beta_ddot-free parts of their rates (Delta_dot = beta_ddot + G), and the
    beta_ddot that holds the adiabaticity parameter at c on the given branch.
    A float beta is evaluated with math on floats (the design ODE's
    right-hand side), where 1/0, overflow and sin(inf) raise; anything else
    with numpy.
    """
    m = math if isinstance(beta, float) else np
    th, thd, thdd = theta.theta, theta.theta_dot, theta.theta_ddot
    sb, cb = m.sin(beta), m.cos(beta)
    st, ct = m.sin(th), m.cos(th)
    cot_b = cb / sb
    cot_t = ct / st
    omega = thd / sb
    delta = beta_dot - thd * cot_t * cot_b
    omega_dot = (thdd - thd * beta_dot * cot_b) / sb
    G = (
        -thdd * cot_t * cot_b
        + thd * thd * cot_b / (st * st)
        + thd * beta_dot * cot_t / (sb * sb)
    )
    gap3 = (omega * omega + delta * delta) ** 1.5
    A = omega_dot * delta - omega * G
    beta_ddot = (A - branch_sign * 2.0 * c * gap3) / omega
    return omega, delta, omega_dot, G, beta_ddot


def invert_angles(theta: ThetaSample, beta, beta_dot):
    """(Omega, Delta) at the angles: the first two outputs of _constraint on
    arrays, inf or nan where sin(beta) or sin(theta) vanishes."""
    with np.errstate(all="ignore"):
        omega, delta, *_ = _constraint(theta, np.asarray(beta, dtype=float),
                                       beta_dot, 0.0, 1)
    return omega, delta


def beta_acceleration(
    theta: ThetaSample,
    beta: float,
    beta_dot: float,
    c: float,
    branch_sign: int,
    omega_floor: float = OMEGA_FLOOR,
) -> Optional[float]:
    """beta_ddot enforcing a constant adiabaticity parameter c.

    Returns None when |Omega| is below omega_floor; the integrator
    regularizes that region by holding the last finite value.  Where the
    algebra divides by zero or overflows the result is inf or nan.
    """
    try:
        omega, _, _, _, beta_ddot = _constraint(theta, beta, beta_dot, c,
                                                branch_sign)
    except (ArithmeticError, ValueError):  # math's 1/0, overflow, sin(inf)
        with np.errstate(all="ignore"):
            omega, _, _, _, beta_ddot = _constraint(
                theta, np.asarray(beta, dtype=float), beta_dot, c,
                branch_sign)
    if abs(omega) < omega_floor:
        return None
    return float(beta_ddot)


def analytic_diagnostics(theta: ThetaSample, beta, beta_dot, c: float,
                         branch_sign: int):
    """Fields and adiabaticity parameter along a constrained trajectory.

    mu = |Omega_dot Delta - Omega Delta_dot| / (2 (Omega^2 + Delta^2)^{3/2}),
    with Omega_dot and Delta_dot from the angle derivatives (beta_ddot taken
    from the constraint), never from differencing sampled fields; a
    non-finite field gives a non-finite mu.  Returns (omega, delta, mu).
    Raises DegeneracyError where Omega = Delta = 0.
    """
    with np.errstate(all="ignore"):
        omega, delta, omega_dot, G, beta_ddot = _constraint(
            theta, np.asarray(beta, dtype=float),
            np.asarray(beta_dot, dtype=float), c, branch_sign
        )
        gap_sq = omega * omega + delta * delta
        if np.any(gap_sq == 0.0):
            raise DegeneracyError(
                "adiabaticity parameter undefined at Omega = Delta = 0"
            )
        mu = (np.abs(omega_dot * delta - omega * (beta_ddot + G))
              / (2.0 * gap_sq**1.5))
    return omega, delta, mu


def _area(omega, t) -> float:
    """Integral of |Omega| over the samples t: the trapezoid rule, which is
    what the propagator's linear interpolation of the samples sees."""
    return float(np.trapezoid(np.abs(omega), x=t))


def _dopri5(f, t0, t1, y0, rtol, atol):
    """Integrate y' = f(t, y) from t0 to t1 > t0 with Dormand-Prince 5(4).

    f takes a list of floats and returns a sequence of floats.  The step
    control is that of scipy's RK45 (Hairer et al. II.4): the initial step
    from the first two derivatives; the RMS norm of the error estimate over
    atol + max(|y|, |y_new|) rtol; step factor 0.9 err^(-1/5) within
    [0.2, 10], and no growth right after a rejection; the last step ends on
    t1.  Returns (ts, ys, dense): the accepted times, the states there as an
    (n, len(ts)) array, and dense(times) -> (n, len(times)) from each
    step's quartic interpolant, a time on a step boundary taking the
    earlier step.  Raises DesignError, with t_fail, when y0 is not finite
    or the step falls below 10 ulp of t.
    """
    n = len(y0)

    def rms(v):
        return math.sqrt(sum(x * x for x in v) / n)

    t, t1, y = float(t0), float(t1), [float(v) for v in y0]
    if not all(map(math.isfinite, y)):
        raise DesignError("the initial state is not finite", t_fail=t)
    k1 = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = rms([v / s for v, s in zip(y, scale)])
    d1 = rms([v / s for v, s in zip(k1, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    f1 = f(t + h0, [v + h0 * a for v, a in zip(y, k1)])
    d2 = rms([(a - b) / s for a, b, s in zip(f1, k1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t)
    ts, ys, ks = [t], [y], []
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a nan step
                raise DesignError("Required step size is less than spacing "
                                  "between numbers.", t_fail=t)
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            k2 = f(t + _C2 * h, [v + (_A21 * a) * h for v, a in zip(y, k1)])
            k3 = f(t + _C3 * h, [v + (_A31 * a + _A32 * b) * h
                                 for v, a, b in zip(y, k1, k2)])
            k4 = f(t + _C4 * h, [v + (_A41 * a + _A42 * b + _A43 * c) * h
                                 for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f(t + _C5 * h, [v + (_A51 * a + _A52 * b + _A53 * c
                                      + _A54 * d) * h
                                 for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                                + _A65 * e) * h
                           for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y_new)
            err = rms([(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g
                        + _E7 * q) * h / (atol + max(abs(v), abs(w)) * rtol)
                       for v, w, a, c, d, e, g, q
                       in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        ks.append((k1, k2, k3, k4, k5, k6, k7))
        t, y, k1 = t_new, y_new, k7
        ts.append(t)
        ys.append(y)

    ts, ys = np.array(ts), np.array(ys).T
    widths = np.diff(ts)
    q = np.einsum("skn,kp->snp", np.array(ks), _DENSE_P)

    def dense(times):
        seg = np.clip(np.searchsorted(ts, times, side="left") - 1, 0,
                      widths.size - 1)
        x = (times - ts[seg]) / widths[seg]
        powers = np.cumprod(np.broadcast_to(x, (4, x.size)), axis=0)
        return (widths[seg] * np.einsum("snp,ps->ns", q[seg], powers)
                + ys[:, seg])

    return ts, ys, dense


def _refine(a, b, fa, fb, sample_at):
    """Points that resolve the field inside the intervals (a, b).

    fa and fb are (2, m): Omega and Delta at the interval ends.
    sample_at(times) returns (y, fields) there, y being the (3, len) ODE
    state (beta, beta_dot, area).  An interval is split at its midpoint
    while linear interpolation of its end fields misses the midpoint fields
    by more than REFINE_TOL / width, and each half is tested the same way;
    only the midpoints are evaluated.  Returns the added times and the
    state there.
    """
    times, states = [np.zeros(0)], [np.zeros((3, 0))]
    while a.size:
        m = 0.5 * (a + b)
        y, fm = sample_at(m)
        defect = np.max(np.abs(0.5 * (fa + fb) - fm), axis=0) * (b - a)
        split = (defect > REFINE_TOL) & (a < m) & (m < b)
        times.append(m[split])
        states.append(y[:, split])
        a = np.concatenate((a[split], m[split]))
        b = np.concatenate((m[split], b[split]))
        fa = np.concatenate((fa[:, split], fm[:, split]), axis=1)
        fb = np.concatenate((fm[:, split], fb[:, split]), axis=1)
    return np.concatenate(times), np.concatenate(states, axis=1)


def design_pulse(params: DesignParams):
    """Integrate the constrained azimuth and reconstruct the drive.

    Returns (Pulse, AngleTrajectory).  The ODE is integrated with the
    adaptive Dormand-Prince 5(4) stepper _dopri5 at the configured
    tolerances and sampled through its dense output on the uniform
    n_samples grid, plus the points that resolve the field inside the grid
    intervals that hold two or more solver steps: where beta comes close to
    0, Omega = theta_dot / sin(beta) spikes between uniform samples.  Such
    an interval is bisected while linear interpolation misses the midpoint
    field by more than REFINE_TOL / width (see _refine); the pulse's t
    holds every uniform point and the added ones, in order.  The area is a
    third ODE state, the integral of theta_dot / |sin(beta)|, so it is exact
    to the solver tolerance whatever the sampling.  Near the window ends
    Omega ~ theta_dot is exponentially small and beta_ddot ~ 1/Omega is
    stiff; below OMEGA_FLOOR/T the acceleration is held at its last finite
    value.  A failed integration raises DesignError naming c, T and the
    time it reached (t_fail), and so do fields that are not finite, at the
    first such time.
    """
    half_width = params.kappa * params.T
    t = np.linspace(-half_width, half_width, params.n_samples)
    floor = OMEGA_FLOOR / params.T
    held = [0.0]

    def rhs(ti, y):
        sample = theta_profile(ti, params.T)
        acc = beta_acceleration(sample, y[0], y[1], params.c,
                                params.branch_sign, floor)
        if acc is not None:  # else hold it through the dead tails
            held[0] = acc
        try:
            rate = sample.theta_dot / abs(math.sin(y[0]))
        except (ZeroDivisionError, ValueError):  # sin(beta) = 0 or beta = inf
            rate = math.nan  # rejects the step
        return (y[1], held[0], rate)

    rate0 = 0.0  # "zero": at rest
    if params.beta_rate_init == "consistency":
        # the rate for which the constraint holds in the Omega -> 0 limit,
        # where mu reduces to |Omega_dot| / (2 beta_dot^2)
        rate0 = params.consistency_sign * math.sqrt(
            abs(theta_profile(-half_width, params.T).theta_ddot)
            / (2.0 * params.c))
    y0 = (0.5 * math.pi, rate0, 0.0)
    try:
        ts, ys, dense = _dopri5(rhs, t[0], t[-1], y0, params.ode_rel_tol,
                                params.ode_abs_tol)
    except DesignError as e:
        raise DesignError(
            f"c = {params.c:g} (T = {params.T:g}): constrained integration "
            f"failed at t = {e.t_fail:.6g}: {e}",
            t_fail=e.t_fail,
        ) from None

    def fields(times, y):
        return np.stack(invert_angles(theta_profile(times, params.T), y[0],
                                      y[1]))

    def sample_at(times):
        y = dense(times)
        return y, fields(times, y)

    y = dense(t)
    y[0, 0] = 0.5 * np.pi  # boundary condition, exact by construction
    k = np.flatnonzero(np.diff(np.searchsorted(ts, t)) >= 2)
    with np.errstate(invalid="ignore"):  # a non-finite field is named below
        t_add, y_add = _refine(t[k], t[k + 1], fields(t[k], y[:, k]),
                               fields(t[k + 1], y[:, k + 1]), sample_at)
    if t_add.size:
        order = np.argsort(np.concatenate((t, t_add)))
        t = np.concatenate((t, t_add))[order]
        y = np.concatenate((y, y_add), axis=1)[:, order]
    beta, beta_dot = y[0], y[1]
    theta = theta_profile(t, params.T)
    trajectory = AngleTrajectory(t, theta, beta, beta_dot)

    if np.any(np.abs(np.sin(beta)) < _SIN_BETA_FLOOR):
        raise SingularityError("sin(beta) vanishes; Omega undefined")
    omega, delta, mu = analytic_diagnostics(
        theta, beta, beta_dot, params.c, params.branch_sign
    )
    bad = ~(np.isfinite(omega) & np.isfinite(delta))
    if bad.any():
        t_bad = float(t[np.argmax(bad)])
        raise DesignError(
            f"c = {params.c:g} (T = {params.T:g}): the fields are not finite "
            f"at t = {t_bad:.6g}", t_fail=t_bad)
    interior = np.abs(t) <= 0.95 * params.kappa * params.T
    residual = float(np.max(np.abs(mu[interior] - params.c)))

    pulse = Pulse(
        t=t,
        omega=omega,
        delta=delta,
        area=float(ys[2, -1]),
        beta_final=float(-beta[-1]),
        adiabaticity_residual=residual,
        params=params,
    )
    return pulse, trajectory
