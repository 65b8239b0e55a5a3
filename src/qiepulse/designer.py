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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegeneracyError, DesignError, GridError, ParameterError, SingularityError,
)
from .profiles import ThetaSample, _value_eq, theta_profile

__all__ = [
    "DesignParams",
    "AngleTrajectory",
    "Pulse",
    "design_pulse",
    "analytic_diagnostics",
]

_SIN_BETA_FLOOR = 1e-14

# Most samples a pulse or error grid may have; a float array of them is 80 MB
MAX_SAMPLES = 10**7

# Most accepted steps a design may take: 30x the 3,234 of c = 0.03, and a
# bound on the steps' record and dense output (about 1 kB a step)
MAX_STEPS = 10**5

# Relative and absolute tolerances of the design ODE's step control
ODE_RTOL, ODE_ATOL = 1e-9, 1e-11

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
    rate that satisfies the constraint in the Omega -> 0 limit, with the sign
    of branch_sign (negative descends from pi/2, the shipped default; the
    other sign designs the mirrored branch).  The window [-kappa T, kappa T]
    needs no floor on Omega: |Omega| = theta_dot / |sin(beta)| >=
    theta_dot(kappa T) = (sqrt(pi) / 2T) exp(-kappa^2).
    """

    c: float
    T: float = 1.0
    kappa: float = 4.0
    n_samples: int = 4001
    branch_sign: int = -1
    beta_rate_init: str = "consistency"

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ParameterError(f"c must be positive and finite, got {self.c}")
        if not 0 < self.T < math.inf:
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not 3 <= self.kappa < math.inf:
            raise ParameterError(f"kappa must be finite and >= 3, got {self.kappa}")
        if not 3 <= self.n_samples <= MAX_SAMPLES:
            raise ParameterError(f"n_samples must be >= 3 and <= "
                                 f"{MAX_SAMPLES}, got {self.n_samples}")
        if self.branch_sign not in (-1, 1):
            raise ParameterError(
                f"branch_sign must be +1 or -1, got {self.branch_sign}"
            )
        if self.beta_rate_init not in ("zero", "consistency"):
            raise ParameterError(
                "beta_rate_init must be 'zero' or 'consistency', "
                f"got {self.beta_rate_init!r}"
            )


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
                branch_sign: float):
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


def beta_acceleration(theta: ThetaSample, beta: float, beta_dot: float,
                      c: float, branch_sign: float) -> float:
    """beta_ddot enforcing a constant adiabaticity parameter c at one point:
    the last output of _constraint on floats, nan where the algebra divides
    by zero or overflows (the step is then rejected)."""
    try:
        return _constraint(theta, beta, beta_dot, c, branch_sign)[4]
    except (ArithmeticError, ValueError):  # math's 1/0, overflow, sin(inf)
        return math.nan


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


def _rms(a, b, c):
    """Root mean square of the three components of an error vector."""
    return math.sqrt((a * a + b * b + c * c) / 3)


def _dopri5(f, t0, t1, y0, rtol, atol):
    """Integrate y' = f(t, y) from t0 to t1 > t0 with Dormand-Prince 5(4).

    The state (u, v, w) and stages (u1..w7) are float locals; f takes the
    state as a tuple and returns three floats.  Step control as scipy's
    RK45: initial step from the first two derivatives, RMS error norm over
    atol + max(|y|, |y_new|) rtol, step factor 0.9 err^(-1/5) in [0.2, 10],
    no growth right after a rejection, last step ending on t1.  Returns
    (ts, ys, dense): the accepted times, the (3, len(ts)) states there, and
    dense(times) -> (3, len(times)) from each step's quartic interpolant (a
    step boundary takes the earlier step).  Raises DesignError, with t_fail,
    when y0 is not finite, the step falls below 10 ulp of t, or MAX_STEPS
    steps have been accepted short of t1.
    """
    t, t1, (u, v, w) = float(t0), float(t1), map(float, y0)
    if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(w)):
        raise DesignError("the initial state is not finite", t_fail=t)
    u1, v1, w1 = f(t, (u, v, w))
    su, sv, sw = atol + abs(u) * rtol, atol + abs(v) * rtol, atol + abs(w) * rtol
    d0 = _rms(u / su, v / sv, w / sw)
    d1 = _rms(u1 / su, v1 / sv, w1 / sw)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    fu, fv, fw = f(t + h0, (u + h0 * u1, v + h0 * v1, w + h0 * w1))
    d2 = _rms((fu - u1) / su, (fv - v1) / sv, (fw - w1) / sw) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t)
    ts, ys, ks = [t], [(u, v, w)], []
    while t < t1:
        if len(ks) == MAX_STEPS:
            raise DesignError(f"no end after {MAX_STEPS} accepted steps",
                              t_fail=t)
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a nan step
                raise DesignError("Required step size is less than spacing "
                                  "between numbers.", t_fail=t)
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            u2, v2, w2 = f(t + _C2 * h, (u + _A21 * u1 * h, v + _A21 * v1 * h,
                                         w + _A21 * w1 * h))
            u3, v3, w3 = f(t + _C3 * h, (u + (_A31 * u1 + _A32 * u2) * h,
                                         v + (_A31 * v1 + _A32 * v2) * h,
                                         w + (_A31 * w1 + _A32 * w2) * h))
            u4, v4, w4 = f(t + _C4 * h, (
                u + (_A41 * u1 + _A42 * u2 + _A43 * u3) * h,
                v + (_A41 * v1 + _A42 * v2 + _A43 * v3) * h,
                w + (_A41 * w1 + _A42 * w2 + _A43 * w3) * h))
            u5, v5, w5 = f(t + _C5 * h, (
                u + (_A51 * u1 + _A52 * u2 + _A53 * u3 + _A54 * u4) * h,
                v + (_A51 * v1 + _A52 * v2 + _A53 * v3 + _A54 * v4) * h,
                w + (_A51 * w1 + _A52 * w2 + _A53 * w3 + _A54 * w4) * h))
            u6, v6, w6 = f(t + h, (
                u + (_A61 * u1 + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5) * h,
                v + (_A61 * v1 + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5) * h,
                w + (_A61 * w1 + _A62 * w2 + _A63 * w3 + _A64 * w4 + _A65 * w5) * h))
            un = u + h * (_B1 * u1 + _B3 * u3 + _B4 * u4 + _B5 * u5 + _B6 * u6)
            vn = v + h * (_B1 * v1 + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
            wn = w + h * (_B1 * w1 + _B3 * w3 + _B4 * w4 + _B5 * w5 + _B6 * w6)
            u7, v7, w7 = f(t + h, (un, vn, wn))
            err = _rms(
                (_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7)
                * h / (atol + max(abs(u), abs(un)) * rtol),
                (_E1 * v1 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7)
                * h / (atol + max(abs(v), abs(vn)) * rtol),
                (_E1 * w1 + _E3 * w3 + _E4 * w4 + _E5 * w5 + _E6 * w6 + _E7 * w7)
                * h / (atol + max(abs(w), abs(wn)) * rtol))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        ks.append((u1, v1, w1, u2, v2, w2, u3, v3, w3, u4, v4, w4,
                   u5, v5, w5, u6, v6, w6, u7, v7, w7))
        t, u, v, w, u1, v1, w1 = t_new, un, vn, wn, u7, v7, w7
        ts.append(t)
        ys.append((u, v, w))

    ts, ys = np.array(ts), np.array(ys).T
    widths = np.diff(ts)
    q = np.einsum("skn,kp->snp", np.array(ks).reshape(-1, 7, 3), _DENSE_P)

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
    adaptive Dormand-Prince 5(4) stepper _dopri5 at tolerances ODE_RTOL and
    ODE_ATOL and sampled through its dense output on the uniform
    n_samples grid, plus the points that resolve the field inside the grid
    intervals that hold two or more solver steps: where beta comes close to
    0, Omega = theta_dot / sin(beta) spikes between uniform samples.  Such
    an interval is bisected while linear interpolation misses the midpoint
    field by more than REFINE_TOL / width (see _refine); the pulse's t
    holds every uniform point and the added ones, in order.  The area is a
    third ODE state, the integral of theta_dot / |sin(beta)|, so it is exact
    to the solver tolerance whatever the sampling.  Near the window ends
    Omega ~ theta_dot is exponentially small and beta_ddot ~ 1/Omega is
    stiff, but |Omega| >= theta_dot(kappa T) = (sqrt(pi) / 2T)
    exp(-kappa^2) > 0.  Past kappa ~ 5.92, erf(-kappa) rounds to -1, theta
    to 0, and the integration fails at t = -kappa T.  A failed integration,
    or one still short of the window end after MAX_STEPS steps, raises
    DesignError naming c, T and the time it reached (t_fail), and so do
    fields that are not finite, at the first such time.
    """
    half_width = params.kappa * params.T
    t = np.linspace(-half_width, half_width, params.n_samples)
    T, c = params.T, params.c
    sign = float(params.branch_sign)  # keeps the RHS arithmetic on floats

    def rhs(ti, y):
        beta, beta_dot, _ = y
        sample = theta_profile(ti, T)
        acc = beta_acceleration(sample, beta, beta_dot, c, sign)
        try:
            rate = sample.theta_dot / abs(math.sin(beta))
        except (ZeroDivisionError, ValueError):  # sin(beta) = 0 or beta = inf
            rate = math.nan  # rejects the step
        return beta_dot, acc, rate

    rate0 = 0.0  # "zero": at rest
    if params.beta_rate_init == "consistency":
        # the rate for which the constraint holds in the Omega -> 0 limit,
        # where mu reduces to |Omega_dot| / (2 beta_dot^2)
        rate0 = params.branch_sign * math.sqrt(
            abs(theta_profile(-half_width, params.T).theta_ddot)
            / (2.0 * params.c))
    y0 = (0.5 * math.pi, rate0, 0.0)
    try:
        ts, ys, dense = _dopri5(rhs, t[0], t[-1], y0, ODE_RTOL, ODE_ATOL)
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
