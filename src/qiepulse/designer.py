"""Constant-adiabaticity pulse synthesis.

The followed eigenstate is parameterized by the polar angle theta(t) (fixed
by profiles.theta_profile) and an azimuth beta(t).  The fields are recovered
algebraically from the angles,

    Omega = theta_dot / sin(beta)
    Delta = beta_dot - theta_dot * cot(theta) * cot(beta),

and the design holds the adiabaticity parameter

    mu = |Omega_dot * Delta - Omega * Delta_dot| / (2 (Omega^2 + Delta^2)^{3/2})

at a constant c.  In the field's mixing angle x = atan2(Omega, Delta) this
is mu = |x_dot| / (2 sqrt(Omega^2 + Delta^2)), the local-adiabaticity form
(Roland & Cerf, PRA 65, 042308 (2002)), so mu = c fixes
x_dot = branch_sign * 2 c sqrt(Omega^2 + Delta^2).  With Omega as above,
Delta = Omega * cot(x) and the Sundman time s, dt/ds = sin(beta) sin(x), the
constraint is the first-order system design_pulse integrates (the s-form):

    dt/ds    = sin(beta) * sin(x)
    dbeta/ds = theta_dot * (cot(theta) * cos(beta) * sin(x) + cos(x))
    dx/ds    = branch_sign * 2 c * theta_dot

Nothing in it divides by sin(beta).  Where beta comes close to 0 the field
spikes and t(s) slows, and the bounce is a smooth turning point in s; t(s)
increases while beta and x stay in (0, pi), and a design that leaves that
range fails.  Since |Omega| dt/ds = theta_dot sin(x) = sin(x) (dx/ds) /
(2 c branch_sign), the area has a closed form:

    area = (cos(x0) - cos(x_f)) / (2 c branch_sign).

The boundary condition is beta(t_start) = pi/2, where Delta = beta_dot, so
x0 = atan2(theta_dot, beta_dot) at t_start; beta_dot(t_start) is a
configuration choice (DesignParams.beta_rate_init).

T is only the unit of time: theta depends on t / T, and beta, x and the
area on c alone.  design_pulse works in units of T (T = 1) and scales its
output once, t by T, the rates by 1/T and theta_ddot by 1/T^2: a design at
T is the T = 1 design, bit for bit, and fails where it fails or overflows.

The t-form of the same constraint, second order in beta, is kept as the
kernel _constraint: Delta_dot is affine in beta_ddot with unit coefficient
and Omega_dot does not contain beta_ddot, so

    beta_ddot = (A - branch_sign * 2 c (Omega^2 + Delta^2)^{3/2}) / Omega,
    A         = Omega_dot * Delta - Omega * G,

where G collects the beta_ddot-free part of Delta_dot (Delta_dot =
beta_ddot + G).  design_pulse records mu with it along a design.

Sign conventions are fixed by the algebra above and by the propagator's
Hamiltonian (see dynamics): under that Hamiltonian the Bloch azimuth of the
propagated state is -beta(t), so Pulse.beta_final records -beta[-1], the
azimuth actually reached.  That is the value to hand to target_state.

A Pulse is its samples: the fields at the times t it carries, which
design_pulse refines where the trapezoid of |Omega| between uniform samples
misses the exact area.  The trajectory keeps the stepper's run (Solution)
and the mixing angle's ends x0 and x_f.  In sigma, d sigma = theta_dot ds,
the drive is the unit field (Omega, Delta) dt/dsigma = (sin x, cos x),
whose x turns at the constant rate 2 c branch_sign from x0 to x_f, with no
spike: robustness scans it from these alone.
"""

import math
import operator
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np

from .errors import DesignError, ParameterError
from .profiles import _SQRT_PI, ThetaSample, _value_eq, theta_profile

__all__ = [
    "DesignParams",
    "AngleTrajectory",
    "Pulse",
    "design_pulse",
    "analytic_diagnostics",
]

# Most samples a pulse or error grid may have; a float array of them is 80 MB
MAX_SAMPLES = 10**7

# Most accepted steps a design may take: 200x the 508 s-steps of c = 0.03
# (c = 0.001 takes 8,376), and a bound on the steps' record and dense output
# (about 1 kB a step)
MAX_STEPS = 10**5

# Relative and absolute tolerances of the design ODE's step control
ODE_RTOL, ODE_ATOL = 1e-9, 1e-11

# Largest |t(s) - t_k|, in units of T, at which the clock's inversion stops,
# and the most steps it may take (see _locate_clock): the 24,000 designs of
# ten 30 s design_sweep runs took at most 8, and 53 bisections alone narrow
# a step's fraction to its float resolution
CLOCK_TOL, _CLOCK_STEPS = 1e-12, 64

# _dopri5's failure where no step can be taken
_NO_STEP = "Required step size is less than spacing between numbers."

# Largest gap, in radians, between the trapezoid of |Omega| over an interval
# of a designed pulse's samples and the interval's exact area; see _refine.
REFINE_TOL = 1e-4

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


def _real(x, name):
    """x if it is a real number, else nan: a bool is not one, though
    numbers.Real takes it.  A real no float holds, such as an integer past
    the float range, raises ParameterError naming it: it would compare
    finite and overflow later."""
    if not isinstance(x, Real) or isinstance(x, bool):
        return math.nan
    try:
        float(x)
    except OverflowError:
        raise ParameterError(f"{name} is past the float range") from None
    return x


def _is_count(n, lo, hi=MAX_SAMPLES):
    """Whether n is an integer, of Python or numpy (operator.index takes
    it), in [lo, hi]; a bool is none, though operator.index takes Python's."""
    if isinstance(n, bool):
        return False
    try:
        return lo <= operator.index(n) <= hi
    except TypeError:
        return False


@dataclass(frozen=True)
class DesignParams:
    """Complete specification of one design run.

    branch_sign, the integer +1 or -1 (of Python or numpy, not a bool), is
    the sign of x_dot, the turn of the field's mixing angle;
    beta_rate_init picks beta_dot(t_start): "zero" (x0 = pi/2), or
    "consistency" for the rate that satisfies the constraint in the
    Omega -> 0 limit, with the sign of branch_sign (negative descends from
    pi/2 and starts x just below pi, the shipped default; the other sign
    designs the mirrored branch).  The window [-kappa T, kappa T] needs no
    floor on Omega: |Omega| = theta_dot / |sin(beta)| >= theta_dot(kappa T)
    = (sqrt(pi) / 2T) exp(-kappa^2) > 0 for every kappa < 5.925 that
    design_pulse integrates, so no design reaches Omega = Delta = 0.
    """

    c: float
    T: float = 1.0
    kappa: float = 4.0
    n_samples: int = 4001
    branch_sign: int = -1
    beta_rate_init: str = "consistency"

    def __post_init__(self):
        c, T, kappa = map(_real, (self.c, self.T, self.kappa), ("c", "T", "kappa"))
        if not 0 < c < math.inf:
            raise ParameterError(f"c must be positive and finite, got {self.c!r}")
        if not 0 < T < math.inf:
            raise ParameterError(f"T must be positive and finite, got {self.T!r}")
        if not 3 <= kappa < math.inf:
            raise ParameterError(f"kappa must be finite and >= 3, got {self.kappa!r}")
        if not _is_count(self.n_samples, 3):
            raise ParameterError(f"n_samples must be >= 3 and <= {MAX_SAMPLES}, "
                                 f"got {self.n_samples!r}")
        if not _is_count(self.branch_sign, -1, 1) or self.branch_sign == 0:
            raise ParameterError(
                f"branch_sign must be +1 or -1, got {self.branch_sign}"
            )
        if self.beta_rate_init not in ("zero", "consistency"):
            raise ParameterError(
                "beta_rate_init must be 'zero' or 'consistency', "
                f"got {self.beta_rate_init!r}"
            )


@dataclass
class Solution:
    """The design's Dormand-Prince run in units of T: the accepted Sundman
    times ss, the (3, len(ss)) states (t, beta, x) there, the (steps, 3, 4)
    coefficients q of each step's quartic interpolant (see _dense) and its
    work, nfev right-hand-side evaluations and rejected step attempts, as
    _dopri5 returns it."""

    ss: np.ndarray
    ys: np.ndarray
    q: np.ndarray
    nfev: int
    rejected: int

    __eq__ = _value_eq  # by value, NaN equal to NaN


@dataclass
class AngleTrajectory:
    """Designed angles at the pulse's times t; beta starts at pi/2 exactly.
    mu is the adiabaticity parameter there, as analytic_diagnostics gives it
    from these angles.  solution is the Solution record the design sampled
    (None on a trajectory built by hand); it is not compared.  x0 and x_f
    are the field's mixing angle at the window's ends, the design's own
    values, from which the area follows (nan on a trajectory built by
    hand)."""

    t: np.ndarray
    theta: ThetaSample
    beta: np.ndarray
    beta_dot: np.ndarray
    mu: np.ndarray
    solution: Optional[Solution] = field(default=None, compare=False)
    x0: float = math.nan
    x_f: float = math.nan

    __eq__ = _value_eq  # by value, NaN equal to NaN


@dataclass
class Pulse:
    """Sampled drive with derived metadata.

    t is the time axis, any spacing: 1-D, finite, strictly increasing, at
    least 3 samples, one omega and one delta sample per time (else
    ParameterError); omega and delta are held as float arrays.  beta_final
    is the Bloch azimuth the propagated state reaches at t[-1] (equal to
    -beta[-1] of the design trajectory; the Hamiltonian precession sense
    mirrors the azimuth).  adiabaticity_residual is the max interior deviation of the
    design trajectory's mu from c; params is the design provenance
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
            raise ParameterError(f"t must be 1-D with >= 3 samples, "
                                 f"got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(t[1:] > t[:-1])):
            raise ParameterError("t must be finite and strictly increasing")
        if self.omega.shape != t.shape or self.delta.shape != t.shape:
            raise ParameterError(f"omega and delta need one sample per time, "
                                 f"t has {t.size}")


def _constraint(theta: ThetaSample, beta, beta_dot, c: float,
                branch_sign: float):
    """The constraint algebra at one point or along aligned arrays.

    Returns (omega, delta, omega_dot, G, beta_ddot): the fields, the
    beta_ddot-free parts of their rates (Delta_dot = beta_ddot + G), and the
    beta_ddot that holds the adiabaticity parameter at c on the given branch.
    """
    th, thd, thdd = theta.theta, theta.theta_dot, theta.theta_ddot
    sb, cb = np.sin(beta), np.cos(beta)
    st, ct = np.sin(th), np.cos(th)
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
    """(Omega, Delta) at the angles (beta, beta_dot): the first two outputs
    of _constraint on arrays, inf or nan where sin(beta) or sin(theta)
    vanishes."""
    with np.errstate(all="ignore"):
        omega, delta, *_ = _constraint(theta, np.asarray(beta, dtype=float),
                                       beta_dot, 0.0, 1)
    return omega, delta


def beta_acceleration(theta: ThetaSample, beta: float, beta_dot: float,
                      c: float, branch_sign: float) -> float:
    """beta_ddot enforcing a constant adiabaticity parameter c at one point:
    the last output of _constraint, nan where it is not finite (the algebra
    divides by zero or overflows).  This is the t-form's right-hand side;
    design_pulse integrates the s-form and does not call it."""
    with np.errstate(all="ignore"):
        acc = float(_constraint(theta, np.float64(beta), beta_dot, c,
                                branch_sign)[4])
    return acc if math.isfinite(acc) else math.nan


def analytic_diagnostics(theta: ThetaSample, beta, beta_dot, c: float,
                         branch_sign: int):
    """Fields and adiabaticity parameter along a constrained trajectory.

    mu = |Omega_dot Delta - Omega Delta_dot| / (2 (Omega^2 + Delta^2)^{3/2}),
    with Omega_dot and Delta_dot from the angle derivatives (beta_ddot taken
    from the constraint), never from differencing sampled fields; a
    non-finite field gives a non-finite mu, and Omega = Delta = 0, where
    beta_ddot is 0/0, a nan mu.  Returns (omega, delta, mu).
    """
    with np.errstate(all="ignore"):
        omega, delta, omega_dot, G, beta_ddot = _constraint(
            theta, np.asarray(beta, dtype=float),
            np.asarray(beta_dot, dtype=float), c, branch_sign
        )
        mu = (np.abs(omega_dot * delta - omega * (beta_ddot + G))
              / (2.0 * (omega * omega + delta * delta)**1.5))
    return omega, delta, mu


def _area(omega, t) -> float:
    """Integral of |Omega| over the samples t: the trapezoid rule, which is
    what the propagator's linear interpolation of the samples sees, with
    np.trapezoid's products and sum.  An interval with no field has no area
    however wide it is; the area is not finite where other arithmetic
    overflows."""
    f = np.abs(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        heights = f[1:] + f[:-1]
        parts = np.diff(t) * heights / 2.0
    parts[heights == 0.0] = 0.0
    return float(np.add.reduce(parts))


def _theta_dot(tau):
    """theta_dot at the times tau in units of T: theta_profile's array
    formula at T = 1."""
    return _SQRT_PI / 2.0 * np.exp(-tau * tau)


def _omega(y):
    """Omega = theta_dot / sin(beta) at the states y = (t, beta, x)."""
    return _theta_dot(y[0]) / np.sin(y[1])


def _s_form(x_rate):
    """The s-form's right-hand side f(s, t, beta, x) on floats, t in units
    of T, for dx/ds per unit theta_dot, x_rate = 2 c branch_sign.

    theta and theta_dot are theta_profile's scalar formulas at T = 1 written
    out, the same float operations in the same order, so the design has
    theta_profile's bits without a call and a ThetaSample per evaluation.
    A step whose stage is not finite (1/0 at theta = 0, sin(inf)) gets nan,
    which rejects it.
    """
    theta_dot_scale, quarter_pi = _SQRT_PI / 2.0, 0.25 * math.pi
    erf, exp, sin, cos, nan = math.erf, math.exp, math.sin, math.cos, math.nan

    def rhs(s, r, beta, x):
        theta = quarter_pi * (erf(r) + 1.0)
        theta_dot = theta_dot_scale * exp(-r * r)
        try:
            sin_x = sin(x)
            cot_theta = cos(theta) / sin(theta)
            return (sin(beta) * sin_x,
                    theta_dot * (cot_theta * cos(beta) * sin_x + cos(x)),
                    x_rate * theta_dot)
        except (ArithmeticError, ValueError):
            return nan, nan, nan

    return rhs


def _dopri5(f, y0, t_end, rtol, atol, check):
    """Integrate y' = f(s, y) from s = 0 with Dormand-Prince 5(4) until the
    first state, a clock, reaches t_end.

    The state (u, v, w) and stages (u1..w7) are float locals; f(s, u, v, w)
    takes the state as three floats and returns three.  Step control as
    scipy's RK45: initial step from the first two derivatives, RMS error
    norm over atol + max(|y|, |y_new|) rtol, step factor 0.9 err^(-1/5) in
    [0.2, 10], no growth right after a rejection.  No step is clamped: the
    run ends on the accepted step where u >= t_end; check(u, v, w) sees
    every accepted state first and may raise.  Returns the Solution: the
    accepted s, the (3, len(ss)) states there, each step's quartic
    coefficients (steps, 3, 4) (see _dense), and the count of f evaluations
    (two to start, six an attempt) and of rejected attempts.  Raises
    DesignError, with t_fail the clock, when the initial step is 0 or not
    finite (f / scale overflowed), when a step falls below 10 ulp of s or
    when MAX_STEPS steps have been accepted short of t_end.
    """
    s, (u, v, w) = 0.0, map(float, y0)
    u1, v1, w1 = f(s, u, v, w)
    au, av, aw = abs(u), abs(v), abs(w)  # |y|, carried from step to step
    su, sv, sw = atol + au * rtol, atol + av * rtol, atol + aw * rtol
    eu, ev, ew, du, dv, dw = u / su, v / sv, w / sw, u1 / su, v1 / sv, w1 / sw
    d0 = math.sqrt((eu * eu + ev * ev + ew * ew) / 3)  # RMS norms
    d1 = math.sqrt((du * du + dv * dv + dw * dw) / 3)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise DesignError(_NO_STEP, t_fail=u)
    fu, fv, fw = f(s + h0, u + h0 * u1, v + h0 * v1, w + h0 * w1)
    eu, ev, ew = (fu - u1) / su, (fv - v1) / sv, (fw - w1) / sw
    d2 = math.sqrt((eu * eu + ev * ev + ew * ew) / 3) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1)
    ss, ys, ks, rejections = [s], [u, v, w], [], 0
    while u < t_end:
        if len(ss) > MAX_STEPS:
            raise DesignError(f"no end after {MAX_STEPS} accepted steps",
                              t_fail=u)
        min_step = 10 * (math.nextafter(s, math.inf) - s)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a nan step
                raise DesignError(_NO_STEP, t_fail=u)
            s_new = s + h_abs
            h = h_abs = s_new - s
            u2, v2, w2 = f(s + _C2 * h, u + _A21 * u1 * h, v + _A21 * v1 * h,
                           w + _A21 * w1 * h)
            u3, v3, w3 = f(s + _C3 * h, u + (_A31 * u1 + _A32 * u2) * h,
                           v + (_A31 * v1 + _A32 * v2) * h,
                           w + (_A31 * w1 + _A32 * w2) * h)
            u4, v4, w4 = f(s + _C4 * h, u + (_A41 * u1 + _A42 * u2 + _A43 * u3) * h,
                           v + (_A41 * v1 + _A42 * v2 + _A43 * v3) * h,
                           w + (_A41 * w1 + _A42 * w2 + _A43 * w3) * h)
            u5, v5, w5 = f(s + _C5 * h,
                           u + (_A51 * u1 + _A52 * u2 + _A53 * u3 + _A54 * u4) * h,
                           v + (_A51 * v1 + _A52 * v2 + _A53 * v3 + _A54 * v4) * h,
                           w + (_A51 * w1 + _A52 * w2 + _A53 * w3 + _A54 * w4) * h)
            u6, v6, w6 = f(
                s + h,
                u + (_A61 * u1 + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5) * h,
                v + (_A61 * v1 + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5) * h,
                w + (_A61 * w1 + _A62 * w2 + _A63 * w3 + _A64 * w4 + _A65 * w5) * h)
            un = u + h * (_B1 * u1 + _B3 * u3 + _B4 * u4 + _B5 * u5 + _B6 * u6)
            vn = v + h * (_B1 * v1 + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
            wn = w + h * (_B1 * w1 + _B3 * w3 + _B4 * w4 + _B5 * w5 + _B6 * w6)
            u7, v7, w7 = f(s + h, un, vn, wn)
            bu = -un if un < 0 else un  # |y_new|; max(|y|, |y_new|) below
            bv = -vn if vn < 0 else vn  # is builtin max's: |y_new| only
            bw = -wn if wn < 0 else wn  # where larger, so a nan |y| stays
            eu = ((_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7)
                  * h / (atol + (bu if bu > au else au) * rtol))
            ev = ((_E1 * v1 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7)
                  * h / (atol + (bv if bv > av else av) * rtol))
            ew = ((_E1 * w1 + _E3 * w3 + _E4 * w4 + _E5 * w5 + _E6 * w6 + _E7 * w7)
                  * h / (atol + (bw if bw > aw else aw) * rtol))
            err = math.sqrt((eu * eu + ev * ev + ew * ew) / 3)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            rejections += 1
        check(un, vn, wn)
        ks += (u1, v1, w1, u2, v2, w2, u3, v3, w3, u4, v4, w4,
               u5, v5, w5, u6, v6, w6, u7, v7, w7)
        s, u, v, w, u1, v1, w1, au, av, aw = s_new, un, vn, wn, u7, v7, w7, bu, bv, bw
        ss.append(s)
        ys += (u, v, w)
    q = np.einsum("skn,kp->snp", np.fromiter(ks, float).reshape(-1, 7, 3), _DENSE_P)
    return Solution(np.array(ss), np.fromiter(ys, float).reshape(-1, 3).T, q,
                    2 + 6 * (len(q) + rejections), rejections)


def _dense(solution, seg, frac):
    """The (3, len(seg)) states at fraction frac of accepted steps seg: each
    step's quartic, y = y[seg] + h sum_p q[seg, :, p] frac^(p+1)."""
    powers = np.empty((4, frac.size))
    powers[0] = frac
    for p in range(1, 4):
        np.multiply(powers[p - 1], frac, out=powers[p])
    return (np.diff(solution.ss)[seg]
            * np.einsum("snp,ps->ns", solution.q.take(seg, axis=0), powers)
            + solution.ys.take(seg, axis=1))


def _locate(ss, s):
    """(seg, frac) of the values s in the accepted steps ss (a step
    boundary takes the earlier step)."""
    seg = np.searchsorted(ss[1:-1], s, side="left")
    start = ss[seg]
    return seg, (s - start) / (ss[seg + 1] - start)


def _locate_clock(solution, times, tol):
    """(seg, frac) where the dense first state, an increasing clock, equals
    the times: Newton's method on each step's quartic, from the linear
    interpolation between the step's ends (_locate on the clock), to
    |clock - time| <= tol.  Each point keeps a bracket [lo, hi] of fractions
    whose clock lies below and above its time, and a Newton step that leaves
    the bracket, or does not halve the miss, is replaced by the bracket's
    midpoint.  The points not yet within tol are iterated in compacted
    arrays.  Raises DesignError, with t_fail, where _CLOCK_STEPS steps do
    not get there."""
    ss, clock = solution.ss, solution.ys[0]
    seg, frac = _locate(clock, times)
    a0, a1, a2, a3 = (np.diff(ss) * solution.q[:, 0].T).take(seg, axis=1)
    goal = times - clock[seg]
    x, lo, hi = frac, np.zeros(frac.size), np.ones(frac.size)
    last = np.full(frac.size, np.inf)  # |miss| of the step before
    off = np.arange(frac.size)
    for _ in range(_CLOCK_STEPS):
        miss = x * (a0 + x * (a1 + x * (a2 + x * a3))) - goal
        abs_miss = np.abs(miss)
        keep = ~(abs_miss <= tol)  # nan is not there
        if not keep.all():
            done = ~keep
            frac[off[done]] = x[done]
            if not keep.any():
                return seg, frac
            off, x, miss, abs_miss, goal, lo, hi, last, a0, a1, a2, a3 = (
                v[keep] for v in (off, x, miss, abs_miss, goal, lo, hi, last,
                                  a0, a1, a2, a3))
        below = miss < 0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        slope = a0 + x * (2 * a1 + x * (3 * a2 + x * 4 * a3))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - miss / slope
        newton = (lo < step) & (step < hi) & (abs_miss <= 0.5 * last)
        x = np.where(newton, step, 0.5 * (lo + hi))
        last = abs_miss
    t_bad = float(times[off[0]])
    raise DesignError(f"the clock t(s) was not inverted to {tol:.3g} in "
                      f"{_CLOCK_STEPS} steps", t_fail=t_bad)


def _refine(solution, s, y, omega, x_rate):
    """States that resolve the field between the states y at the values s.

    y is the (3, len(s)) state (t, beta, x) of the solution's dense output
    and omega the field Omega there.  Between two states the exact area is
    (cos x_a - cos x_b) / x_rate (see the module notes), and the samples
    carry the trapezoid of |Omega|.  An interval whose trapezoid misses its
    exact area by more than REFINE_TOL is split at its midpoint in s, and
    each half is tested the same way.  A midpoint whose time is not
    strictly inside its interval is not added.  Returns the added states.
    """
    ends = np.stack((s, y[0], omega, np.cos(y[2])))  # s, t, Omega, cos x
    lo, hi = ends[:, :-1], ends[:, 1:]  # of each interval
    states = [np.zeros((3, 0))]
    while True:
        trap = 0.5 * (np.abs(lo[2]) + np.abs(hi[2])) * (hi[1] - lo[1])
        k = np.flatnonzero(np.abs(trap - (lo[3] - hi[3]) / x_rate)
                           > REFINE_TOL)
        if not k.size:
            return np.concatenate(states, axis=1)
        lo, hi = lo.take(k, axis=1), hi.take(k, axis=1)
        m = 0.5 * (lo[0] + hi[0])
        ym = _dense(solution, *_locate(solution.ss, m))
        om = _omega(ym)
        inside = (lo[1] < ym[0]) & (ym[0] < hi[1])
        if not inside.all():
            lo, hi, m = lo[:, inside], hi[:, inside], m[inside]
            ym, om = ym[:, inside], om[inside]
        states.append(ym)
        mid = np.stack((m, ym[0], om, np.cos(ym[2])))
        lo = np.concatenate((lo, mid), axis=1)
        hi = np.concatenate((mid, hi), axis=1)


def _grid(params: DesignParams):
    """The uniform design grid in units of T, n_samples times over
    [-kappa, kappa]: a designed pulse's t holds T times each of them."""
    return np.linspace(-params.kappa, params.kappa, params.n_samples)


def design_pulse(params: DesignParams):
    """Integrate the constrained angles and reconstruct the drive.

    Returns (Pulse, AngleTrajectory).  Up to the output, t is in units of T
    (see the module notes).  The s-form is integrated in the Sundman time s
    by the adaptive Dormand-Prince 5(4) stepper _dopri5 at tolerances
    ODE_RTOL and ODE_ATOL, from (t, beta, x) = (-kappa, pi/2, x0) to the
    accepted step where t reaches kappa.  The uniform grid (_grid) is
    found on its dense output by inverting the increasing clock t(s)
    (_locate_clock); the last grid time is the window's end, where x is
    x_f.  The grid intervals get the points
    that resolve the field there: an interval is bisected in s while the
    trapezoid of |Omega| over it misses its exact area by more than
    REFINE_TOL (see _refine).
    The pulse's t holds every uniform point and the added ones, in order.
    The fields are Omega = theta_dot / sin(beta) and Delta = Omega cot(x);
    the area is the closed form (cos x0 - cos x_f) / (2 c branch_sign),
    exact to the solver's x_f at any sampling.  The trajectory keeps the
    stepper's Solution, in units of T, as its solution, and x0 and x_f.

    A window start where theta rounds to 0 (kappa >= 5.925: erf(-kappa)
    rounds to -1, and cot(theta) would divide by zero on every step), an
    accepted state or a sample with beta or x outside (0, pi), a failed
    step (below 10 ulp of s, the first one included), MAX_STEPS steps short
    of the window end, and returned arrays that are not finite raise
    DesignError naming c, T and the time t_fail it reached.
    """
    T, c, sign = params.T, params.c, float(params.branch_sign)
    tau = _grid(params)
    x_rate = 2.0 * c * sign  # dx/ds per unit theta_dot

    def check(tau_now, beta, x):
        if 0.0 < beta < math.pi and 0.0 < x < math.pi:
            return
        name, angle = (("beta", beta) if not 0.0 < beta < math.pi
                       else ("the mixing angle x", x))
        raise DesignError(f"{name} left (0, pi), at {angle / math.pi:.17g} pi",
                          t_fail=tau_now)

    start = theta_profile(tau[0], 1.0)
    rate0 = 0.0  # "zero": at rest
    if params.beta_rate_init == "consistency":
        # the rate for which the constraint holds in the Omega -> 0 limit,
        # where mu reduces to |Omega_dot| / (2 beta_dot^2)
        rate0 = sign * math.sqrt(abs(start.theta_ddot) / (2.0 * c))
    x0 = math.atan2(start.theta_dot, rate0)  # at beta = pi/2, Delta = beta_dot

    try:
        if not (math.isfinite(start.theta_dot) and math.isfinite(rate0)):
            raise DesignError("the initial state is not finite",
                              t_fail=float(tau[0]))
        if start.theta == 0.0:
            raise DesignError(f"theta rounds to 0 at the window start "
                              f"(kappa = {params.kappa:g}), so cot(theta) "
                              f"is infinite there", t_fail=float(tau[0]))
        solution = _dopri5(_s_form(x_rate), (tau[0], 0.5 * math.pi, x0),
                           tau[-1], ODE_RTOL, ODE_ATOL, check)
        seg, frac = _locate_clock(solution, tau, CLOCK_TOL)
        y = _dense(solution, seg, frac)
        y[0] = tau  # the clock there is within CLOCK_TOL of tau
        y[1:, 0] = 0.5 * np.pi, x0  # the start, exact by construction
        ss = solution.ss
        s = ss[seg] + frac * np.diff(ss)[seg]
        with np.errstate(invalid="ignore", divide="ignore"):  # named below
            y_add = _refine(solution, s, y, _omega(y), x_rate)
        if y_add.size:
            y = np.concatenate((y, y_add), axis=1)
            y = y[:, np.argsort(y[0])]
        # the samples obey check's rule, as the accepted states do
        out = ~((0.0 < y[1:]) & (y[1:] < np.pi)).all(axis=0)
        if out.any():
            check(*map(float, y[:, np.argmax(out)]))
    except DesignError as e:
        t_fail = T * e.t_fail
        raise DesignError(
            f"c = {c:g} (T = {T:g}): constrained integration "
            f"failed at t = {t_fail:.6g}: {e}",
            t_fail=t_fail,
        ) from None
    tau, beta, x = y
    theta = theta_profile(tau, 1.0)  # once per time

    with np.errstate(all="ignore"):
        omega = theta.theta_dot / np.sin(beta)
        delta = omega * np.cos(x) / np.sin(x)
        cot_theta = np.cos(theta.theta) / np.sin(theta.theta)
        beta_dot = delta + omega * cot_theta * np.cos(beta)
    beta_dot[0] = rate0  # exact, as the start
    mu = analytic_diagnostics(theta, beta, beta_dot, c, params.branch_sign)[2]
    interior = np.abs(tau) <= 0.95 * params.kappa
    residual = float(np.max(np.abs(mu[interior] - c)))

    # out of units of T, in place: the time scales by T, each rate by 1/T
    t, rates = tau, (omega, delta, beta_dot, theta.theta_dot)
    with np.errstate(all="ignore"):  # named below
        t *= T
        for rate in rates:
            rate /= T
        theta.theta_ddot /= T * T
    bad = ~np.all([np.isfinite(a) for a in (t, *rates, theta.theta_ddot)],
                  axis=0)
    if bad.any():
        t_bad = float(t[np.argmax(bad)])
        raise DesignError(
            f"c = {c:g} (T = {T:g}): the fields are not finite "
            f"at t = {t_bad:.6g}", t_fail=t_bad)
    x_f = float(x[-1])
    pulse = Pulse(t, omega, delta, (math.cos(x0) - math.cos(x_f)) / x_rate,
                  float(-beta[-1]), residual, params)
    return pulse, AngleTrajectory(t, theta, beta, beta_dot, mu, solution,
                                  x0, x_f)
