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
from scipy.integrate import simpson, solve_ivp

from .errors import (
    DegeneracyError, DesignError, GridError, ParameterError, SingularityError,
)
from .profiles import ThetaSample, theta_profile

__all__ = [
    "DesignParams",
    "AngleTrajectory",
    "Pulse",
    "invert_angles",
    "adiabaticity_parameter",
    "beta_acceleration",
    "initial_beta_rate",
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


@dataclass
class AngleTrajectory:
    """Designed angles at the pulse's times t; beta starts at pi/2 exactly."""

    t: np.ndarray
    theta: ThetaSample
    beta: np.ndarray
    beta_dot: np.ndarray


@dataclass
class Pulse:
    """Sampled drive with derived metadata.

    t is the time axis, any spacing: 1-D, finite, strictly increasing, at
    least 3 samples, one omega and one delta sample per time (else
    GridError).  beta_final is the Bloch azimuth the propagated state reaches
    at t[-1] (equal to -beta[-1] of the design trajectory; the Hamiltonian
    precession sense mirrors the azimuth).  adiabaticity_residual is the max
    interior deviation of the analytically evaluated parameter from c;
    params is the design provenance when the pulse came from design_pulse,
    else None.
    """

    t: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    area: float
    beta_final: float
    adiabaticity_residual: float
    params: Optional[DesignParams] = field(default=None, compare=False)

    def __post_init__(self):
        t = self.t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise GridError(f"t must be 1-D with >= 3 samples, got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise GridError("t must be finite and strictly increasing")
        if np.shape(self.omega) != t.shape or np.shape(self.delta) != t.shape:
            raise GridError(f"omega and delta need one sample per time, "
                            f"t has {t.size}")


def invert_angles(theta: ThetaSample, beta, beta_dot):
    """Recover (Omega, Delta) from the angle state.

    Accepts scalars or aligned arrays.  Requires sin(beta) bounded away from
    zero; at theta within 1e-12 of 0 the cot(theta) term is only defined for
    cot(beta) = 0 to the same precision (regularized start), where it is
    dropped.
    """
    th = np.asarray(theta.theta, dtype=float)
    thd = np.asarray(theta.theta_dot, dtype=float)
    b = np.asarray(beta, dtype=float)
    bd = np.asarray(beta_dot, dtype=float)
    sb = np.sin(b)
    cb = np.cos(b)
    if np.any(np.abs(sb) < _SIN_BETA_FLOOR):
        raise SingularityError("sin(beta) vanishes; Omega undefined")
    cot_b = cb / sb
    near_zero = np.abs(th) < 1e-12
    if np.any(near_zero & (np.abs(cot_b) > 1e-12)):
        raise SingularityError("theta = 0 with cot(beta) != 0")
    st = np.sin(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot_term = np.where(near_zero, 0.0, thd * (np.cos(th) / st) * cot_b)
    omega = thd / sb
    delta = bd - cot_term
    if np.ndim(beta) == 0 and np.ndim(theta.theta) == 0:
        return float(omega), float(delta)
    return omega, delta


def adiabaticity_parameter(omega, omega_dot, delta, delta_dot):
    """|Omega_dot Delta - Omega Delta_dot| / (2 (Omega^2 + Delta^2)^{3/2})."""
    om = np.asarray(omega, dtype=float)
    de = np.asarray(delta, dtype=float)
    gap_sq = om * om + de * de
    if np.any(gap_sq == 0.0):
        raise DegeneracyError(
            "adiabaticity parameter undefined at Omega = Delta = 0"
        )
    num = np.abs(
        np.asarray(omega_dot, dtype=float) * de
        - om * np.asarray(delta_dot, dtype=float)
    )
    out = num / (2.0 * gap_sq**1.5)
    return float(out) if np.ndim(out) == 0 else out


def _constraint(theta: ThetaSample, beta, beta_dot, c: float,
                branch_sign: int):
    """The constraint algebra at one point or along aligned arrays.

    Returns (omega, delta, omega_dot, G, beta_ddot): the fields, the
    beta_ddot-free parts of their rates (Delta_dot = beta_ddot + G), and the
    beta_ddot that holds the adiabaticity parameter at c on the given branch.
    """
    th = np.asarray(theta.theta, dtype=float)
    thd = np.asarray(theta.theta_dot, dtype=float)
    thdd = np.asarray(theta.theta_ddot, dtype=float)
    b = np.asarray(beta, dtype=float)
    bd = np.asarray(beta_dot, dtype=float)
    sb, cb = np.sin(b), np.cos(b)
    st, ct = np.sin(th), np.cos(th)
    cot_b = cb / sb
    cot_t = ct / st
    omega = thd / sb
    delta = bd - thd * cot_t * cot_b
    omega_dot = (thdd - thd * bd * cot_b) / sb
    G = (
        -thdd * cot_t * cot_b
        + thd * thd * cot_b / (st * st)
        + thd * bd * cot_t / (sb * sb)
    )
    gap3 = (omega * omega + delta * delta) ** 1.5
    A = omega_dot * delta - omega * G
    beta_ddot = (A - branch_sign * 2.0 * c * gap3) / omega
    return omega, delta, omega_dot, G, beta_ddot


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
    regularizes that region by holding the last finite value.
    """
    omega, _, _, _, beta_ddot = _constraint(theta, beta, beta_dot, c,
                                            branch_sign)
    if abs(omega) < omega_floor:
        return None
    return float(beta_ddot)


def analytic_diagnostics(theta: ThetaSample, beta, beta_dot, c: float,
                         branch_sign: int):
    """Fields and their analytic rates along a constrained trajectory.

    Omega_dot and Delta_dot come from the angle derivatives (beta_ddot taken
    from the constraint), never from differencing sampled fields.  Returns
    (omega, delta, omega_dot, delta_dot, mu).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        omega, delta, omega_dot, G, beta_ddot = _constraint(
            theta, beta, beta_dot, c, branch_sign
        )
    delta_dot = beta_ddot + G
    mu = adiabaticity_parameter(omega, omega_dot, delta, delta_dot)
    return omega, delta, omega_dot, delta_dot, mu


def _area(omega, t) -> float:
    """Integral of |Omega| over the samples t (composite Simpson)."""
    return float(simpson(np.abs(omega), x=t))


def initial_beta_rate(params: DesignParams) -> float:
    """beta_dot at t_start per the configured initialization.

    "zero" starts at rest.  "consistency" returns
    consistency_sign * sqrt(|theta_ddot(t_start)| / (2 c)), the rate for
    which the constraint holds in the Omega -> 0 limit, where the parameter
    reduces to |Omega_dot| / (2 beta_dot^2).
    """
    if params.beta_rate_init == "zero":
        return 0.0
    sample = theta_profile(-params.kappa * params.T, params.T)
    return params.consistency_sign * math.sqrt(
        abs(sample.theta_ddot) / (2.0 * params.c)
    )


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

    Returns (Pulse, AngleTrajectory).  The ODE is integrated with an adaptive
    RK45 stepper at the configured tolerances and sampled through its dense
    output on the uniform n_samples grid, plus the points that resolve the
    field inside the grid intervals that hold two or more solver steps:
    where beta comes close to 0, Omega = theta_dot / sin(beta) spikes between
    uniform samples.  Such an interval is bisected while linear
    interpolation misses the midpoint field by more than REFINE_TOL / width
    (see _refine); the pulse's t holds every uniform point and the added
    ones, in order.  The area is a third ODE state, the integral of
    theta_dot / |sin(beta)|, so it is exact to the solver tolerance whatever
    the sampling.  Near the window
    ends Omega ~ theta_dot is exponentially small and beta_ddot ~ 1/Omega is
    stiff; below OMEGA_FLOOR/T the acceleration is held at its last finite
    value.
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
        return (y[1], held[0], sample.theta_dot / abs(math.sin(y[0])))

    y0 = (0.5 * np.pi, initial_beta_rate(params), 0.0)
    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        y0,
        method="RK45",
        rtol=params.ode_rel_tol,
        atol=params.ode_abs_tol,
        dense_output=True,
    )
    if not sol.success:
        raise DesignError(
            f"constrained integration failed at t = {sol.t[-1]:.6g}: "
            f"{sol.message}",
            t_fail=float(sol.t[-1]),
        )

    def fields(times, y):
        omega, delta, *_ = _constraint(theta_profile(times, params.T), y[0],
                                       y[1], params.c, params.branch_sign)
        return np.stack((omega, delta))

    def sample_at(times):
        y = sol.sol(times)
        return y, fields(times, y)

    y = sol.sol(t)
    y[0, 0] = 0.5 * np.pi  # boundary condition, exact by construction
    k = np.flatnonzero(np.diff(np.searchsorted(sol.t, t)) >= 2)
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
    omega, delta, _, _, mu = analytic_diagnostics(
        theta, beta, beta_dot, params.c, params.branch_sign
    )
    interior = np.abs(t) <= 0.95 * params.kappa * params.T
    residual = float(np.max(np.abs(mu[interior] - params.c)))

    pulse = Pulse(
        t=t,
        omega=omega,
        delta=delta,
        area=float(sol.y[2, -1]),
        beta_final=float(-beta[-1]),
        adiabaticity_residual=residual,
        params=params,
    )
    return pulse, trajectory
