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
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .errors import (
    DegeneracyError, DesignError, ParameterError, SingularityError,
)
from .profiles import ThetaSample, TimeGrid, theta_profile

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
        if not self.c > 0:
            raise ParameterError(f"c must be positive, got {self.c}")
        if not self.T > 0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if not self.kappa >= 3:
            raise ParameterError(f"kappa must be >= 3, got {self.kappa}")
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

    def grid(self) -> TimeGrid:
        return TimeGrid.symmetric(self.kappa, self.T, self.n_samples)


@dataclass
class AngleTrajectory:
    """Designed angles on the grid; beta starts at pi/2 exactly."""

    grid: TimeGrid
    theta: ThetaSample
    beta: np.ndarray
    beta_dot: np.ndarray


@dataclass
class Pulse:
    """Sampled drive with derived metadata.

    beta_final is the Bloch azimuth the propagated state reaches at t_end
    (equal to -beta[-1] of the design trajectory; the Hamiltonian precession
    sense mirrors the azimuth).  adiabaticity_residual is the max interior
    deviation of the analytically evaluated parameter from c; params is the
    design provenance when the pulse came from design_pulse, else None.
    """

    grid: TimeGrid
    omega: np.ndarray
    delta: np.ndarray
    area: float
    beta_final: float
    adiabaticity_residual: float
    params: Optional[DesignParams] = field(default=None, compare=False)


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


def design_pulse(params: DesignParams):
    """Integrate the constrained azimuth and reconstruct the drive.

    Returns (Pulse, AngleTrajectory).  The ODE is integrated with an adaptive
    RK45 stepper at the configured tolerances and resampled onto the uniform
    grid through its dense output.  Near the window ends Omega ~ theta_dot is
    exponentially small and beta_ddot ~ 1/Omega is stiff; below OMEGA_FLOOR/T
    the acceleration is held at its last finite value.
    """
    grid = params.grid()
    t = grid.samples()
    floor = OMEGA_FLOOR / params.T
    held = [0.0]

    def rhs(ti, y):
        acc = beta_acceleration(theta_profile(ti, params.T), y[0], y[1],
                                params.c, params.branch_sign, floor)
        if acc is not None:  # else hold it through the dead tails
            held[0] = acc
        return (y[1], held[0])

    y0 = (0.5 * np.pi, initial_beta_rate(params))
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

    beta, beta_dot = sol.sol(t)
    beta = np.array(beta, dtype=float)
    beta[0] = 0.5 * np.pi  # boundary condition, exact by construction
    theta = theta_profile(t, params.T)
    trajectory = AngleTrajectory(grid, theta, beta, np.asarray(beta_dot))

    if np.any(np.abs(np.sin(beta)) < _SIN_BETA_FLOOR):
        raise SingularityError("sin(beta) vanishes; Omega undefined")
    omega, delta, _, _, mu = analytic_diagnostics(
        theta, beta, beta_dot, params.c, params.branch_sign
    )
    interior = np.abs(t) <= 0.95 * params.kappa * params.T
    residual = float(np.max(np.abs(mu[interior] - params.c)))

    pulse = Pulse(
        grid=grid,
        omega=omega,
        delta=delta,
        area=_area(omega, t),
        beta_final=float(-beta[-1]),
        adiabaticity_residual=residual,
        params=params,
    )
    return pulse, trajectory

