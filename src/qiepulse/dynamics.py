"""Two-level Schrodinger propagation and state diagnostics.

The Hamiltonian (hbar = 1, frequencies in units of 1/T) is

    H(t) = (1/2) [[-Delta(t), Omega(t)], [Omega(t), Delta(t)]]

on the basis |1> = (1, 0), |2> = (0, 1).  Propagation composes exact 2x2
unitaries of the frozen Hamiltonian over sub-steps of each grid interval,
with the fields sampled at sub-step midpoints (linear interpolation between
grid samples).  Exact rotations keep the norm at machine precision, which
several invariants assume.

States are plain complex ndarrays of length 2.  Under this H the Bloch
azimuth precesses opposite to the designer's integrated beta(t): the nominal
propagated trajectory is (u, -v, w) of the design angles.  Pulse.beta_final
already records the reached azimuth, so fidelity(final, target_state(
pulse.beta_final)) measures the intended transfer.
"""

from dataclasses import dataclass

import numpy as np

from .designer import Pulse
from .errors import ParameterError
from .profiles import TimeGrid

__all__ = [
    "TargetState",
    "StateTrajectory",
    "ket1",
    "angle_state",
    "target_state",
    "propagate",
    "fidelity",
    "bloch_from_angles",
    "bloch_from_state",
]


@dataclass(frozen=True)
class TargetState:
    """Equal-weight superposition (e^{-i beta_f/2}, e^{i beta_f/2})/sqrt(2)."""

    beta_final: float


@dataclass
class StateTrajectory:
    """Propagation record on the pulse grid.

    adiab_pop_minus/plus are populations of the instantaneous eigenbranches
    of the applied Hamiltonian; NaN where the Hamiltonian is degenerate.  The
    branch vectors follow the mixing angle x = atan2(Omega, Delta),

        vec_minus = (cos(x/2), -sin(x/2)),  vec_plus = (sin(x/2), cos(x/2)),

    with eigenvalues -+ (1/2) sqrt(Omega^2 + Delta^2); x is unwrapped along
    the grid, so the labels never flip at Delta sign changes.
    """

    grid: TimeGrid
    states: np.ndarray  # (n_samples, 2) complex
    pop1: np.ndarray
    pop2: np.ndarray
    bloch_u: np.ndarray
    bloch_v: np.ndarray
    bloch_w: np.ndarray
    adiab_pop_minus: np.ndarray
    adiab_pop_plus: np.ndarray


def ket1() -> np.ndarray:
    """Basis state |1>."""
    return np.array([1.0 + 0.0j, 0.0 + 0.0j])


def angle_state(theta: float, beta: float) -> np.ndarray:
    """State (cos(theta/2) e^{-i beta/2}, sin(theta/2) e^{i beta/2})."""
    return np.array(
        [
            np.cos(0.5 * theta) * np.exp(-0.5j * beta),
            np.sin(0.5 * theta) * np.exp(0.5j * beta),
        ]
    )


def target_state(beta_final) -> np.ndarray:
    """Target superposition for a given final azimuth (accepts TargetState)."""
    bf = beta_final.beta_final if isinstance(beta_final, TargetState) else beta_final
    return np.array([np.exp(-0.5j * bf), np.exp(0.5j * bf)]) / np.sqrt(2.0)


def _midpoint_fields(omega, delta, substeps):
    """Fields at sub-step midpoints, linearly interpolated per interval.

    Returns arrays of shape (n_intervals, substeps).
    """
    w = (np.arange(substeps) + 0.5) / substeps
    om = omega[:-1, None] * (1.0 - w) + omega[1:, None] * w
    de = delta[:-1, None] * (1.0 - w) + delta[1:, None] * w
    return om, de


def _evolve_batch(psi, om, de, dt):
    """Apply the exact unitary exp(-i H dt) of the frozen Hamiltonian to a
    batch of states, in place.

    With E = (1/2) sqrt(Omega^2 + Delta^2),
    U = cos(E dt) I - i sin(E dt) (Omega sigma_x - Delta sigma_z) / (2 E),
    and U = I when E = 0.  psi: (nb, 2) complex; om, de: scalars or (nb,)
    arrays.
    """
    E = 0.5 * np.hypot(om, de)
    phase = E * dt
    cs = np.cos(phase)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(E > 0.0, np.sin(phase) / np.where(E > 0.0, 2.0 * E, 1.0), 0.0)
    a = psi[:, 0].copy()
    b = psi[:, 1].copy()
    psi[:, 0] = (cs + 1j * f * de) * a - 1j * f * om * b
    psi[:, 1] = -1j * f * om * a + (cs - 1j * f * de) * b
    return psi


def final_states_over_errors(pulse: Pulse, initial, scale_omega, scale_delta,
                             substeps: int = 2) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    scale_omega/scale_delta are aligned 1-D arrays of (1 + delta) factors.
    Grid points of an error scan are independent; evaluating them as one
    batch is arithmetically identical to independent runs and keeps results
    schedule-independent.
    """
    if substeps < 2:
        raise ParameterError(f"substeps must be >= 2, got {substeps}")
    s_om = np.asarray(scale_omega, dtype=float)
    s_de = np.asarray(scale_delta, dtype=float)
    nb = s_om.size
    psi = np.tile(np.asarray(initial, dtype=complex), (nb, 1))
    om_mid, de_mid = _midpoint_fields(pulse.omega, pulse.delta, substeps)
    dt = pulse.grid.step / substeps
    for k in range(om_mid.shape[0]):
        for j in range(substeps):
            _evolve_batch(psi, om_mid[k, j] * s_om, de_mid[k, j] * s_de, dt)
    return psi


def propagate(pulse: Pulse, initial=None, error=(0.0, 0.0),
              substeps: int = 2) -> StateTrajectory:
    """Propagate through the sampled pulse and record diagnostics.

    error = (delta_omega, delta_delta) applies the multiplicative systematic
    errors Omega -> (1+delta_omega) Omega, Delta -> (1+delta_delta) Delta.
    At least 2 sub-steps per grid interval are required.
    """
    if substeps < 2:
        raise ParameterError(f"substeps must be >= 2, got {substeps}")
    psi = ket1() if initial is None else np.array(initial, dtype=complex)
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-6:
        raise ParameterError("initial state must be normalized")

    om = (1.0 + error[0]) * pulse.omega
    de = (1.0 + error[1]) * pulse.delta
    n = om.size
    states = np.empty((n, 2), dtype=complex)
    states[0] = psi
    om_mid, de_mid = _midpoint_fields(om, de, substeps)
    dt = pulse.grid.step / substeps
    cur = psi[None, :].copy()
    for k in range(n - 1):
        for j in range(substeps):
            _evolve_batch(cur, om_mid[k, j], de_mid[k, j], dt)
        states[k + 1] = cur[0]

    pop1 = np.abs(states[:, 0]) ** 2
    pop2 = np.abs(states[:, 1]) ** 2
    u, v, w = bloch_from_state(states)

    # Branch populations of the applied Hamiltonian, with the branch labels
    # carried continuously through the unwrapped mixing angle.
    gap = np.hypot(om, de)
    x = np.unwrap(np.arctan2(om, de))
    cos_h, sin_h = np.cos(0.5 * x), np.sin(0.5 * x)
    amp_minus = cos_h * states[:, 0] - sin_h * states[:, 1]
    amp_plus = sin_h * states[:, 0] + cos_h * states[:, 1]
    p_minus = np.where(gap > 0.0, np.abs(amp_minus) ** 2, np.nan)
    p_plus = np.where(gap > 0.0, np.abs(amp_plus) ** 2, np.nan)

    return StateTrajectory(
        grid=pulse.grid,
        states=states,
        pop1=pop1,
        pop2=pop2,
        bloch_u=u,
        bloch_v=v,
        bloch_w=w,
        adiab_pop_minus=p_minus,
        adiab_pop_plus=p_plus,
    )


def fidelity(final, target) -> float:
    """Squared overlap |<target|final>|^2, clipped to [0, 1]."""
    tgt = target_state(target) if isinstance(target, TargetState) else np.asarray(target, dtype=complex)
    psi = np.asarray(final, dtype=complex)
    val = abs(np.vdot(tgt, psi)) ** 2
    return float(min(max(val, 0.0), 1.0))


def bloch_from_angles(theta, beta):
    """(u, v, w) = (sin theta cos beta, sin theta sin beta, cos theta)."""
    th = np.asarray(theta, dtype=float)
    b = np.asarray(beta, dtype=float)
    return np.sin(th) * np.cos(b), np.sin(th) * np.sin(b), np.cos(th)


def bloch_from_state(state):
    """Bloch components of state(s): u = 2 Re(a1* a2), v = 2 Im(a1* a2),
    w = |a1|^2 - |a2|^2.  Accepts a single state or an (n, 2) array."""
    psi = np.asarray(state, dtype=complex)
    if psi.ndim == 1:
        cross = np.conj(psi[0]) * psi[1]
        return (
            float(2.0 * cross.real),
            float(2.0 * cross.imag),
            float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2),
        )
    cross = np.conj(psi[:, 0]) * psi[:, 1]
    w = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
    return 2.0 * cross.real, 2.0 * cross.imag, w
