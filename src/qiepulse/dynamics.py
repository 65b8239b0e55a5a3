"""Two-level Schrodinger propagation and state diagnostics.

The Hamiltonian (hbar = 1, frequencies in units of 1/T) is

    H(t) = (1/2) [[-Delta(t), Omega(t)], [Omega(t), Delta(t)]]

on the basis |1> = (1, 0), |2> = (0, 1).  One sweep does all propagation: it
applies exact 2x2 unitaries of the frozen Hamiltonian over equal sub-steps of
each interval of the pulse's time axis, np.diff(pulse.t) wide, with the
fields taken at sub-step midpoints (linear interpolation between samples)
and then scaled by the (1 + delta) error factors, to a batch of states with
one row per error setting.  propagate records its single row after every
interval and final_states_over_errors keeps the batch at the end, so both
give the same bits at the same error.
Exact rotations keep the norm at machine precision, which several invariants
assume.

States are plain complex ndarrays of length 2.  Under this H the Bloch
azimuth precesses opposite to the designer's integrated beta(t): the nominal
propagated trajectory is (u, -v, w) of the design angles.  Pulse.beta_final
already records the reached azimuth, so fidelity(final, pulse.beta_final)
measures the intended transfer.
"""

from dataclasses import dataclass

import numpy as np

from .designer import Pulse
from .errors import ParameterError

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
    """Propagation record at the pulse's times t.

    adiab_pop_minus/plus are populations of the instantaneous eigenbranches
    of the applied Hamiltonian; NaN where the Hamiltonian is degenerate.  The
    branch vectors follow the mixing angle x = atan2(Omega, Delta),

        vec_minus = (cos(x/2), -sin(x/2)),  vec_plus = (sin(x/2), cos(x/2)),

    with eigenvalues -+ (1/2) sqrt(Omega^2 + Delta^2); x is unwrapped along
    t, so the labels never flip at Delta sign changes.
    """

    t: np.ndarray
    states: np.ndarray  # (t.size, 2) complex
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


def _sweep(pulse: Pulse, initial, scale_omega, scale_delta, substeps):
    """Yield the batch of states, updated in place, after each interval of t.

    Row i sees scale_omega[i] * Omega and scale_delta[i] * Delta; float
    scales give one row and keep the per-step arithmetic scalar.
    """
    if substeps < 2:
        raise ParameterError(f"substeps must be >= 2, got {substeps}")
    for name, values in (("omega", pulse.omega), ("delta", pulse.delta),
                         ("scale_omega", scale_omega), ("scale_delta", scale_delta)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParameterError(f"{name} is not finite at index {bad[0]}")
    w = (np.arange(substeps) + 0.5) / substeps
    om = pulse.omega[:-1, None] * (1.0 - w) + pulse.omega[1:, None] * w
    de = pulse.delta[:-1, None] * (1.0 - w) + pulse.delta[1:, None] * w
    dts = (np.diff(pulse.t) / substeps).tolist()
    nb = np.broadcast(scale_omega, scale_delta).size
    psi = np.tile(np.asarray(initial, dtype=complex), (nb, 1))
    for k, dt in enumerate(dts):
        for j in range(substeps):
            _evolve_batch(psi, om[k, j] * scale_omega, de[k, j] * scale_delta, dt)
        yield psi


def final_states_over_errors(pulse: Pulse, initial, scale_omega, scale_delta,
                             substeps: int = 2) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    scale_omega/scale_delta are aligned 1-D arrays of (1 + delta) factors.
    Grid points of an error scan are independent; evaluating them as one
    batch is arithmetically identical to independent runs and keeps results
    schedule-independent.
    """
    for psi in _sweep(pulse, initial, np.asarray(scale_omega, dtype=float),
                      np.asarray(scale_delta, dtype=float), substeps):
        pass
    return psi


def propagate(pulse: Pulse, initial=None, error=(0.0, 0.0),
              substeps: int = 2) -> StateTrajectory:
    """Propagate through the sampled pulse and record diagnostics.

    error = (delta_omega, delta_delta) applies the multiplicative systematic
    errors Omega -> (1+delta_omega) Omega, Delta -> (1+delta_delta) Delta.
    At least 2 sub-steps per interval of t are required.
    """
    if not np.all(np.isfinite(error)):
        raise ParameterError(f"error must be finite, got {tuple(error)}")
    psi = ket1() if initial is None else np.array(initial, dtype=complex)
    if not abs(np.vdot(psi, psi).real - 1.0) <= 1e-6:
        raise ParameterError("initial state must be finite and normalized")

    scale_omega, scale_delta = 1.0 + float(error[0]), 1.0 + float(error[1])
    states = np.empty((pulse.omega.size, 2), dtype=complex)
    states[0] = psi
    sweep = _sweep(pulse, psi, scale_omega, scale_delta, substeps)
    for k, batch in enumerate(sweep, start=1):
        states[k] = batch[0]

    pop1 = np.abs(states[:, 0]) ** 2
    pop2 = np.abs(states[:, 1]) ** 2
    u, v, w = bloch_from_state(states)

    # Branch populations of the applied Hamiltonian, with the branch labels
    # carried continuously through the unwrapped mixing angle.
    om, de = scale_omega * pulse.omega, scale_delta * pulse.delta
    gap = np.hypot(om, de)
    x = np.unwrap(np.arctan2(om, de))
    cos_h, sin_h = np.cos(0.5 * x), np.sin(0.5 * x)
    amp_minus = cos_h * states[:, 0] - sin_h * states[:, 1]
    amp_plus = sin_h * states[:, 0] + cos_h * states[:, 1]
    p_minus = np.where(gap > 0.0, np.abs(amp_minus) ** 2, np.nan)
    p_plus = np.where(gap > 0.0, np.abs(amp_plus) ** 2, np.nan)

    return StateTrajectory(
        t=pulse.t,
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
    """Squared overlap |<target|final>|^2, clipped to [0, 1]; target is a
    state vector, a TargetState or a bare beta_final."""
    tgt = target_state(target) if np.ndim(target) == 0 else np.asarray(target, dtype=complex)
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
    cross = np.conj(psi[..., 0]) * psi[..., 1]
    w = np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2
    return 2.0 * cross.real, 2.0 * cross.imag, w
