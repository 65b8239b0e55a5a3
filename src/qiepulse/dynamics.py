"""Two-level Schrodinger propagation and state diagnostics.

The Hamiltonian (hbar = 1, frequencies in units of 1/T) is

    H(t) = (1/2) [[-Delta(t), Omega(t)], [Omega(t), Delta(t)]]

on the basis |1> = (1, 0), |2> = (0, 1).  Each interval of t is cut into
equal sub-steps, each the exact unitary of the frozen Hamiltonian at the
sub-step's midpoint fields (linear interpolation, then scaled by the
(1 + delta) error factors): an SU(2) matrix [[a, b], [-b*, a*]].  Sub-steps
are multiplied in blocks of _BLOCK.  final_states_over_errors reduces each
block by a pairwise product tree and applies it to the batch of states, one
row per error setting; propagate takes prefix products in each block
(Hillis-Steele) for the state at every sample, _ROWS blocks a pass.  The
last prefix of a power-of-two block is the tree's root, and both multiply
at most _ROWS x _BLOCK arrays (numpy may round larger strided products
differently), so both give the same bits at the same error.  Sub-steps
with midpoint Omega = Delta = 0 are the identity and are dropped, so a
zero-field gap holds the state bit-for-bit.  Exact rotations keep the norm
at machine precision.

States are plain complex ndarrays of length 2.  Under this H the Bloch
azimuth precesses opposite to the designer's integrated beta(t): the nominal
propagated trajectory is (u, -v, w) of the design angles.  Pulse.beta_final
already records the reached azimuth, so fidelity(final, pulse.beta_final)
measures the intended transfer.
"""

from dataclasses import dataclass

import numpy as np

from .designer import Pulse, _value_eq
from .errors import ParameterError

_BLOCK = 64  # sub-steps per block product; a power of two
_ROWS = 128  # error rows, or blocks of propagate, per pass: a bounded working set

__all__ = [
    "TargetState", "StateTrajectory", "ket1", "target_state",
    "propagate", "fidelity", "bloch_from_angles", "bloch_from_state",
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

    __eq__ = _value_eq  # by value, NaN equal to NaN


def ket1() -> np.ndarray:
    """Basis state |1>."""
    return np.array([1.0 + 0.0j, 0.0 + 0.0j])


def target_state(beta_final) -> np.ndarray:
    """Target superposition for a given final azimuth (accepts TargetState)."""
    bf = beta_final.beta_final if isinstance(beta_final, TargetState) else beta_final
    return np.array([np.exp(-0.5j * bf), np.exp(0.5j * bf)]) / np.sqrt(2.0)


def _steps(pulse: Pulse, scale_omega, scale_delta, substeps):
    """Midpoint fields and widths of the sub-steps that are not exactly the
    identity, front-padded with zero-width steps to whole blocks and shaped
    (blocks, _BLOCK), and the count of such steps up to each sample of t."""
    if substeps < 2:
        raise ParameterError(f"substeps must be >= 2, got {substeps}")
    for name, values in (("omega", pulse.omega), ("delta", pulse.delta),
                         ("scale_omega", scale_omega), ("scale_delta", scale_delta)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParameterError(f"{name} is not finite at index {bad[0]}")
    for name, field, scale in (("omega", pulse.omega, scale_omega),
                               ("delta", pulse.delta, scale_delta)):
        if np.abs(field).max() * np.abs(scale).max(initial=0.0) > 1e150:
            raise ParameterError(f"scaled {name} exceeds 1e150 (its square must be finite)")
    w = (np.arange(substeps) + 0.5) / substeps
    om = (pulse.omega[:-1, None] * (1.0 - w) + pulse.omega[1:, None] * w).ravel()
    de = (pulse.delta[:-1, None] * (1.0 - w) + pulse.delta[1:, None] * w).ravel()
    dt = np.repeat(np.diff(pulse.t) / substeps, substeps)
    keep = (om != 0.0) | (de != 0.0)
    done = np.concatenate(([0], np.cumsum(keep)[substeps - 1::substeps]))
    pad = (-done[-1] % _BLOCK, 0)
    om, de, dt = (np.pad(x[keep], pad).reshape(-1, _BLOCK) for x in (om, de, dt))
    return om, de, dt, done


def _factors(om, de, dt):
    """Cayley-Klein parameters of the frozen steps exp(-i H dt) =
    [[a, b], [-b*, a*]]: a = cos(phi) + i f Delta and b = -i f Omega, with
    g = sqrt(Omega^2 + Delta^2), phi = g dt / 2 and f = sin(phi) / g (0 at
    g = 0); cos and sin are taken from u = tan(phi / 2)."""
    g = np.sqrt(om * om + de * de)
    u = np.tan(g * (0.25 * dt))
    uu = u * u
    s = 2.0 / (1.0 + uu)
    f = np.divide(u * s, g, out=np.zeros_like(g), where=g > 0.0)
    ab = np.stack((1.0 - uu * s, f * de, np.zeros_like(f), -f * om), axis=-1).view(complex)
    return ab[..., 0], ab[..., 1]


def _mul(a2, b2, a1, b1):
    """Cayley-Klein parameters of the product U2 @ U1."""
    return a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()


def _apply(a, b, psi):
    """[[a, b], [-b*, a*]] applied to each row of psi (one a, b per row)."""
    p, q = psi[:, 0], psi[:, 1]
    return np.stack((a * p + b * q, a.conj() * q - b.conj() * p), axis=1)


def final_states_over_errors(pulse: Pulse, initial, scale_omega, scale_delta,
                             substeps: int = 2) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    scale_omega/scale_delta are aligned 1-D arrays of (1 + delta) factors.
    Each row is computed exactly as a batch of one would be.
    """
    scale_omega, scale_delta = (np.asarray(x, dtype=float).reshape(-1, 1) for x in
                                np.broadcast_arrays(scale_omega, scale_delta))
    om, de, dt, _ = _steps(pulse, scale_omega, scale_delta, substeps)
    psi = np.tile(np.asarray(initial, dtype=complex), (scale_omega.size, 1))
    for rows in (slice(r, r + _ROWS) for r in range(0, scale_omega.size, _ROWS)):
        for o, d, h in zip(om, de, dt):
            a, b = _factors(scale_omega[rows] * o, scale_delta[rows] * d, h)
            while a.shape[1] > 1:  # pairwise product tree over the block
                a, b = _mul(a[:, 1::2], b[:, 1::2], a[:, ::2], b[:, ::2])
            psi[rows] = _apply(a[:, 0], b[:, 0], psi[rows])
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
    om, de, dt, done = _steps(pulse, scale_omega, scale_delta, substeps)
    # samples past a non-identity step read its prefix; the others hold psi
    rows = np.flatnonzero(done > 0)
    blk, pos = np.divmod(done[rows] + dt.size - done[-1] - 1, _BLOCK)  # sorted
    states, entry = np.tile(psi, (done.size, 1)), psi[None]
    for g in range(0, om.shape[0], _ROWS):
        a, b = _factors(scale_omega * om[g:g + _ROWS], scale_delta * de[g:g + _ROWS],
                        dt[g:g + _ROWS])
        for k in 2 ** np.arange(_BLOCK.bit_length() - 1):  # Hillis-Steele prefixes
            a[:, k:], b[:, k:] = _mul(a[:, k:], b[:, k:], a[:, :-k], b[:, :-k])
        starts = [entry]
        for j in range(a.shape[0]):
            starts.append(_apply(a[j:j + 1, -1], b[j:j + 1, -1], starts[-1]))
        entry = starts.pop()
        at = slice(*np.searchsorted(blk, (g, g + _ROWS)))
        j, p = blk[at] - g, pos[at]
        states[rows[at]] = _apply(a[j, p], b[j, p], np.concatenate(starts)[j])

    pop1, pop2 = np.abs(states.T) ** 2
    u, v, w = bloch_from_state(states)

    # Branch populations of the applied Hamiltonian, with the branch labels
    # carried continuously through the unwrapped mixing angle.
    om, de = scale_omega * pulse.omega, scale_delta * pulse.delta
    gap = np.hypot(om, de)
    x = np.unwrap(np.arctan2(om, de))
    cos_h, sin_h = np.cos(0.5 * x), np.sin(0.5 * x)
    amp_minus = cos_h * states[:, 0] - sin_h * states[:, 1]
    amp_plus = sin_h * states[:, 0] + cos_h * states[:, 1]
    p_minus, p_plus = np.where(gap > 0.0, np.abs([amp_minus, amp_plus]) ** 2, np.nan)

    return StateTrajectory(t=pulse.t, states=states, pop1=pop1, pop2=pop2,
                           bloch_u=u, bloch_v=v, bloch_w=w,
                           adiab_pop_minus=p_minus, adiab_pop_plus=p_plus)


def fidelity(final, target) -> float:
    """Squared overlap |<target|final>|^2, clipped to [0, 1]; target is a
    state vector, a TargetState or a bare beta_final."""
    tgt = target_state(target) if np.ndim(target) == 0 else np.asarray(target, dtype=complex)
    psi = np.asarray(final, dtype=complex)
    val = abs(np.vdot(tgt, psi)) ** 2
    return float(min(max(val, 0.0), 1.0))


def bloch_from_angles(theta, beta):
    """(u, v, w) = (sin theta cos beta, sin theta sin beta, cos theta)."""
    th, b = np.asarray(theta, dtype=float), np.asarray(beta, dtype=float)
    return np.sin(th) * np.cos(b), np.sin(th) * np.sin(b), np.cos(th)


def bloch_from_state(state):
    """Bloch components of state(s): u = 2 Re(a1* a2), v = 2 Im(a1* a2),
    w = |a1|^2 - |a2|^2.  Accepts a single state or an (n, 2) array."""
    psi = np.asarray(state, dtype=complex)
    cross = np.conj(psi[..., 0]) * psi[..., 1]
    w = np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2
    return 2.0 * cross.real, 2.0 * cross.imag, w
