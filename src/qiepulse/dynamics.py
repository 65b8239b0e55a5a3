"""Two-level Schrodinger propagation and state diagnostics.

The Hamiltonian (hbar = 1, frequencies in units of 1/T) is

    H(t) = (1/2) [[-Delta(t), Omega(t)], [Omega(t), Delta(t)]]

on the basis |1> = (1, 0), |2> = (0, 1).  Each interval of t is cut into
equal sub-steps, each the exact unitary [[a, b], [-b*, a*]] of the frozen
Hamiltonian at the sub-step's midpoint fields (linear interpolation, scaled
by the (1 + delta) error factors).  Sub-steps with Omega = Delta = 0 there are
the identity and are dropped, so a zero-field gap holds the state bit for bit;
the rest are multiplied in blocks of _BLOCK by pairwise trees (_trees), and
the scan batch and propagate both take their block products from them.

States are plain complex ndarrays of length 2.  Under this H the Bloch
azimuth precesses opposite to the designer's integrated beta(t): the nominal
propagated trajectory is (u, -v, w) of the design angles.  Pulse.beta_final
already records the reached azimuth, so fidelity(final, pulse.beta_final)
measures the intended transfer.
"""

from dataclasses import dataclass

import numpy as np

from .designer import MAX_SAMPLES, Pulse, _is_count, _value_eq
from .errors import ParameterError

_BLOCK = 64  # sub-steps per block product; a power of two
_WIDTH = 256  # columns per pass: error rows of the scan, blocks of propagate
_REV = np.arange(_BLOCK).reshape((2,) * (_BLOCK.bit_length() - 1)).T.ravel()

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
    """Target superposition for a given final azimuth, one real number
    (accepts TargetState)."""
    bf = beta_final.beta_final if isinstance(beta_final, TargetState) else beta_final
    if _numbers(bf, float)[1] != ():
        raise ParameterError(f"beta_final must be one real number, got {bf!r}")
    return np.array([np.exp(-0.5j * bf), np.exp(0.5j * bf)]) / np.sqrt(2.0)


def _numbers(value, dtype):
    """value as an array of dtype and its shape, or None and, for an error
    message, what it is when numpy makes no such array of it (of bools
    neither: they are no numbers here)."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        return None, "ragged"
    if array.dtype == bool or not np.can_cast(array.dtype, dtype, "same_kind"):
        return None, f"{array.shape} of {array.dtype.type.__name__.rstrip('_')}"
    return array.astype(dtype, copy=False), array.shape


def _steps(pulse: Pulse, scale_omega, scale_delta, substeps):
    """-Omega dt/4 and Delta dt/4 at the midpoints of the sub-steps that are
    not exactly the identity (dt their width), as _factors takes them,
    front-padded with zero fields to whole blocks and shaped (blocks,
    _BLOCK), and the count of such steps up to each sample of t."""
    if not _is_count(substeps, 2, MAX_SAMPLES // (pulse.t.size - 1)):
        raise ParameterError(f"substeps must be >= 2 and (samples - 1) x "
                             f"substeps <= {MAX_SAMPLES}, got {substeps!r}")
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
    om = pulse.omega[:-1, None] * (1.0 - w) + pulse.omega[1:, None] * w
    de = pulse.delta[:-1, None] * (1.0 - w) + pulse.delta[1:, None] * w
    keep = ((om != 0.0) | (de != 0.0)).ravel()
    h = np.diff(pulse.t)[:, None] / (4 * substeps)  # a quarter of each width
    np.multiply(de, h, out=de)
    np.multiply(om, np.negative(h, out=h), out=om)
    done = np.concatenate(([0], np.cumsum(keep)[substeps - 1::substeps]))
    pad = (-done[-1] % _BLOCK, 0)
    om, de = (np.pad(x.ravel()[keep], pad).reshape(-1, _BLOCK) for x in (om, de))
    return om, de, done


def _factors(o, so, d, sd, a, b, x):
    """Cayley-Klein (a, b) of the frozen steps exp(-i H dt) = [[a, b], [-b*, a*]]
    into a and b (b.real must be 0): a = cos(phi) + i f Delta dt/4,
    b = -i f Omega dt/4, phi / 2 = sqrt(Omega^2 + Delta^2) dt/4 floored at
    1e-300, cos and sin from u = tan(phi / 2), f = sin(phi) / (phi / 2):
    sin(phi) is 0 where the fields are, and where (field dt/4)^2 underflows
    the step is its first-order rotation (f = 2).  -Omega dt/4 = o so and
    Delta dt/4 = d sd (as _steps gives them); x is six contiguous real arrays
    of a's shape, the scratch that every pass but the last three, which write
    a.real, a.imag and b.imag, works in."""
    w, e, p, s, u, c = x  # -Omega dt/4, Delta dt/4, phi/2, scratch, u, u^2
    np.multiply(o, so, out=w)
    np.multiply(d, sd, out=e)
    np.sqrt(np.add(np.multiply(w, w, out=p), np.multiply(e, e, out=s), out=p), out=p)
    np.tan(np.maximum(p, 1e-300, out=p), out=u)
    np.divide(2.0, np.add(np.multiply(u, u, out=c), 1.0, out=s), out=s)
    np.subtract(1.0, np.multiply(c, s, out=c), out=a.real)
    np.divide(np.multiply(u, s, out=u), p, out=u)
    np.multiply(u, e, out=a.imag)
    np.multiply(u, w, out=b.imag)


def _reals(z):
    """The memory of each contiguous complex array in z as two real arrays of
    its shape: scratch for _factors."""
    return [r for y in z for r in y.view(float).reshape((2,) + y.shape)]


def _mul(a2, b2, a1, b1, a, b, t0, t1):
    """(a, b) of U2 @ U1 into a and b; t0 and t1 are complex scratch of a's
    shape."""
    np.subtract(np.multiply(a2, a1, out=a),
                np.multiply(b2, np.conjugate(b1, out=t0), out=t1), out=a)
    np.add(np.multiply(a2, b1, out=b),
           np.multiply(b2, np.conjugate(a1, out=t0), out=t1), out=b)


def _apply(a, b, psi):
    """[[a, b], [-b*, a*]] applied to each row of psi (one a, b per row)."""
    p, q = psi[:, 0], psi[:, 1]
    return np.stack((a * p + b * q, a.conj() * q - b.conj() * p), axis=1)


def _zeros(shape, dtype=float):
    """np.zeros(shape, dtype) whose data starts on a 64-byte cache line, so a
    pass's speed does not follow where the heap happened to place it."""
    size = np.dtype(dtype).itemsize * int(np.prod(shape))
    raw = np.zeros(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


def _trees(om, de, so, sd):
    """Yield each block's pairwise tree, a heap on axis 1 of one buffer:
    step k's factor at _BLOCK + _REV[k], level m at [m, 2m) (two contiguous
    halves of the level below) and the block's product at 1.  om and de
    hold the blocks on axis 0, their steps in _REV order on axis 1 and the
    columns on axis 2, broadcast with so and sd; each level's _mul operands
    are views made once, not sliced anew for every block.  The heap and the
    scratch start on cache lines (_zeros), and so do the leaves, each half
    of the heap and each scratch array, all whole multiples of 64 bytes
    from the start."""
    cols = np.broadcast_shapes(om.shape[2:], np.shape(so))
    ab = _zeros((2, 2 * _BLOCK) + cols, dtype=complex)
    x = _zeros((2, _BLOCK) + cols)
    t = x.reshape(2, _BLOCK // 2, -1).view(complex)
    x = [*x, *_reals(ab[:, :_BLOCK])]  # inner nodes: free until the tree
    levels = [(*ab[:, 3 * m:4 * m], *ab[:, 2 * m:3 * m], *ab[:, m:2 * m], *t[:, :m])
              for m in 2 ** np.arange(_BLOCK.bit_length() - 2, -1, -1)]
    for o, d in zip(om, de):
        _factors(o, so, d, sd, *ab[:, _BLOCK:], x)
        for level in levels:
            _mul(*level)
        yield ab


def final_states_over_errors(pulse: Pulse, initial, scale_omega, scale_delta,
                             substeps: int = 2) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    scale_omega/scale_delta are aligned 1-D arrays of (1 + delta) factors.
    Each row is computed exactly as a batch of one would be: a column of
    the trees per row, _WIDTH rows a pass.
    """
    scale_omega, scale_delta = (np.asarray(x, dtype=float).ravel() for x in
                                np.broadcast_arrays(scale_omega, scale_delta))
    psi = np.tile(np.asarray(initial, dtype=complex), (scale_omega.size, 1))
    om, de = (x[:, _REV, None] for x in
              _steps(pulse, scale_omega, scale_delta, substeps)[:2])
    for r in range(0, scale_omega.size, _WIDTH):
        rows, so, sd = (y[r:r + _WIDTH] for y in (psi, scale_omega, scale_delta))
        for ab in _trees(om, de, so, sd):
            rows[:] = _apply(*ab[:, 1], rows)
        ab = None  # free this pass's heap before the next builds its own
    return psi


def propagate(pulse: Pulse, initial=None, error=(0.0, 0.0),
              substeps: int = 2) -> StateTrajectory:
    """Propagate through the sampled pulse and record diagnostics.

    initial is a normalized 2-vector (|1> by default).  error =
    (delta_omega, delta_delta) applies the multiplicative systematic errors
    Omega -> (1+delta_omega) Omega, Delta -> (1+delta_delta) Delta.  At least
    2 sub-steps per interval of t are required.  Other shapes and values
    raise ParameterError.
    """
    err, es = _numbers(error, float)
    psi, ps = _numbers(ket1() if initial is None else initial, complex)
    if es != (2,):
        raise ParameterError(f"error must be a pair (delta_omega, delta_delta), "
                             f"got shape {es}")
    if not np.all(np.isfinite(err)):
        raise ParameterError(f"error must be finite, got {tuple(error)}")
    if ps != (2,):
        raise ParameterError(f"initial state must be a 2-vector, got shape {ps}")
    if not abs(np.vdot(psi, psi).real - 1.0) <= 1e-6:
        raise ParameterError("initial state must be finite and normalized")

    scale_omega, scale_delta = 1.0 + err
    om, de, done = _steps(pulse, scale_omega, scale_delta, substeps)
    om, de = (x.T[None, _REV] for x in (om, de))  # a column per block
    # states[1 + j, k] is the state after step k of block j, states[0, -1] psi
    states = np.empty((om.shape[2] + 1, _BLOCK, 2), dtype=complex)
    states[0, -1] = psi
    for g in range(0, om.shape[2], _WIDTH):
        ab = next(_trees(*(x[..., g:g + _WIDTH] for x in (om, de)),
                         scale_omega, scale_delta))
        ends = [states[g, -1:]]  # the block products chained as the batch's
        for j in range(ab.shape[2]):
            ends.append(_apply(ab[0, 1, j:j + 1], ab[1, 1, j:j + 1], ends[-1]))
        ends, blocks = np.concatenate(ends), slice(g + 1, g + 1 + _WIDTH)
        states[blocks, -1], s = ends[1:], ends[:-1]
        for k in range(_BLOCK - 1):  # the steps inside all blocks at once
            s = states[blocks, k] = _apply(*ab[:, _BLOCK + _REV[k]], s)
        ab = None  # free this pass's heap before the next builds its own
    at = np.where(done > 0, done + om.size - done[-1], 0)  # padding included
    states = states.reshape(-1, 2)[at + _BLOCK - 1]

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


def fidelity(final, target):
    """Squared overlap |<target|final>|^2, clipped to [0, 1]: a float for one
    state, an array for an (n, 2) array of states, one per row.  target is a
    state vector, a TargetState or a bare beta_final.  <target|final> is
    summed in real arithmetic, one elementwise operation at a time, so a
    state has the same fidelity alone as in a batch."""
    bare = target.beta_final if isinstance(target, TargetState) else target
    (tgt, ts), (psi, ps) = _numbers(bare, complex), _numbers(final, complex)
    if ts not in ((), (2,)) or psi is None or psi.ndim > 2 or ps[-1:] != (2,):
        raise ParameterError(f"need a 2-component target and one state or rows "
                             f"of states, got shapes {ts} and {ps}")
    tgt = target_state(bare) if ts == () else tgt
    (ar, ai), (br, bi) = ((z.real, z.imag) for z in tgt)
    p, q = psi[..., 0], psi[..., 1]
    re = ar * p.real + ai * p.imag + br * q.real + bi * q.imag
    im = ar * p.imag - ai * p.real + br * q.imag - bi * q.real
    val = np.clip(re * re + im * im, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


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
