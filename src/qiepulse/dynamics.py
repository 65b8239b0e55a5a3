"""Two-level Schrodinger propagation and state diagnostics.

The Hamiltonian (hbar = 1, frequencies in units of 1/T) is

    H(t) = (1/2) [[-Delta(t), Omega(t)], [Omega(t), Delta(t)]]

on the basis |1> = (1, 0), |2> = (0, 1).  Each interval of t is cut into
equal steps, each the exponential of the fourth-order Magnus expansion of
the linearly interpolated fields over it (M4; Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009); Iserles & Norsett, Phil. Trans. R. Soc. A 357,
983 (1999)).  For a 2x2 Hamiltonian the expansion's commutator is a single
sigma_y term, so a step is one exact SU(2) matrix [[a, b], [-b*, a*]]: the
midpoint fields, each linear in its (1 + delta) error factor, plus a sigma_y
field, linear in their product.  Steps whose three fields are 0 are the
identity and are dropped, so a zero-field gap holds the state bit for bit;
the rest are multiplied in blocks of _BLOCK by pairwise trees (_trees), and
the scan batch and propagate both take their block products from them.
Every drive reaches the kernel as _Steps: a step's sigma_x, sigma_z and
sigma_y fields are coefficients times monomials of the two error factors
(_monomials), one each for a pulse's M4 steps (_fields) and three each for
the sixth-order Magnus steps (M6, _magnus6) of fields given at three Gauss
nodes, which the batch takes in place of a pulse.

States are plain complex ndarrays of length 2.  Under this H the Bloch
azimuth precesses opposite to the designer's integrated beta(t): the nominal
propagated trajectory is (u, -v, w) of the design angles.  Pulse.beta_final
already records the reached azimuth, so fidelity(final, pulse.beta_final)
measures the intended transfer.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designer import MAX_SAMPLES, Pulse, _is_count, _value_eq
from .errors import ParameterError

_BLOCK = 64  # steps per block product; a power of two
_WIDTH = 256  # columns per pass: error rows of the scan, blocks of propagate
_REV = np.arange(_BLOCK).reshape((2,) * (_BLOCK.bit_length() - 1)).T.ravel()

__all__ = [
    "TargetState", "StateTrajectory", "ket1", "target_state",
    "propagate", "fidelity", "bloch_from_state",
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
    if not np.isfinite(bf):
        raise ParameterError(f"beta_final must be finite, got {bf!r}")
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


def _fields(pulse: Pulse, substeps):
    """A pulse's M4 steps at substeps equal steps per interval of t, as
    _Steps of one monomial per field: o = -Omega dt/4 on so and d = Delta
    dt/4 on sd at each step's midpoint (linear interpolation, dt its width)
    and y = (dt^2/48) (Omega_a Delta_b - Omega_b Delta_a) on so sd of the
    fields at its ends a and b, which for a linear interpolant is the
    interval's (Omega_i Delta_i+1 - Omega_i+1 Delta_i) over substeps.  A
    step is kept where a midpoint field or that interval's Omega_i Delta_i+1
    - Omega_i+1 Delta_i is not 0 (the others are exactly the identity), even
    where its folded fields underflow to 0."""
    if not _is_count(substeps, 1, MAX_SAMPLES // (pulse.t.size - 1)):
        raise ParameterError(f"substeps must be >= 1 and (samples - 1) x "
                             f"substeps <= {MAX_SAMPLES}, got {substeps!r}")
    _finite(("omega", pulse.omega), ("delta", pulse.delta))
    om0, om1 = pulse.omega[:-1, None], pulse.omega[1:, None]
    de0, de1 = pulse.delta[:-1, None], pulse.delta[1:, None]
    # what overflows here is inf or nan, which _bounded rejects
    with np.errstate(over="ignore", invalid="ignore"):
        w = (np.arange(substeps) + 0.5) / substeps
        om = om0 * (1.0 - w) + om1 * w
        de = de0 * (1.0 - w) + de1 * w
        h = np.diff(pulse.t)[:, None] / (4 * substeps)  # a quarter of each width
        y = (h * om0 * (h * de1) - h * om1 * (h * de0)) / (3 * substeps)
        keep = ((om != 0.0) | (de != 0.0) | (om0 * de1 != om1 * de0)).ravel()
        np.multiply(de, h, out=de)
        np.multiply(om, np.negative(h, out=h), out=om)
    return _Steps(np.stack(np.broadcast_arrays(om, de, y)).reshape(3, 1, -1), keep)


def _finite(*named):
    """Raise ParameterError at the first (name, values) pair that is not
    finite everywhere."""
    for name, values in named:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParameterError(f"{name} is not finite at index {bad[0]}")


def _bounded(steps, mono):
    """The kept steps of steps (_Steps), front-padded with zero coefficients
    to whole blocks, (blocks, 3, _BLOCK, K) with each block's steps in _REV
    order, K the monomials per field.  Each term's coefficients times the
    largest |monomial| of its own in mono, (3, K, columns), must be at most
    1e150 (nan is not): then each of the at most three terms of a field of
    _su2 is, so phi/2 is at most 5.2e150, its tan is finite, and so is
    every state."""
    coef, keep = steps
    kept = np.count_nonzero(keep)
    size = kept - kept % -_BLOCK
    padded = np.zeros(coef.shape[:2] + (size,))
    padded[..., size - kept:] = coef[..., keep]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.abs(padded).max(axis=2, initial=0.0)
                 * np.abs(mono).max(axis=2, initial=0.0))
    over = ~(bound <= 1e150)
    if over.any():
        raise ParameterError(f"scaled {_TERMS[:, :over.shape[1]][over][0]} "
                             f"exceeds 1e150 per step: its step field is squared")
    blocks = padded.reshape(coef.shape[:2] + (-1, _BLOCK)).transpose(2, 0, 3, 1)
    return np.ascontiguousarray(blocks[:, :, _REV])


def _su2(w, e, v, a, b, p, s, u, c):
    """Cayley-Klein (a, b) of the steps exp(2i (w sigma_x + v sigma_y + e
    sigma_z)) = [[a, b], [-b*, a*]] into a and b: phi / 2 = sqrt(w^2 + e^2 +
    v^2) floored at 1e-300, a = cos(phi) + i f e and b = f v + i f w, cos and
    sin from u = tan(phi / 2), f = sin(phi) / (phi / 2): sin(phi) is 0 where
    the fields are, and where their squares underflow the step is its
    first-order rotation (f = 2).  p, s, u and c are real scratch of a's
    shape."""
    np.add(np.multiply(w, w, out=p), np.multiply(e, e, out=s), out=p)
    np.sqrt(np.add(p, np.multiply(v, v, out=c), out=p), out=p)
    np.tan(np.maximum(p, 1e-300, out=p), out=u)
    np.divide(2.0, np.add(np.multiply(u, u, out=c), 1.0, out=s), out=s)
    np.multiply(c, s, out=c)
    np.divide(np.multiply(u, s, out=u), p, out=u)
    np.multiply(u, w, out=b.imag)
    np.multiply(u, v, out=b.real)
    np.subtract(1.0, c, out=a.real)
    np.multiply(u, e, out=a.imag)


def _reals(z):
    """The memory of each contiguous complex array in z as two real arrays of
    its shape: scratch for _su2."""
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


def _trees(blocks, cols, mono):
    """Yield each block's pairwise tree, a heap on axis 1 of one buffer:
    step k's factor at _BLOCK + _REV[k], level m at [m, 2m) (two contiguous
    halves of the level below) and the block's product at 1, its columns of
    shape cols.  Each of blocks is (3, _BLOCK, K) coefficients (_bounded);
    its fields w, e and v at the monomials mono (_fields_at) are formed in
    a buffer of their own and _su2 writes their factors into the leaves.
    Each level's _mul operands are views made once, not sliced anew for
    every block.  The heap and that buffer start on cache lines (_zeros),
    and so do the leaves, each half of the heap and each scratch array, all
    whole multiples of 64 bytes from the start."""
    ab = _zeros((2, 2 * _BLOCK) + cols, dtype=complex)
    wev = _zeros((3, _BLOCK) + cols)
    t = wev[:2].reshape(2, _BLOCK // 2, -1).view(complex)  # free until the tree
    x = _reals(ab[:, :_BLOCK])  # inner nodes: free until the tree
    levels = [(*ab[:, 3 * m:4 * m], *ab[:, 2 * m:3 * m], *ab[:, m:2 * m], *t[:, :m])
              for m in 2 ** np.arange(_BLOCK.bit_length() - 2, -1, -1)]
    for coef in blocks:
        _su2(*_fields_at(coef, mono, wev), *ab[:, _BLOCK:], *x)
        for level in levels:
            _mul(*level)
        yield ab


def _fields_at(coef, mono, out):
    """The fields w, e and v of a block's coefficients coef, (3, _BLOCK, K)
    or, for propagate, (3, _BLOCK, columns) at K = 1, at the monomials mono,
    (3, K, columns), into out: one product each at K = 1, a batched matmul
    of three-term sums at K = 3 (a matmul at K = 1 is slower, and may turn
    a -0.0 product into +0.0)."""
    return (np.multiply if mono.shape[1] == 1 else np.matmul)(coef, mono, out=out)


# The monomials of the error factors, as _monomials stacks them, that a
# step's w, e and v are linear in, named as _bounded names them; a pulse's
# M4 steps take the first of each row
_TERMS = np.array((("omega", "omega x delta^2", "omega^3 x delta^2"),
                   ("delta", "omega^2 x delta", "omega^2 x delta^3"),
                   ("omega x delta", "omega x delta^3", "omega^3 x delta")))


def _monomials(so, sd):
    """(3, 3) + so's shape: for each row's scales so and sd, the monomials
    that the fields w, e and v of a step (_Steps) are linear in, as _TERMS
    names them; what overflows is inf, which _bounded rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        osd = so * sd
        return np.stack(((so, osd * sd, osd * osd * so),
                         (sd, osd * so, osd * osd * sd),
                         (osd, osd * sd * sd, osd * so * so)))


# The Gauss nodes 1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10 of an
# interval, as fractions of it, at which _magnus6 takes the fields
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15) / 10)


class _Steps(NamedTuple):
    """Steps as the kernel takes them: coef[r, k, j] is the coefficient of
    monomial k of row r (_monomials) in step j's field w (r = 0), e (r = 1)
    or v (r = 2) as _su2 takes them, in the order they are applied; K = 1
    monomial per field for a pulse's M4 steps (_fields), K = 3 for M6
    steps (_magnus6).  keep is the steps that are applied.  omega is each
    step's coefficient of so in w, the first-order -Omega h/4; M6 steps
    lead with one whose coefficients are all 0 (the identity, not kept),
    so that, as for a pulse's samples at one step per interval, omega.size
    - 1 is the count of exponentials."""

    coef: np.ndarray  # (3, K, steps)
    keep: np.ndarray  # (steps,) bool

    @property
    def omega(self):
        return self.coef[0, 0]


def _magnus6(h, omega, delta):
    """The _Steps of the sixth-order Magnus step (M6; Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009), Omega^[6]) over intervals of
    widths h, with omega and delta, (3, h.size), the fields at each
    interval's Gauss nodes (_GAUSS).
    With A_i = -(i/2) (so Omega_i sigma_x - sd Delta_i sigma_z) there,

        alpha1 = h A_2,  alpha2 = (sqrt(15) h / 3) (A_3 - A_1),
        alpha3 = (10 h / 3) (A_3 - 2 A_2 + A_1),
        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60,
        Omega6 = alpha1 + alpha3 / 12
                 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,

    and the step is exp(Omega6).  In su(2) -i p.sigma and -i q.sigma have
    the commutator -i 2 (p x q).sigma, and the alphas lie in the sigma_x,
    sigma_z plane, linear in so and in sd, so Omega6 = 2i (w sigma_x + v
    sigma_y + e sigma_z) is one exponential whose w, e and v are each
    linear in three monomials of so and sd (_monomials): the coefficients
    are computed once for every error row."""
    a = np.stack((omega, -delta)) * (h / 2)  # h A_i's sigma_x, sigma_z parts
    a1, a2, a3 = (a[:, 1], (math.sqrt(15) / 3) * (a[:, 2] - a[:, 0]),
                  (10 / 3) * (a[:, 2] - 2 * a[:, 1] + a[:, 0]))
    c1 = 2 * (a1[1] * a2[0] - a1[0] * a2[1])  # C1: c1 so sd on sigma_y
    # C2: q[1] so sd^2 on sigma_x, qy so sd on sigma_y, -q[0] so^2 sd on sigma_z
    q = a1 * (c1 / 30)
    qy = (a1[0] * a3[1] - a1[1] * a3[0]) / 15
    p = -20 * a1 - a3  # -20 alpha1 - alpha3 + C1 without C1
    coef = np.zeros((3, 3, h.size + 1))
    coef[..., 1:] = (  # of Omega6's sigma_x, sigma_z and sigma_y parts
        (a1[0] + a3[0] / 12, (c1 * a2[1] - p[1] * qy) / 120, -c1 * q[0] / 120),
        (a1[1] + a3[1] / 12, (p[0] * qy - c1 * a2[0]) / 120, -c1 * q[1] / 120),
        ((p[1] * a2[0] - p[0] * a2[1]) / 120, p[1] * q[1] / 120,
         p[0] * q[0] / 120))
    coef *= -0.5  # w, e and v of exp(2i (w sigma_x + v sigma_y + e sigma_z))
    return _Steps(coef, coef.any(axis=(0, 1)))


def final_states_over_errors(pulse, initial, scale_omega, scale_delta,
                             substeps: int = 1) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    pulse is a Pulse, propagated at substeps M4 steps per interval, or
    _Steps (_magnus6), at substeps = 1.  scale_omega/scale_delta are
    aligned 1-D arrays of (1 + delta) factors.  A row is a column of the
    trees, _WIDTH rows a pass.  A pulse's row is computed exactly as a batch
    of one would be; M6 steps' fields come from a matmul per block, whose
    BLAS kernel may follow the pass's width, so a batch of one row agrees
    with the wider batches' row to the rounding of those three-term sums.
    """
    scale_omega, scale_delta = (np.asarray(x, dtype=float).ravel() for x in
                                np.broadcast_arrays(scale_omega, scale_delta))
    psi = np.tile(np.asarray(initial, dtype=complex), (scale_omega.size, 1))
    if not isinstance(pulse, _Steps):
        pulse = _fields(pulse, substeps)
    elif not _is_count(substeps, 1, 1):
        raise ParameterError(f"_Steps take substeps = 1, got {substeps!r}")
    _finite(("scale_omega", scale_omega), ("scale_delta", scale_delta))
    mono = _monomials(scale_omega, scale_delta)[:, :pulse.coef.shape[1]]
    blocks = _bounded(pulse, mono)
    pulse = None  # a pulse's flat steps are not held through the passes
    for r in range(0, scale_omega.size, _WIDTH):
        rows = psi[r:r + _WIDTH]
        for ab in _trees(blocks, rows.shape[:1],
                         np.ascontiguousarray(mono[..., r:r + _WIDTH])):
            rows[:] = _apply(*ab[:, 1], rows)
        ab = None  # free this pass's heap before the next builds its own
    return psi


def propagate(pulse: Pulse, initial=None, error=(0.0, 0.0),
              substeps: int = 1) -> StateTrajectory:
    """Propagate through the sampled pulse and record diagnostics.

    initial is a normalized 2-vector (|1> by default).  error =
    (delta_omega, delta_delta) applies the multiplicative systematic errors
    Omega -> (1+delta_omega) Omega, Delta -> (1+delta_delta) Delta.  Each
    interval of t is taken in substeps M4 steps (at least 1).  Other shapes
    and values raise ParameterError.
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
    steps = _fields(pulse, substeps)
    done = np.concatenate(([0], np.cumsum(steps.keep)[substeps - 1::substeps]))
    mono = _monomials(scale_omega, scale_delta)[:, :1, None]
    fields = _bounded(steps, mono)[..., 0].transpose(1, 2, 0)  # a column per block
    steps, n_blocks = None, fields.shape[2]
    # states[1 + j, k] is the state after step k of block j, states[0, -1] psi
    states = np.empty((n_blocks + 1, _BLOCK, 2), dtype=complex)
    states[0, -1] = psi
    for g in range(0, n_blocks, _WIDTH):
        block = fields[..., g:g + _WIDTH]
        ab = next(_trees([block], block.shape[2:], mono))
        ends = [states[g, -1:]]  # the block products chained as the batch's
        for j in range(ab.shape[2]):
            ends.append(_apply(ab[0, 1, j:j + 1], ab[1, 1, j:j + 1], ends[-1]))
        ends, blocks = np.concatenate(ends), slice(g + 1, g + 1 + _WIDTH)
        states[blocks, -1], s = ends[1:], ends[:-1]
        for k in range(_BLOCK - 1):  # the steps inside all blocks at once
            s = states[blocks, k] = _apply(*ab[:, _BLOCK + _REV[k]], s)
        ab = None  # free this pass's heap before the next builds its own
    fields = None  # and the step fields before the diagnostics' O(n) arrays
    at = np.where(done > 0, done + n_blocks * _BLOCK - done[-1], 0)  # padding included
    states = states.reshape(-1, 2)[at + _BLOCK - 1]

    pop1, pop2 = np.abs(states.T) ** 2
    u, v, w = bloch_from_state(states)

    # Branch populations of the applied Hamiltonian, with the branch labels
    # carried continuously through the unwrapped mixing angle.  At a sample
    # where a scaled field overflows, both fields are taken 2^k times smaller
    # (k just large enough): the same angle, and the others keep their bits.
    with np.errstate(over="ignore"):
        om, de = scale_omega * pulse.omega, scale_delta * pulse.delta
    gap = (om != 0.0) | (de != 0.0)
    big = np.flatnonzero(np.isinf(om) | np.isinf(de))
    if big.size:
        pairs = ((pulse.omega, scale_omega), (pulse.delta, scale_delta))
        # |f s| < 2^(e_f + e_s) for frexp's exponents e
        k = np.maximum(*(np.frexp(f[big])[1] + np.frexp(s)[1]
                         for f, s in pairs)) - 1023
        om[big], de[big] = (np.ldexp(f[big], -k) * s for f, s in pairs)
    x = np.unwrap(np.arctan2(om, de))
    cos_h, sin_h = np.cos(0.5 * x), np.sin(0.5 * x)
    amp_minus = cos_h * states[:, 0] - sin_h * states[:, 1]
    amp_plus = sin_h * states[:, 0] + cos_h * states[:, 1]
    p_minus, p_plus = np.where(gap, np.abs([amp_minus, amp_plus]) ** 2, np.nan)

    return StateTrajectory(t=pulse.t, states=states, pop1=pop1, pop2=pop2,
                           bloch_u=u, bloch_v=v, bloch_w=w,
                           adiab_pop_minus=p_minus, adiab_pop_plus=p_plus)


def fidelity(final, target):
    """Squared overlap |<target|final>|^2, clipped to [0, 1]: a float for one
    state, an array for an (n, 2) array of states, one per row.  target is a
    finite state vector, a TargetState or a bare beta_final.  <target|final> is
    summed in real arithmetic, one elementwise operation at a time, so a
    state has the same fidelity alone as in a batch."""
    bare = target.beta_final if isinstance(target, TargetState) else target
    (tgt, ts), (psi, ps) = _numbers(bare, complex), _numbers(final, complex)
    if ts not in ((), (2,)) or psi is None or psi.ndim > 2 or ps[-1:] != (2,):
        raise ParameterError(f"need a 2-component target and one state or rows "
                             f"of states, got shapes {ts} and {ps}")
    tgt = target_state(bare) if ts == () else tgt
    if not np.all(np.isfinite(tgt)):
        raise ParameterError(f"target state must be finite, got {tgt}")
    (ar, ai), (br, bi) = ((z.real, z.imag) for z in tgt)
    p, q = psi[..., 0], psi[..., 1]
    re = ar * p.real + ai * p.imag + br * q.real + bi * q.imag
    im = ar * p.imag - ai * p.real + br * q.imag - bi * q.real
    val = np.clip(re * re + im * im, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def bloch_from_state(state):
    """Bloch components of state(s): u = 2 Re(a1* a2), v = 2 Im(a1* a2),
    w = |a1|^2 - |a2|^2.  Accepts a single state or an (n, 2) array."""
    psi = np.asarray(state, dtype=complex)
    cross = np.conj(psi[..., 0]) * psi[..., 1]
    w = np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2
    return 2.0 * cross.real, 2.0 * cross.imag, w
