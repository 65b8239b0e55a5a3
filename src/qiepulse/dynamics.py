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
the scan batch and propagate both take their block products from them.  The
batch also takes ready steps (_Steps) in place of a pulse: sixth-order
Magnus steps (M6, _magnus6) of fields given at three Gauss nodes, still one
exponential each, whose sigma_x, sigma_z and sigma_y fields are three
monomials of the two error factors each (_monomials).  They skip the
interpolation (_fields) and share the rest (_bounded, _trees, _su2).

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
    """A pulse's M4 step fields at substeps equal steps per interval of t,
    flat: o = -Omega dt/4 and d = Delta dt/4 at each step's midpoint (linear
    interpolation, dt its width) and y = (dt^2/48) (Omega_a Delta_b -
    Omega_b Delta_a) of the fields at its ends a and b, which for a linear
    interpolant is the interval's (Omega_i Delta_i+1 - Omega_i+1 Delta_i)
    over substeps; which of them are kept (a midpoint field or that
    interval's Omega_i Delta_i+1 - Omega_i+1 Delta_i is not 0: the others
    are exactly the identity), and the count of kept steps up to each sample
    of t."""
    if not _is_count(substeps, 1, MAX_SAMPLES // (pulse.t.size - 1)):
        raise ParameterError(f"substeps must be >= 1 and (samples - 1) x "
                             f"substeps <= {MAX_SAMPLES}, got {substeps!r}")
    _finite(("omega", pulse.omega), ("delta", pulse.delta))
    om0, om1 = pulse.omega[:-1, None], pulse.omega[1:, None]
    de0, de1 = pulse.delta[:-1, None], pulse.delta[1:, None]
    # what overflows here is inf or nan, which _blocks' bound rejects
    with np.errstate(over="ignore", invalid="ignore"):
        w = (np.arange(substeps) + 0.5) / substeps
        om = om0 * (1.0 - w) + om1 * w
        de = de0 * (1.0 - w) + de1 * w
        h = np.diff(pulse.t)[:, None] / (4 * substeps)  # a quarter of each width
        y = (h * om0 * (h * de1) - h * om1 * (h * de0)) / (3 * substeps)
        keep = ((om != 0.0) | (de != 0.0) | (om0 * de1 != om1 * de0)).ravel()
        np.multiply(de, h, out=de)
        np.multiply(om, np.negative(h, out=h), out=om)
    done = np.concatenate(([0], np.cumsum(keep)[substeps - 1::substeps]))
    return om.ravel(), de.ravel(), np.repeat(y, substeps), keep, done


def _finite(*named):
    """Raise ParameterError at the first (name, values) pair that is not
    finite everywhere."""
    for name, values in named:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParameterError(f"{name} is not finite at index {bad[0]}")


def _blocks(om, de, y, keep, scale_omega, scale_delta):
    """The kept steps of the flat step fields om, de and y, as _factors takes
    them, front-padded with zero fields to whole blocks and shaped (blocks,
    _BLOCK), each of om and de times its own scale and y times
    scale_omega x scale_delta bounded as _bounded bounds them."""
    _finite(("scale_omega", scale_omega), ("scale_delta", scale_delta))
    with np.errstate(over="ignore"):  # an overflow is inf, which is rejected
        sy = np.multiply(scale_omega, scale_delta)
    return _bounded(zip(("omega", "delta", "omega x delta"), (om, de, y),
                        (scale_omega, scale_delta, sy)), keep)


def _bounded(terms, keep):
    """The kept steps of each (name, flat values, scale) term, front-padded
    with zeros to whole blocks and shaped (blocks, _BLOCK).  Each term's
    values times the largest |scale| of its own must be at most 1e150 (nan
    is not): then each of the at most three terms of a field of _su2 is, so
    phi/2 is at most 5.2e150, its tan is finite, and so is every state."""
    kept = np.count_nonzero(keep)
    size = kept - kept % -_BLOCK
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, x, scale in terms:
            padded = np.zeros(size)
            padded[size - kept:] = x[keep]
            bound = np.abs(padded).max(initial=0.0) * np.abs(scale).max(initial=0.0)
            if not bound <= 1e150:
                raise ParameterError(f"scaled {name} exceeds 1e150 per step: "
                                     f"its step field is squared")
            out.append(padded.reshape(-1, _BLOCK))
    return out


def _factors(o, so, d, sd, y, sy, a, b, x):
    """Cayley-Klein (a, b) of the M4 steps of a pulse into a and b (_su2),
    with w = o so = -Omega dt/4, e = d sd = Delta dt/4 and v = y sy (o, d and
    y as _fields and _blocks give them, sy = so sd).  x is six contiguous
    real arrays of a's shape: w and e take the first two and _su2 works in
    the other four; v takes the first half of a's memory, contiguous too,
    which _su2 writes last."""
    w, e, *scratch = x
    v = a.view(float).reshape((2,) + a.shape)[0]
    np.multiply(o, so, out=w)
    np.multiply(d, sd, out=e)
    _su2(w, e, np.multiply(y, sy, out=v), a, b, *scratch)


def _su2(w, e, v, a, b, p, s, u, c):
    """Cayley-Klein (a, b) of the steps exp(2i (w sigma_x + v sigma_y + e
    sigma_z)) = [[a, b], [-b*, a*]] into a and b: phi / 2 = sqrt(w^2 + e^2 +
    v^2) floored at 1e-300, a = cos(phi) + i f e and b = f v + i f w, cos and
    sin from u = tan(phi / 2), f = sin(phi) / (phi / 2): sin(phi) is 0 where
    the fields are, and where their squares underflow the step is its
    first-order rotation (f = 2).  p, s, u and c are real scratch of a's
    shape; every pass but the last four, which write b.imag, b.real, a.real
    and a.imag in that order (so v may lie in a's memory), works in them."""
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


def _trees(blocks, cols, factors):
    """Yield each block's pairwise tree, a heap on axis 1 of one buffer:
    step k's factor at _BLOCK + _REV[k], level m at [m, 2m) (two contiguous
    halves of the level below) and the block's product at 1, its columns of
    shape cols.  factors(block, a, b, x) writes the factors of each of
    blocks, its steps in _REV order, into the leaves a and b, x being six
    real scratch arrays of their shape (_pulse_factors, _ready_factors);
    each level's _mul operands are views made once, not sliced anew for
    every block.  The heap and the scratch start on cache lines (_zeros),
    and so do the leaves, each half of the heap and each scratch array, all
    whole multiples of 64 bytes from the start."""
    ab = _zeros((2, 2 * _BLOCK) + cols, dtype=complex)
    x = _zeros((2, _BLOCK) + cols)
    t = x.reshape(2, _BLOCK // 2, -1).view(complex)
    x = [*x, *_reals(ab[:, :_BLOCK])]  # inner nodes: free until the tree
    levels = [(*ab[:, 3 * m:4 * m], *ab[:, 2 * m:3 * m], *ab[:, m:2 * m], *t[:, :m])
              for m in 2 ** np.arange(_BLOCK.bit_length() - 2, -1, -1)]
    for block in blocks:
        factors(block, *ab[:, _BLOCK:], x)
        for level in levels:
            _mul(*level)
        yield ab


def _pulse_factors(so, sd):
    """_trees' factors of a pulse's blocks (o, d, y) of step fields, each
    (_BLOCK, columns) broadcast with the scales so and sd (_factors)."""
    sy = np.multiply(so, sd)
    return lambda f, a, b, x: _factors(f[0], so, f[1], sd, f[2], sy, a, b, x)


def _ready_factors(mono):
    """_trees' factors of ready steps' blocks of coefficients, each (3,
    _BLOCK, 3), at the columns' monomials mono, (3, 3, columns)
    (_monomials): each block's w, e and v by one batched matmul into a
    buffer of their own, then _su2."""
    wev = _zeros((3, _BLOCK) + mono.shape[2:])
    return lambda c, a, b, x: _su2(*np.matmul(c, mono, out=wev), a, b, *x[2:])


# The monomials of the error factors, as _monomials stacks them, that ready
# steps' w, e and v are linear in, named as _bounded names them
_TERMS = ("omega", "omega x delta^2", "omega^3 x delta^2",
          "delta", "omega^2 x delta", "omega^2 x delta^3",
          "omega x delta", "omega x delta^3", "omega^3 x delta")


def _monomials(so, sd):
    """(3, 3, rows): for each row's scales so and sd, the monomials that the
    fields w, e and v of a ready step (_Steps) are linear in, as _TERMS
    names them; what overflows is inf, which _bounded rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        osd = so * sd
        return np.stack(((so, osd * sd, osd * osd * so),
                         (sd, osd * so, osd * osd * sd),
                         (osd, osd * sd * sd, osd * so * so)))


class _Steps(NamedTuple):
    """Ready M6 steps for final_states_over_errors (_magnus6): coef[r, k, j]
    is the coefficient of monomial k of row r (_monomials) in exponential
    j's field w (r = 0), e (r = 1) or v (r = 2) as _su2 takes them, in the
    order they are applied, after one step whose coefficients are all 0
    (the identity, which is dropped).  omega, each step's coefficient of so
    in w, the first-order -Omega h/4, has a slot per exponential and the
    identity's: as for a pulse's samples at one step per interval,
    omega.size - 1 is the count of exponentials."""

    coef: np.ndarray  # (3, 3, 1 + exponentials)

    @property
    def omega(self):
        return self.coef[0, 0]


def _magnus6(h, omega, delta):
    """The ready _Steps of the sixth-order Magnus step (M6; Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009), Omega^[6]) over intervals of
    widths h, with omega and delta, (3, h.size), the fields at each
    interval's Gauss nodes 1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10.
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
    return _Steps(coef)


def final_states_over_errors(pulse, initial, scale_omega, scale_delta,
                             substeps: int = 1) -> np.ndarray:
    """Final states for a batch of multiplicative field scalings.

    pulse is a Pulse, propagated at substeps M4 steps per interval, or ready
    _Steps, at substeps = 1.  scale_omega/scale_delta are aligned 1-D
    arrays of (1 + delta) factors.  A row is a column of the trees, _WIDTH
    rows a pass.  A pulse's row is computed exactly as a batch of one would
    be; ready steps' fields come from a matmul per block, whose BLAS kernel
    may follow the pass's width, so their rows agree with a batch of one to
    the rounding of those three-term sums.
    """
    scale_omega, scale_delta = (np.asarray(x, dtype=float).ravel() for x in
                                np.broadcast_arrays(scale_omega, scale_delta))
    psi = np.tile(np.asarray(initial, dtype=complex), (scale_omega.size, 1))
    if isinstance(pulse, _Steps):
        if substeps != 1:
            raise ParameterError(f"ready steps take substeps = 1, got {substeps!r}")
        _finite(("scale_omega", scale_omega), ("scale_delta", scale_delta))
        mono = _monomials(scale_omega, scale_delta)
        coef = pulse.coef.reshape(9, -1)
        blocks = _bounded(zip(_TERMS, coef, mono.reshape(9, -1)),
                          coef.any(axis=0))
        # (blocks, row, step in _REV order, monomial)
        blocks = np.stack(blocks, axis=1).reshape(-1, 3, 3, _BLOCK)
        blocks = np.ascontiguousarray(blocks.transpose(0, 1, 3, 2)[:, :, _REV])
    else:
        om, de, y, keep = _fields(pulse, substeps)[:4]
        blocks = [x[:, _REV, None] for x in
                  _blocks(om, de, y, keep, scale_omega, scale_delta)]
    for r in range(0, scale_omega.size, _WIDTH):
        rows, so, sd = (v[r:r + _WIDTH] for v in (psi, scale_omega, scale_delta))
        if isinstance(pulse, _Steps):
            trees = _trees(blocks, so.shape, _ready_factors(
                np.ascontiguousarray(mono[..., r:r + _WIDTH])))
        else:
            trees = _trees(zip(*blocks), so.shape, _pulse_factors(so, sd))
        for ab in trees:
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
    *fields, keep, done = _fields(pulse, substeps)
    fields = [x.T[None, _REV] for x in  # a column per block
              _blocks(*fields, keep, scale_omega, scale_delta)]
    n_blocks = fields[0].shape[2]
    # states[1 + j, k] is the state after step k of block j, states[0, -1] psi
    states = np.empty((n_blocks + 1, _BLOCK, 2), dtype=complex)
    states[0, -1] = psi
    for g in range(0, n_blocks, _WIDTH):
        block = [x[..., g:g + _WIDTH] for x in fields]
        ab = next(_trees(zip(*block), block[0].shape[2:],
                         _pulse_factors(scale_omega, scale_delta)))
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
