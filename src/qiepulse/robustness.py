"""Systematic-error scans and protocol comparison.

Errors are multiplicative miscalibrations applied uniformly over the pulse:
Omega -> (1 + delta) Omega for "rabi", Delta -> (1 + delta) Delta for
"detuning".  Fidelity is always measured against the fixed nominal target
(never re-fit per error value), and band statistics over |delta| <= 0.1 /
0.2 / 0.3 are the quantitative robustness surface.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .designer import MAX_SAMPLES, Pulse, _is_count, _real, _sundman, _value_eq
from .dynamics import TargetState, _Steps, fidelity, final_states_over_errors, ket1
from .errors import ParameterError

__all__ = [
    "ErrorGrid",
    "ScanResult",
    "pi_half_baseline",
    "scan_1d",
    "robustness_summary",
    "format_summary",
]

BAND_HALF_WIDTH = 0.2  # |delta| band for min_fidelity_in_band

# Intervals per accepted design step of a design's scan (_design_scans), and
# of the scan its error is estimated against, one interval per two steps:
# the error falls as m^-4, so that scan is off by (2 / (1/2))^4 = 256 times
# as much, and max |F2 - F1/2| / 255 estimates the scan's
_INTERVALS, _ESTIMATE_INTERVALS, _SHRINK = 2, 0.5, 255
_ESTIMATOR = f"max|F{_INTERVALS} - F1/2|/{_SHRINK}"
_SAMPLING = f"sundman magnus4, {_INTERVALS} intervals per accepted step"


@dataclass(frozen=True)
class ErrorGrid:
    """Uniform grid of error amplitudes for one parameter kind: n_points
    from lo to hi, whose ends and span hi - lo are finite."""

    parameter: str  # "rabi" | "detuning"
    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if self.parameter not in ("rabi", "detuning"):
            raise ParameterError(
                f"parameter must be 'rabi' or 'detuning', got {self.parameter!r}"
            )
        lo, hi = _real(self.lo), _real(self.hi)
        if not -np.inf < lo < hi < np.inf:
            raise ParameterError(f"need finite lo < hi, got [{self.lo!r}, {self.hi!r}]")
        with np.errstate(over="ignore"):  # a numpy float's span; named below
            span = hi - lo
        if not span < np.inf:
            raise ParameterError(f"need a finite span hi - lo, got "
                                 f"[{self.lo!r}, {self.hi!r}]")
        if not _is_count(self.n_points, 2):
            raise ParameterError(f"n_points must be >= 2 and <= {MAX_SAMPLES}, "
                                 f"got {self.n_points!r}")

    def values(self) -> np.ndarray:
        """Grid values; when the range spans 0 the closest point is snapped
        to exactly 0 so the nominal pulse is always evaluated."""
        vals = np.linspace(self.lo, self.hi, self.n_points)
        if self.lo <= 0.0 <= self.hi:
            vals[np.argmin(np.abs(vals))] = 0.0
        return vals


@dataclass
class ScanResult:
    protocol_label: str
    grid: ErrorGrid
    fidelities: np.ndarray
    min_fidelity_in_band: float
    area: float

    __eq__ = _value_eq  # by value, NaN equal to NaN


def pi_half_baseline(duration: float, n_samples: int = 101) -> Pulse:
    """Resonant constant pulse with area pi/2, the standard comparator.

    Constant Omega = (pi/2)/duration, Delta = 0.  Its target corresponds to
    beta_final = -pi/2: propagating |1> through it yields (1, -i)/sqrt(2) up
    to global phase, which is target_state(-pi/2), giving fidelity 1 at
    delta = 0.
    """
    if not 0 < _real(duration) < np.inf or not 0.5 * np.pi / duration < np.inf:
        raise ParameterError(f"duration must be positive and finite, with "
                             f"(pi/2)/duration finite, got {duration!r}")
    if not _is_count(n_samples, 3):
        raise ParameterError(f"n_samples must be >= 3 and <= {MAX_SAMPLES}, "
                             f"got {n_samples!r}")
    return Pulse(
        t=np.linspace(0.0, duration, n_samples),
        omega=np.full(n_samples, 0.5 * np.pi / duration),
        delta=np.zeros(n_samples),
        area=0.5 * np.pi,
        beta_final=-0.5 * np.pi,
        adiabaticity_residual=0.0,  # static drive, the parameter is 0 exactly
        params=None,
    )


def _band_min(deltas, fids, half_width):
    mask = np.abs(deltas) <= half_width + 1e-12
    return float(np.min(fids[mask])) if np.any(mask) else float("nan")


def scan_1d(pulse: Pulse, target, grid: ErrorGrid, substeps: int = 1,
            protocol_label: Optional[str] = None) -> ScanResult:
    """Fidelity versus systematic error over one grid.

    target is what fidelity accepts (TargetState, bare beta_final or state);
    the same target is used at every grid point.  Grid points are
    independent; they are evaluated as one batch, which is arithmetically
    identical to independent runs and independent of evaluation order.
    """
    return _scan(pulse, target, [grid], substeps, protocol_label)[0]


def _scan(pulse: Pulse, target, grids, substeps: int = 1,
          protocol_label: Optional[str] = None, drive=None) -> List[ScanResult]:
    """scan_1d over several grids of one pulse, run as one batch: each row
    is computed as a batch of one would be, so every result is the one
    scan_1d gives for its grid alone.  drive, when given, is the ready
    dynamics._Steps (at substeps = 1) the pulse is scanned by in place of
    its samples; the results keep the pulse's label and area."""
    deltas = [grid.values() for grid in grids]
    scales = [np.ones((2, d.size)) for d in deltas]  # of Omega, of Delta
    for grid, d, scale in zip(grids, deltas, scales):
        scale[0 if grid.parameter == "rabi" else 1] += d
    finals = final_states_over_errors(pulse if drive is None else drive, ket1(),
                                      *np.hstack(scales), substeps)
    fids = np.split(fidelity(finals, target),
                    np.cumsum([d.size for d in deltas])[:-1])

    if protocol_label is None:
        if pulse.params is not None:
            protocol_label = f"qie c={pulse.params.c:g}"
        else:
            protocol_label = "pulse"
    return [ScanResult(protocol_label=protocol_label, grid=grid, fidelities=f,
                       min_fidelity_in_band=_band_min(d, f, BAND_HALF_WIDTH),
                       area=pulse.area)
            for grid, d, f in zip(grids, deltas, fids)]


def _drive(solution, m):
    """A design's drive in its Sundman time (designer._sundman) at m
    intervals per accepted step of its run, up to the s* it records, as the
    ready dynamics._Steps it is scanned by."""
    return _Steps(*(np.append(0.0, x) for x in _sundman(solution, m)[1:]))


def _design_scans(pulse: Pulse, trajectory, grids):
    """A design's scans over its grids, each with its estimated error, and
    the exponentials per error row of the scan and of the estimate's scan.

    A scan is the design's drive by fourth-order Magnus steps, one
    exponential each, at _INTERVALS intervals per accepted step (_drive),
    its grids in one batch, against the design's target.  The error falls
    as m^-4 in the intervals per step m, so the scan at
    _ESTIMATE_INTERVALS, one interval per two steps, is off by 256 times as
    much, and max |F_2 - F_1/2| / 255 estimates the scan's.  Both drives
    end at the s* the design recorded from its own clock inversion.  The
    exponentials per row are the drives' counts (dynamics._Steps)."""
    target = TargetState(pulse.beta_final)
    drives = [_drive(trajectory.solution, m)
              for m in (_INTERVALS, _ESTIMATE_INTERVALS)]
    fine, coarse = (_scan(pulse, target, grids, 1, drive=drive)
                    for drive in drives)
    return ([(res, float(np.max(np.abs(res.fidelities - est.fidelities)))
              / _SHRINK) for res, est in zip(fine, coarse)],
            [drive.omega.size - 1 for drive in drives])


@dataclass
class SummaryRow:
    protocol_label: str
    parameter: str
    area: float
    f_nominal: float
    min_band_01: float
    min_band_02: float
    min_band_03: float
    monotone_left: bool
    monotone_right: bool


def robustness_summary(results: List[ScanResult]) -> List[SummaryRow]:
    """Aggregate per-protocol band statistics from scan results.

    monotone_left/right flag whether fidelity is nonincreasing as |delta|
    grows on each side of 0 (within 1e-12), i.e. a fringe-free profile.
    """
    if not results:
        raise ParameterError("robustness_summary needs at least one result")
    rows = []
    for res in results:
        deltas = res.grid.values()
        fids = res.fidelities
        at_zero = deltas == 0.0  # values() snaps the point nearest 0 to it
        f0 = float(fids[at_zero][0]) if np.any(at_zero) else float("nan")
        left = deltas <= 0.0
        right = deltas >= 0.0
        mono_l = bool(np.all(np.diff(fids[left]) >= -1e-12))
        mono_r = bool(np.all(np.diff(fids[right]) <= 1e-12))
        rows.append(
            SummaryRow(
                protocol_label=res.protocol_label,
                parameter=res.grid.parameter,
                area=res.area,
                f_nominal=f0,
                min_band_01=_band_min(deltas, fids, 0.1),
                min_band_02=_band_min(deltas, fids, 0.2),
                min_band_03=_band_min(deltas, fids, 0.3),
                monotone_left=mono_l,
                monotone_right=mono_r,
            )
        )
    return rows


def format_summary(rows: List[SummaryRow]) -> str:
    """Plain-text table of summary rows."""
    header = (
        f"{'protocol':<16} {'param':<9} {'area/pi':>8} {'F(0)':>9} "
        f"{'min|d|<.1':>10} {'min|d|<.2':>10} {'min|d|<.3':>10} {'mono':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        mono = ("L" if r.monotone_left else "-") + ("R" if r.monotone_right else "-")
        lines.append(
            f"{r.protocol_label:<16} {r.parameter:<9} {r.area / np.pi:>8.4f} "
            f"{r.f_nominal:>9.6f} {r.min_band_01:>10.6f} {r.min_band_02:>10.6f} "
            f"{r.min_band_03:>10.6f} {mono:>6}"
        )
    return "\n".join(lines)
