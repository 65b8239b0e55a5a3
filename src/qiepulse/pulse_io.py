"""CSV serialization for pulses, trajectories, and scans, plus run configs.

All files are UTF-8 with '\n' line endings and dot decimal separators.
Metadata travels on '#'-prefixed lines as '# key = value'.  Pulse files come
in two layouts: the full design layout

    t,omega,delta,theta,beta,adiabaticity

and a minimal 3-column 't,omega,delta' layout accepted on input so external
pulses can enter the scan pipeline.  The t column is the pulse's time axis
as is: any finite, strictly increasing column of at least 3 samples is read
(a designed file's is refined where its field needs it), and the
'n_samples' metadata is provenance only.
"""

import json
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from . import __version__
from .designer import AngleTrajectory, DesignParams, Pulse, _area, _is_count
# not called here; bench/layers.py wraps this module's name for its spans
from .designer import analytic_diagnostics  # noqa: F401
from .errors import ParameterError, PulseFormatError
from .robustness import ErrorGrid, ScanResult

__all__ = [
    "RunConfig",
    "parse_config",
    "write_pulse_csv",
    "read_pulse_csv",
    "write_scan_csv",
    "write_trajectory_csv",
]

PULSE_COLUMNS = ["t", "omega", "delta", "theta", "beta", "adiabaticity"]
PULSE_COLUMNS_MINIMAL = ["t", "omega", "delta"]
TRAJECTORY_COLUMNS = ["t", "pop1", "pop2", "u", "v", "w", "p_minus", "p_plus"]


@dataclass
class RunConfig:
    """Everything a full report run needs."""

    design: DesignParams
    rabi_grid: ErrorGrid
    detuning_grid: ErrorGrid
    output_dir: str = "qiepulse_out"
    emit_plots: bool = False
    csv_precision: int = 12

    def __post_init__(self):
        # %.16e round-trips every double; more digits only grow the files
        if not 1 <= self.csv_precision <= 16:
            raise ParameterError(
                f"csv_precision must be in [1, 16], got {self.csv_precision}"
            )


_DEFAULT_GRID = {"lo": -0.5, "hi": 0.5, "n_points": 101}
# report designs the four reference c values in place of design.c, so a
# config may leave it out; its design then holds the first of them
_DEFAULT_DESIGN = {"c": 0.073}

# JSON value types accepted for each annotated field type; a field whose
# type is a dataclass takes a JSON object.
_JSON_TYPES = {
    float: ("a number", (int, float)),
    int: ("an integer", (int,)),
    bool: ("true or false", (bool,)),
    str: ("a string", (str,)),
}


def _check_fields(given: dict, cls, where: str, skip=()) -> None:
    """Reject keys that are not fields of cls, and values of the wrong type."""
    types = {f.name: f.type for f in fields(cls) if f.name not in skip}
    unknown = sorted(set(given) - set(types))
    if unknown:
        raise ParameterError(f"unknown {where} keys: {', '.join(unknown)}")
    for key, value in given.items():
        kind, allowed = _JSON_TYPES.get(types[key], ("an object", (dict,)))
        if (not isinstance(value, allowed)
                or (isinstance(value, bool) and bool not in allowed)):
            raise ParameterError(f"{where}.{key} must be {kind}, got {value!r}")


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration, filling documented defaults.

    Any bad input raises ParameterError.  Unknown keys and values of the
    wrong JSON type are rejected by name; an out-of-range design or grid
    value is named with its 'design: ' or '<grid name>: ' prefix and its
    bound.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past Python's digit limit, deep nesting
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    _check_fields(raw, RunConfig, "config")

    design_raw = raw.pop("design", {})
    _check_fields(design_raw, DesignParams, "design")
    try:
        design = DesignParams(**{**_DEFAULT_DESIGN, **design_raw})
    except ParameterError as exc:
        raise ParameterError(f"design: {exc}") from exc

    grids = {}
    for name, parameter in (("rabi_grid", "rabi"),
                            ("detuning_grid", "detuning")):
        grid_raw = raw.pop(name, {})
        _check_fields(grid_raw, ErrorGrid, name, skip=("parameter",))
        try:
            grids[name] = ErrorGrid(parameter, **{**_DEFAULT_GRID, **grid_raw})
        except ParameterError as exc:
            raise ParameterError(f"{name}: {exc}") from exc

    return RunConfig(design=design, **grids, **raw)


# rows formatted per write: the buffers of an 8-column chunk stay below
# glibc's 128 KiB mmap threshold; larger ones, once freed, raise it and grow
# the heap (about 1 MB of peak RSS at 1024 rows)
_CHUNK_ROWS = 512
# '%.766e' prints all 767 significant digits a double can have (2^-1022 -
# 2^-1074); more are zeros, each a byte more per chunk row and column
_MAX_PRECISION = 766

# Each chunk's '%.{p}e' text is built from numpy arrays.  For finite
# |x| >= _FAST_MIN at p <= _FAST_DIGITS, m = |x| 10^(p-e) is formed with one
# exact or correctly rounded power of ten in at most two roundings, so
# |m - exact| < 2.3e-3 below 10^13: rint(m) is the correctly rounded p+1
# significant digits unless m lies within _GUARD of a half.  Those values,
# zero, subnormals, non-finite values and columns of more digits are
# printed by '%' itself (_printf).
_FAST_DIGITS = 12
_FAST_MIN = 1e-290
_GUARD = 0.005
_FILL = 0  # a byte no field prints; dropped before the chunk is written
# 10^k, k = 0..308, correctly rounded (as every int to float conversion)
_POW10 = np.array([float(10 ** k) for k in range(309)])
# 10^k for k in -308..308 as a factor and a divisor, the other one 1
_TIMES = np.concatenate([np.ones(308), _POW10])
_OVER = np.concatenate([_POW10[:0:-1], np.ones(309)])
# the 4 ASCII digits of 0..9999, one uint32 each
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4[..., 0] = _D[:, None, None, None]
_DIGITS4[..., 1] = _D[:, None, None]
_DIGITS4[..., 2] = _D[:, None]
_DIGITS4[..., 3] = _D
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
# the exponent's sign and at least 2 digits (the hundreds digit or fill),
# one uint32 each, for e in _EXP_MIN..-_EXP_MIN
_EXP_MIN = -330
_E = np.arange(_EXP_MIN, 1 - _EXP_MIN)
_EXP4 = np.column_stack([
    np.where(_E < 0, ord("-"), ord("+")),
    np.where(abs(_E) >= 100, abs(_E) // 100 + ord("0"), _FILL),
    abs(_E) // 10 % 10 + ord("0"),
    abs(_E) % 10 + ord("0"),
]).astype(np.uint8).view(np.uint32).ravel()


def _width(p: int) -> int:
    """The widest '%.{p}e' field: sign, digits, point, 'e', sign, 3 digits."""
    return p + 7 + (p > 0)


def _printf(values, formats) -> np.ndarray:
    """Each value by '%' with its format, all of one width: one row of
    bytes per value, right-aligned on fill."""
    text = "".join(formats) % tuple(values)
    out = np.frombuffer(text.encode("ascii"), np.uint8)
    return np.where(out == ord(" "), _FILL, out).reshape(len(values), -1)


def _decimal(x, scale, fits):
    """(fast, mantissa, exponent) of each value of x (rows by columns) at
    its column's digits p, scale = (p + 308, 10^p, 10^(p+1)) per column,
    where the column fits the fast path (None: every column does): whether
    the fast path decides its digits, the p+1 digits as the last of 16 ASCII
    bytes, and the exponent's 4 bytes."""
    shift, low, top = scale
    a = np.abs(x)
    fast = a >= _FAST_MIN
    fast &= a < np.inf
    if fits is not None:
        fast &= fits
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    k = shift - e
    m = a * _TIMES[k] / _OVER[k]
    # log10 may miss by one next to a power of ten
    over, under = m >= top, m < low
    if over.any() or under.any():
        e += over
        e -= under
        k = shift - e
        m = a * _TIMES[k] / _OVER[k]
    r = np.rint(m)
    fast &= np.abs(m - r) <= 0.5 - _GUARD
    carry = r == top
    e += carry
    # r < 10^13 as four groups of 4 digits
    q = np.where(carry, low, r).astype(np.int64)
    group = np.empty_like(q)
    mantissa = np.empty((*x.shape, 4), np.uint32)
    for k in (3, 2, 1):
        np.divmod(q, 10000, out=(q, group))
        mantissa[..., k] = _DIGITS4[group]
    mantissa[..., 0] = _DIGITS4[q]
    exponent = _EXP4[e - _EXP_MIN]
    return (fast, mantissa.view(np.uint8),
            exponent.view(np.uint8).reshape(*x.shape, 4))


@lru_cache(maxsize=64)
def _chunk_formatter(digits):
    """A function of x (rows by len(digits) columns) giving its rows as
    '%.{p}e' fields at each column's precision (a tuple), joined by ',' and
    ended by '\n'.  Each value is built right-aligned in a slot of the
    widest field and its separator; the slot's template, the runs of columns
    of one precision and the '%' formats are made here, once per digits."""
    ncols = len(digits)
    slot = max(map(_width, digits)) + 1
    template = np.full((ncols, slot), _FILL, np.uint8)
    template[:, -1] = ord(",")
    template[-1, -1] = ord("\n")
    runs = []
    start = 0
    for j in range(1, ncols + 1):
        # each run of columns of one precision
        if j < ncols and digits[j] == digits[start]:
            continue
        pj, cols = digits[start], slice(start, j)
        start = j
        if pj:
            template[cols, slot + 1 - _width(pj)] = ord(".")
        template[cols, -6] = ord("e")
        if pj <= _FAST_DIGITS:
            runs.append((pj, cols, slot - 1 - _width(pj)))
    p = np.minimum(digits, _FAST_DIGITS)
    scale = p + 308, _POW10[p], _POW10[p + 1]
    fits = None if max(digits) <= _FAST_DIGITS else p == digits
    formats = [f"%{slot - 1}.{pj}e" for pj in digits]

    def format_chunk(x) -> bytes:
        fast, mantissa, exponent = _decimal(x, scale, fits)
        sign = (x < 0) * np.uint8(ord("-"))
        buf = np.empty((len(x), ncols, slot), np.uint8)
        buf[:] = template
        for pj, cols, lead in runs:
            field = buf[:, cols, lead:]
            field[..., 0] = sign[:, cols]
            field[..., 1] = mantissa[:, cols, 15 - pj]
            field[..., 2 + (pj > 0):-6] = mantissa[:, cols, 16 - pj:]
            field[..., -5:-1] = exponent[:, cols]
        slow = np.flatnonzero(~fast)
        if slow.size:
            buf.reshape(-1, slot)[slow, :-1] = _printf(
                x.ravel()[slow].tolist(),
                [formats[j] for j in (slow % ncols).tolist()])
        return buf.tobytes().translate(None, b"\0")

    return format_chunk


def _write_csv(path, meta: dict, columns, arrays, precision: int) -> None:
    """'# key = value' metadata lines, a header row, then one row per sample
    of the aligned arrays in scientific notation: each value's bytes are
    those of '%.{p}e', as are a float metadata value's.  A 't' column gets
    the smallest precision >= precision at which it still reads back
    strictly increasing (16 round-trips every double).  A precision that is
    not an integer in [0, _MAX_PRECISION] raises ParameterError."""
    if isinstance(precision, bool) or not _is_count(precision, 0,
                                                    _MAX_PRECISION):
        raise ParameterError(f"precision must be an integer in "
                             f"[0, {_MAX_PRECISION}], got {precision!r}")
    digits = [precision] * len(columns)
    if columns[0] == "t":
        t = arrays[0]
        # printing merges only neighbours closer than 10^(1-p) of their size
        # (10^(2-p) leaves a margin); only those are printed to check
        close = np.flatnonzero(np.diff(t) < 10.0 ** (2 - precision)
                               * np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
        digits[0] = next((p for p in range(precision, 17) if all(
            float(f"{t[k]:.{p}e}") < float(f"{t[k + 1]:.{p}e}") for k in close)),
            precision)
    format_chunk = _chunk_formatter(tuple(digits))
    chunk = np.empty((min(len(arrays[0]), _CHUNK_ROWS), len(arrays)))
    with open(path, "wb") as fh:
        head = "".join(
            f"# {key} = {value:.{precision}e}\n" if isinstance(value, float)
            else f"# {key} = {value}\n" for key, value in meta.items())
        fh.write((head + ",".join(columns) + "\n").encode("utf-8"))
        for start in range(0, len(arrays[0]), _CHUNK_ROWS):
            rows = chunk[:len(arrays[0]) - start]
            for j, a in enumerate(arrays):
                rows[:, j] = a[start:start + _CHUNK_ROWS]
            fh.write(format_chunk(rows))


def write_pulse_csv(pulse: Pulse, trajectory: Optional[AngleTrajectory],
                    path, precision: int = 12) -> None:
    """Write a pulse (and, when available, its angle trajectory) to CSV.

    With a trajectory the full 6-column layout is written, its adiabaticity
    column the mu the trajectory records; without one (baseline or external
    pulses) the minimal 't,omega,delta' layout is used.  The design
    parameters go into the metadata when the pulse has them.
    """
    meta = {
        "version": __version__,
        "area": repr(pulse.area),
        "beta_final": repr(pulse.beta_final),
        "adiabaticity_residual": repr(pulse.adiabaticity_residual),
    }
    if pulse.params is not None:
        p = pulse.params
        meta.update(
            c=repr(p.c), T=repr(p.T), kappa=repr(p.kappa),
            n_samples=p.n_samples, branch_sign=p.branch_sign,
            beta_rate_init=p.beta_rate_init,
        )
    arrays = [pulse.t, pulse.omega, pulse.delta]
    if trajectory is not None:
        arrays += [trajectory.theta.theta, trajectory.beta, trajectory.mu]
    _write_csv(path, meta, PULSE_COLUMNS[:len(arrays)], arrays, precision)


def _parse_metadata_line(line: str, meta: dict) -> None:
    body = line[1:].strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()


def _float_metadata(meta: dict, key: str) -> float:
    """A float metadata value, NaN when absent."""
    try:
        return float(meta.get(key, "nan"))
    except ValueError as exc:
        raise PulseFormatError(
            f"metadata {key} is not a number: {meta[key]!r}"
        ) from exc


def _check_columns(header) -> None:
    for k, column in enumerate(header):
        if column in header[:k]:
            raise PulseFormatError(f"repeated column {column!r}")
    for required in PULSE_COLUMNS_MINIMAL:
        if required not in header:
            raise PulseFormatError(f"missing required column {required!r}")


def _read_lines(fh):
    """(metadata, header, rows) of a pulse file, parsed line by line; a
    malformed or non-finite row raises PulseFormatError naming its line."""
    meta = {}
    header = None
    rows = []
    linenos = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_metadata_line(line, meta)
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise PulseFormatError(
                f"line {lineno}: expected {len(header)} fields, "
                f"got {len(parts)}",
                line_number=lineno,
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise PulseFormatError(
                f"line {lineno}: {exc}", line_number=lineno
            ) from exc
        linenos.append(lineno)
    if header is None or not rows:
        raise PulseFormatError("no data rows found")
    _check_columns(header)

    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise PulseFormatError(f"line {lineno}: non-finite value",
                               line_number=lineno)
    return meta, header, data


def _read_columns(fh):
    """(metadata, header, rows) of a pulse file: the metadata and header
    line by line, then the body in one columnar parse.  A body that parse
    rejects, or one that is not a full, finite table of the header's width,
    is read again from the start by _read_lines, which accepts what float()
    accepts (and '#' lines anywhere) and names the first bad line."""
    meta, header = {}, None
    for line in iter(fh.readline, ""):
        line = line.strip()
        if line.startswith("#"):
            _parse_metadata_line(line, meta)
        elif line:
            header = [c.strip() for c in line.split(",")]
            break
    if header is not None:
        try:
            with warnings.catch_warnings():
                # an empty body warns; _read_lines names it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = np.empty((0, 0))
        if (data.shape[1] == len(header) and len(data)
                and np.isfinite(data).all()):
            _check_columns(header)
            return meta, header, data
    fh.seek(0)
    return _read_lines(fh)


def read_pulse_csv(path) -> Pulse:
    """Read a pulse CSV (either layout).

    The t column is read as is; Pulse checks it (ParameterError).  Design
    metadata absent from the file stays absent: beta_final defaults to NaN
    and the area is recomputed from the samples when not recorded.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta, header, data = _read_columns(fh)
    col = {name: data[:, i] for i, name in enumerate(header)}
    t, omega, delta = col["t"], col["omega"], col["delta"]
    return Pulse(
        t=t,
        omega=omega,
        delta=delta,
        area=(_float_metadata(meta, "area") if "area" in meta
              else _area(omega, t)),
        beta_final=_float_metadata(meta, "beta_final"),
        adiabaticity_residual=_float_metadata(meta, "adiabaticity_residual"),
        params=None,
    )


def write_scan_csv(result: ScanResult, path, precision: int = 12,
                   meta: Optional[dict] = None) -> None:
    """Serialize one scan: '#' metadata plus 'delta,fidelity' rows.  The
    band minimum is written as the fidelity column is, at precision; meta
    adds its items (a report's sampling of the scanned drive) after the
    scan's own."""
    meta = {
        "protocol": result.protocol_label,
        "parameter": result.grid.parameter,
        "area": repr(result.area),
        "min_fidelity_in_band": float(result.min_fidelity_in_band),
        **(meta or {}),
    }
    _write_csv(path, meta, ["delta", "fidelity"],
               [result.grid.values(), result.fidelities], precision)


def write_trajectory_csv(trajectory, path, precision: int = 12,
                         meta: Optional[dict] = None) -> None:
    """Serialize a propagation record (populations, Bloch, branch pops),
    after meta's items as '#' metadata (simulate's sampling)."""
    _write_csv(path, meta or {}, TRAJECTORY_COLUMNS,
               [trajectory.t, trajectory.pop1, trajectory.pop2,
                trajectory.bloch_u, trajectory.bloch_v, trajectory.bloch_w,
                trajectory.adiab_pop_minus, trajectory.adiab_pop_plus],
               precision)
