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
from typing import Optional

import numpy as np

from . import __version__
from .designer import AngleTrajectory, DesignParams, Pulse, _area
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
    if "c" not in design_raw:
        raise ParameterError("design.c is required")
    try:
        design = DesignParams(**design_raw)
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


_CHUNK_ROWS = 1024  # rows formatted per write


def _write_csv(path, meta: dict, columns, arrays, precision: int) -> None:
    """'# key = value' metadata lines, a header row, then one row per sample
    of the aligned arrays in scientific notation.  A 't' column gets the
    smallest precision >= precision at which it still reads back strictly
    increasing (16 round-trips every double)."""
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
    row = ",".join(f"%.{p}e" for p in digits) + "\n"
    data = np.column_stack(arrays)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in meta.items())
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(data), _CHUNK_ROWS):
            chunk = data[start:start + _CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


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


def write_scan_csv(result: ScanResult, path, precision: int = 12) -> None:
    """Serialize one scan: '#' metadata plus 'delta,fidelity' rows."""
    meta = {
        "protocol": result.protocol_label,
        "parameter": result.grid.parameter,
        "area": repr(result.area),
        "min_fidelity_in_band": repr(result.min_fidelity_in_band),
    }
    _write_csv(path, meta, ["delta", "fidelity"],
               [result.grid.values(), result.fidelities], precision)


def write_trajectory_csv(trajectory, path, precision: int = 12) -> None:
    """Serialize a propagation record (populations, Bloch, branch pops)."""
    _write_csv(path, {}, TRAJECTORY_COLUMNS,
               [trajectory.t, trajectory.pop1, trajectory.pop2,
                trajectory.bloch_u, trajectory.bloch_v, trajectory.bloch_w,
                trajectory.adiab_pop_minus, trajectory.adiab_pop_plus],
               precision)
