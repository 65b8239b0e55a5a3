"""Command line surface: design -> simulate -> scan -> report.

Exit codes: 0 success, 2 a bad argument, pulse time axis or run config
(ParameterError), 3 a failed design (DesignError), 4 a malformed file
(PulseFormatError) or an I/O failure (OSError).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .designer import DesignParams, _grid, design_pulse
from .dynamics import TargetState, propagate
from .errors import DesignError, ParameterError, PulseFormatError
from .plots import svg_line_plot
from .pulse_io import (
    parse_config,
    read_pulse_csv,
    write_pulse_csv,
    write_scan_csv,
    write_trajectory_csv,
)
from .robustness import (
    BAND_HALF_WIDTH,
    ErrorGrid,
    _ESTIMATOR,
    _SAMPLING,
    _design_scans,
    format_summary,
    pi_half_baseline,
    robustness_summary,
    scan_1d,
)

__all__ = ["main"]

# Reference endpoint values for the four standard adiabaticity settings
# (area and |final azimuth| in units of pi) used by `report` comparisons.
REFERENCE_TABLE = {
    0.073: (1.970, 0.051),
    0.060: (2.470, 0.034),
    0.050: (3.076, 0.033),
    0.040: (3.839, 0.023),
}
AREA_RTOL = 0.02
BETA_ATOL_PI = 0.01
# Largest adiabaticity residual, as a share of c, a design may return
# without a warning (acceptance criterion 2's bound)
RESIDUAL_SHARE = 1e-3


_EXIT_CODES = {ParameterError: 2, DesignError: 3, PulseFormatError: 4,
              OSError: 4}


def exit_code_for(exc: BaseException) -> int:
    """Map an exception onto the documented exit codes; raise any other."""
    for cls, code in _EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    raise exc


def _warn_residual(pulse) -> None:
    """One warning line on stderr where a returned design does not hold mu
    at c to RESIDUAL_SHARE c (a nan residual included)."""
    c, residual = pulse.params.c, pulse.adiabaticity_residual
    if not residual <= RESIDUAL_SHARE * c:
        print(f"warning: c = {c:g}: adiabaticity residual {residual:.3e} "
              f"exceeds the bound {RESIDUAL_SHARE:g} c = "
              f"{RESIDUAL_SHARE * c:.3e}", file=sys.stderr)


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"range must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"range must be lo:hi:n, got {text!r}") from exc
    return lo, hi, n


_SUBSTEPS_HELP = ("fourth-order Magnus steps, one exponential each, per "
                  "interval of the pulse's samples (default 1)")


def _sampling(substeps) -> str:
    """The `# sampling` note of a pulse file's simulate or scan CSV."""
    return f"pulse samples, linear, magnus4, substeps {substeps}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qiepulse",
        description="Constant-adiabaticity pulse design and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize a pulse for one c value")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=4.0)
    p.add_argument("--n", type=int, default=4001)
    p.add_argument("--branch", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--beta-init", choices=("zero", "consistency"),
                   default="consistency")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="propagate a pulse file")
    p.add_argument("--pulse", required=True)
    p.add_argument("--delta-omega", type=float, default=0.0)
    p.add_argument("--delta-delta", type=float, default=0.0)
    p.add_argument("--substeps", type=int, default=1, help=_SUBSTEPS_HELP)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scan", help="systematic-error fidelity scan")
    p.add_argument("--pulse", required=True)
    p.add_argument("--param", choices=("rabi", "detuning"), required=True)
    p.add_argument("--range", default="-0.5:0.5:101",
                   help="lo:hi:n (default -0.5:0.5:101)")
    p.add_argument("--beta-final", type=float, default=None,
                   help="target azimuth override for external pulses")
    p.add_argument("--substeps", type=int, default=1, help=_SUBSTEPS_HELP)
    p.add_argument("--out", required=True)

    p = sub.add_parser("baseline", help="generate a comparator pulse")
    p.add_argument("kind", choices=("pi2",))
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="full reference reproduction run")
    p.add_argument("--config", required=True)
    return parser


def _cmd_design(args) -> int:
    params = DesignParams(
        c=args.c, T=args.T, kappa=args.kappa, n_samples=args.n,
        branch_sign=args.branch, beta_rate_init=args.beta_init,
    )
    pulse, trajectory = design_pulse(params)
    _warn_residual(pulse)
    write_pulse_csv(pulse, trajectory, args.out)
    print(f"area = {pulse.area / np.pi:.6f} pi")
    print(f"beta_final = {pulse.beta_final / np.pi:.6f} pi")
    print(f"adiabaticity residual = {pulse.adiabaticity_residual:.3e}")
    return 0


def _cmd_simulate(args) -> int:
    pulse = read_pulse_csv(args.pulse)
    trajectory = propagate(
        pulse, error=(args.delta_omega, args.delta_delta),
        substeps=args.substeps,
    )
    write_trajectory_csv(trajectory, args.out,
                         meta={"sampling": _sampling(args.substeps)})
    print(f"final populations: {trajectory.pop1[-1]:.6f}, "
          f"{trajectory.pop2[-1]:.6f}")
    return 0


def _cmd_scan(args) -> int:
    pulse = read_pulse_csv(args.pulse)
    if args.beta_final is not None and not np.isfinite(args.beta_final):
        raise ParameterError(f"--beta-final must be finite, got {args.beta_final}")
    beta_final = pulse.beta_final if args.beta_final is None else args.beta_final
    if not np.isfinite(beta_final):
        raise ParameterError("pulse file carries no beta_final; pass --beta-final")
    lo, hi, n = _parse_range(args.range)
    grid = ErrorGrid(parameter=args.param, lo=lo, hi=hi, n_points=n)
    result = scan_1d(pulse, TargetState(beta_final), grid,
                     substeps=args.substeps)
    write_scan_csv(result, args.out,
                   meta={"sampling": _sampling(args.substeps)})
    print(f"min fidelity over |delta| <= {BAND_HALF_WIDTH:g}: "
          f"{result.min_fidelity_in_band:.6f}")
    return 0


def _cmd_baseline(args) -> int:
    pulse = pi_half_baseline(args.duration, n_samples=args.n)
    write_pulse_csv(pulse, None, args.out)
    print(f"area = {pulse.area / np.pi:.6f} pi")
    print(f"beta_final = {pulse.beta_final / np.pi:.6f} pi")
    return 0


def _cmd_report(args) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    precision = config.csv_precision

    # the four reference c values, at the config's other design settings:
    # its design.c, optional and checked by parse_config, is not used.
    # runs[c] is (pulse, trajectory, [(rabi scan, error), (detuning scan,
    # error)], exponentials per row of the scan and of the estimate's scan)
    runs = {}
    for c in REFERENCE_TABLE:
        pulse, trajectory = design_pulse(replace(config.design, c=c))
        _warn_residual(pulse)
        write_pulse_csv(pulse, trajectory, out / f"pulse_c{c:g}.csv",
                        precision=precision)
        scans, exponentials = _design_scans(
            pulse, trajectory.x0, trajectory.x_f,
            (config.rabi_grid, config.detuning_grid))
        for res, error in scans:
            write_scan_csv(
                res, out / f"scan_c{c:g}_{res.grid.parameter}.csv",
                precision=precision,
                meta={"sampling": _SAMPLING, "sampling_error": f"{error:.2e}"},
            )
        runs[c] = (pulse, trajectory, scans, exponentials)

    baseline = pi_half_baseline(1.0)
    baseline_scan = scan_1d(
        baseline, TargetState(baseline.beta_final), config.rabi_grid,
        protocol_label="pi/2 pulse",
    )

    lines = ["reference reproduction summary", ""]
    lines.append(
        f"{'c':>6} {'area/pi':>9} {'ref':>7} {'ok':>4} "
        f"{'|beta_f|/pi':>12} {'ref':>7} {'ok':>4} {'residual':>10} "
        f"{'x_f/pi':>8}"
    )
    for c, (pulse, trajectory, *_) in runs.items():
        # the field's mixing angle at the window end, which the scans'
        # drive turns to; area c follows it
        x_f_pi = trajectory.x_f / np.pi
        area_pi = pulse.area / np.pi
        beta_pi = abs(pulse.beta_final) / np.pi
        area_ref, beta_ref = REFERENCE_TABLE[c]
        area_ok = abs(area_pi - area_ref) <= AREA_RTOL * area_ref
        beta_ok = abs(beta_pi - beta_ref) <= BETA_ATOL_PI
        lines.append(
            f"{c:>6g} {area_pi:>9.4f} {area_ref:>7.3f} "
            f"{'yes' if area_ok else 'NO':>4} {beta_pi:>12.4f} "
            f"{beta_ref:>7.3f} {'yes' if beta_ok else 'NO':>4} "
            f"{pulse.adiabaticity_residual:>10.2e} {x_f_pi:>8.4f}"
        )
    lines.append("")
    rows = robustness_summary([res for _, _, scans, _ in runs.values()
                               for res, _ in scans] + [baseline_scan])
    lines.append(format_summary(rows))
    lines.append("")
    lines.append(f"qie scan sampling: {_SAMPLING}; estimated error "
                 f"{_ESTIMATOR}")
    lines.append(f"{'c':>6} {'rabi':>9} {'detuning':>9}")
    for c, (_, _, ((_, rabi), (_, detuning)), _) in runs.items():
        lines.append(f"{c:>6g} {rabi:>9.2e} {detuning:>9.2e}")
    lines.append("")
    lines.append("design work: the stepper's right-hand-side evaluations, "
                 "accepted steps and rejected attempts;")
    lines.append("exponentials per error row of the scan and of the "
                 "estimate's scan")
    lines.append(f"{'c':>6} {'nfev':>6} {'accepted':>8} {'rejected':>8} "
                 f"{'scan':>6} {'estimate':>8}")
    for c, (_, trajectory, _, (scan, estimate)) in runs.items():
        solution = trajectory.solution
        lines.append(f"{c:>6g} {solution.nfev:>6} {solution.ss.size - 1:>8} "
                     f"{solution.rejected:>8} {scan:>6} {estimate:>8}")
    lines.append("")
    (qie_rabi, _), _ = runs[0.073][2]
    qie_min = qie_rabi.min_fidelity_in_band
    base_min = baseline_scan.min_fidelity_in_band
    lines.append(
        f"qie c=0.073 rabi band min {qie_min:.5f} vs pi/2 pulse "
        f"{base_min:.5f}: "
        f"{'better' if qie_min > base_min else 'NOT better'}"
    )
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")

    if config.emit_plots:
        # the uniform design samples only: the points refined around the
        # Omega spike would set the y axis and flatten the rest of the pulse;
        # time and fields in units of T, as the axes are labelled
        for c, (pulse, *_) in runs.items():
            T = pulse.params.T
            uniform = np.isin(pulse.t, T * _grid(pulse.params))
            svg_line_plot(
                pulse.t[uniform] / T,
                [("omega", T * pulse.omega[uniform]),
                 ("delta", T * pulse.delta[uniform])],
                f"pulse c={c:g}",
                out / f"pulse_c{c:g}.svg",
                x_label="t/T", y_label="field (1/T)",
            )
        for i, grid in enumerate((config.rabi_grid, config.detuning_grid)):
            series = [(f"c={c:g}", scans[i][0].fidelities)
                      for c, (_, _, scans, _) in runs.items()]
            svg_line_plot(
                grid.values(), series, f"{grid.parameter} error scan",
                out / f"scan_{grid.parameter}.svg",
                x_label="delta", y_label="fidelity",
            )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handlers = {
        "design": _cmd_design,
        "simulate": _cmd_simulate,
        "scan": _cmd_scan,
        "baseline": _cmd_baseline,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
