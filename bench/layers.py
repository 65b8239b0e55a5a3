"""Layer spans: which qiepulse functions the traced run wraps, and the
per-layer metrics derived from their spans.

Each function is wrapped under the name its caller looks it up by, e.g.
``qiepulse.designer.beta_acceleration`` for the RK45 right-hand side and
``qiepulse.cli.propagate`` for the CLI's propagator call.  Span names are
``<layer>.<what>``; several functions may share one span name.
"""

import os

import numpy as np


def _file_bytes(key):
    return lambda args: os.path.getsize(args[key])


def _propagate_steps(args):
    return (args["pulse"].omega.size - 1) * args["substeps"]


def _batch_steps(args):
    return np.size(args["scale_omega"]) * _propagate_steps(args)


def install(tracer):
    """Wrap every layer boundary; tracer.restore() undoes it."""
    import qiepulse.cli as cli
    import qiepulse.designer as designer
    import qiepulse.pulse_io as pulse_io
    import qiepulse.robustness as robustness

    spans = [
        (cli, "main", "cli", None),
        (cli, "design_pulse", "designer.design_pulse", None),
        (designer, "design_pulse", "designer.design_pulse", None),
        (designer, "theta_profile", "profiles.theta_profile", None),
        (designer, "beta_acceleration", "designer.rhs", None),
        (designer, "invert_angles", "designer.diagnostics", None),
        (designer, "analytic_diagnostics", "designer.diagnostics", None),
        (pulse_io, "analytic_diagnostics", "designer.diagnostics", None),
        (cli, "propagate", "dynamics.propagate", _propagate_steps),
        (robustness, "final_states_over_errors", "dynamics.final_states",
         _batch_steps),
        (cli, "scan_1d", "robustness.scan_1d", None),
        (cli, "robustness_summary", "robustness.summary", None),
        (cli, "format_summary", "robustness.summary", None),
        (cli, "write_pulse_csv", "pulse_io.write_pulse", _file_bytes("path")),
        (cli, "read_pulse_csv", "pulse_io.read_pulse", _file_bytes("path")),
        (cli, "write_scan_csv", "pulse_io.write_scan", None),
        (cli, "write_trajectory_csv", "pulse_io.write_trajectory",
         _file_bytes("path")),
        (cli, "svg_line_plot", "plots.svg", None),
    ]
    for module, attr, name, work in spans:
        tracer.wrap(module, attr, name, work)


# (metric, unit, span, figure); figure is "calls", "self" or "work" per op,
# or a per-unit ratio "self/calls" or "self/work" scaled by the unit.
METRICS = [
    ("profiles.theta_profile.calls", "count", "profiles.theta_profile", "calls"),
    ("profiles.theta_profile.self_s", "s", "profiles.theta_profile", "self"),
    ("designer.design_pulse.self_s", "s", "designer.design_pulse", "self"),
    ("designer.rhs.calls", "count", "designer.rhs", "calls"),
    ("designer.rhs.self_us", "us", "designer.rhs", "self/calls"),
    ("designer.diagnostics.self_s", "s", "designer.diagnostics", "self"),
    ("dynamics.final_states.calls", "count", "dynamics.final_states", "calls"),
    ("dynamics.final_states.self_s", "s", "dynamics.final_states", "self"),
    ("dynamics.final_states.ns_per_point_step", "ns", "dynamics.final_states",
     "self/work"),
    ("dynamics.propagate.calls", "count", "dynamics.propagate", "calls"),
    ("dynamics.propagate.self_s", "s", "dynamics.propagate", "self"),
    ("dynamics.propagate.ns_per_step", "ns", "dynamics.propagate", "self/work"),
    ("robustness.scan_1d.self_s", "s", "robustness.scan_1d", "self"),
    ("robustness.summary.self_s", "s", "robustness.summary", "self"),
    ("pulse_io.write_pulse.self_s", "s", "pulse_io.write_pulse", "self"),
    ("pulse_io.write_pulse.bytes", "B", "pulse_io.write_pulse", "work"),
    ("pulse_io.read_pulse.self_s", "s", "pulse_io.read_pulse", "self"),
    ("pulse_io.read_pulse.bytes", "B", "pulse_io.read_pulse", "work"),
    ("pulse_io.write_scan.self_s", "s", "pulse_io.write_scan", "self"),
    ("pulse_io.write_trajectory.self_s", "s", "pulse_io.write_trajectory",
     "self"),
    ("pulse_io.write_trajectory.bytes", "B", "pulse_io.write_trajectory",
     "work"),
    ("plots.svg.self_s", "s", "plots.svg", "self"),
    ("cli.self_s", "s", "cli", "self"),
]

_SCALE = {"s": 1.0, "us": 1e6, "ns": 1e9}


def layer_metrics(totals, n_ops):
    """Per-layer metrics from span totals over n_ops traced operations.

    totals maps a span name to summed (calls, self seconds, work).  Per-op
    figures are means over the traced operations; per-unit figures divide
    summed self time by summed calls or work.  dynamics.step_applications is
    computed from the call arguments (batch x (n-1) x substeps), not counted.
    """
    out = {}
    for metric, unit, span, figure in METRICS:
        calls, self_s, work = totals.get(span, (0.0, 0.0, 0.0))
        if figure == "calls":
            value = calls / n_ops
        elif figure == "self":
            value = self_s / n_ops
        elif figure == "work":
            value = work / n_ops
        else:
            base = calls if figure == "self/calls" else work
            value = self_s * _SCALE[unit] / base if base else 0.0
        out[metric] = {"value": value, "unit": unit}
    steps = sum(totals.get(span, (0.0, 0.0, 0.0))[2]
                for span in ("dynamics.final_states", "dynamics.propagate"))
    out["dynamics.step_applications"] = {"value": steps / n_ops,
                                         "unit": "count"}
    return out
