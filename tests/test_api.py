"""The public surface: the package's exported names, which the README
lists, and the functions the traced benchmark run wraps (bench/layers.py),
which must keep existing under the names it looks them up by."""

import importlib
import inspect
import json
import pkgutil
import re
import runpy
from pathlib import Path

import numpy as np

import qiepulse

PUBLIC_NAMES = [
    "AngleTrajectory", "DesignError", "DesignParams", "ErrorGrid",
    "ParameterError", "Pulse", "PulseFormatError", "QiePulseError",
    "RunConfig", "ScanResult", "StateTrajectory", "TargetState",
    "__version__", "analytic_diagnostics", "bloch_from_state",
    "design_pulse", "fidelity", "format_summary", "ket1",
    "parse_config", "pi_half_baseline", "propagate", "read_pulse_csv",
    "robustness_summary", "scan_1d", "target_state", "theta_profile",
    "write_pulse_csv", "write_scan_csv", "write_trajectory_csv",
]

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
SPANS = ROOT / "bench" / "spans.py"


def test_public_names_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(qiepulse.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qiepulse, name), name


def test_readme_names_every_public_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in qiepulse.__all__ if f"`{name}`" not in readme]
    assert not missing, f"README.md does not name {missing}"


def test_readme_names_only_existing_errors():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(\w*Error)`", readme))
    assert named, "README.md names no error class"
    stale = sorted(named - set(qiepulse.errors.__all__))
    assert not stale, f"README.md names {stale}, which qiepulse.errors lacks"


def test_readme_names_only_existing_private_names():
    # `_name`, `module._name` or `module._name(...)`: a bare name may be in
    # any module of the package
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`((?:\w+\.)*_\w+)[`(]", readme))
    assert named, "README.md names no private name"
    modules = {"qiepulse": qiepulse}
    for info in pkgutil.iter_modules(qiepulse.__path__):
        module = importlib.import_module(f"qiepulse.{info.name}")
        modules[info.name] = modules[module.__name__] = module
    stale = []
    for name in sorted(named):
        owner, _, attr = name.rpartition(".")
        owners = [modules.get(owner)] if owner else modules.values()
        if not any(hasattr(module, attr) for module in owners):
            stale.append(name)
    assert not stale, f"README.md names {stale}, which no qiepulse module has"


class ProbeTracer:
    """Stands in for the benchmark's tracer: checks each wrapped name and
    wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, work):
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} ({name})"
        self.wrapped.append(f"{module.__name__}.{attr}")


def test_benchmark_layer_names_exist():
    probe = ProbeTracer()
    runpy.run_path(str(LAYERS))["install"](probe)
    assert "qiepulse.cli.propagate" in probe.wrapped
    assert "qiepulse.robustness.final_states_over_errors" in probe.wrapped


def test_benchmark_tracer_installs_and_restores():
    # the traced run's own tracer wraps the layers, records a call, and
    # puts every function back
    import qiepulse.cli as cli
    import qiepulse.designer as designer
    import qiepulse.pulse_io as pulse_io
    import qiepulse.robustness as robustness

    modules = (cli, designer, pulse_io, robustness)
    before = [dict(vars(module)) for module in modules]
    tracer = runpy.run_path(str(SPANS))["Tracer"]()
    try:
        runpy.run_path(str(LAYERS))["install"](tracer)
        designer.theta_profile(0.0, 1.0)
        assert len(tracer) == 1
    finally:
        tracer.restore()
    for module, names in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in names.items())


def test_work_figure_counts_the_kept_exponentials(monkeypatch):
    # bench/layers.py counts (pulse.omega.size - 1) x substeps exponentials
    # per row from the arguments named pulse and substeps: for a pulse with
    # no zero-field interval at 1, 2 and 3 steps per interval, and for a
    # report drive (dynamics._Steps, its leading identity slot dropped),
    # that is the count of steps _bounded keeps, the tail both take
    import qiepulse.dynamics as dynamics
    from qiepulse.robustness import _drive

    kept, bounded = [], dynamics._bounded

    def counted(steps, mono):
        kept.append(np.count_nonzero(steps.keep))
        return bounded(steps, mono)

    monkeypatch.setattr(dynamics, "_bounded", counted)
    figure = runpy.run_path(str(LAYERS))["_propagate_steps"]
    pulse, trajectory = qiepulse.design_pulse(
        qiepulse.DesignParams(c=0.073, n_samples=101))
    assert np.all((pulse.omega != 0.0) | (pulse.delta != 0.0))
    drive = _drive(2.0 * 0.073 * -1, trajectory.x0, trajectory.x_f, 128)
    assert not drive.coef[..., 0].any() and drive.coef[..., 1:].any(axis=(0, 1)).all()
    for run, names in ((dynamics.final_states_over_errors,
                        {"pulse", "substeps", "scale_omega"}),
                       (dynamics.propagate, {"pulse", "substeps"})):
        assert names <= set(inspect.signature(run).parameters)
    for given, substeps in [(pulse, 1), (pulse, 2), (pulse, 3), (drive, 1)]:
        kept.clear()
        dynamics.final_states_over_errors(given, qiepulse.ket1(), [1.0, 1.1],
                                          [1.0, 0.9], substeps)
        if given is pulse:  # propagate takes pulses only
            qiepulse.propagate(given, substeps=substeps)
        work = figure({"pulse": given, "substeps": substeps})
        assert kept == [work] * (1 + (given is pulse))


def test_traced_report_counts_the_exponentials(tmp_path, monkeypatch, capsys):
    # a small report with every benchmark layer wrapped exits 0, calls
    # final_states_over_errors 9 times (two scans of each of the 4 designs,
    # and the baseline's), and each call's work figure is its rows times
    # the exponentials the kernel applied to each: the steps _bounded
    # keeps, for a pulse's fields and a drive's coefficients alike, times
    # the size of a term's scale, one per row; a design's scans take 128
    # and 64 exponentials a row, the baseline's 100-interval pulse 100
    import qiepulse.cli as cli
    import qiepulse.dynamics as dynamics

    applied, bounded = [], dynamics._bounded

    def counted(steps, mono):
        applied.append(mono.shape[2] * np.count_nonzero(steps.keep))
        return bounded(steps, mono)

    monkeypatch.setattr(dynamics, "_bounded", counted)
    grid = {"lo": -0.5, "hi": 0.5, "n_points": 21}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "design": {"c": 0.073, "n_samples": 401}, "rabi_grid": grid,
        "detuning_grid": grid, "output_dir": str(tmp_path / "out")}))
    tracer = runpy.run_path(str(SPANS))["Tracer"]()
    try:
        runpy.run_path(str(LAYERS))["install"](tracer)
        assert cli.main(["report", "--config", str(config)]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    span = tracer.names.index("dynamics.final_states")
    work = [w for w, n in zip(tracer.work, tracer.name_id) if n == span]
    assert len(work) == 9
    assert work == applied == [42 * 128, 42 * 64] * 4 + [21 * 100]
    # the writers' layers see the writers: the four pulse files' bytes and
    # the eight scan files
    names = [tracer.names[n] for n in tracer.name_id]
    pulse_work = [w for w, name in zip(tracer.work, names)
                  if name == "pulse_io.write_pulse"]
    assert len(pulse_work) == 4
    files = (tmp_path / "out").glob("pulse_c*.csv")
    assert sum(pulse_work) == sum(path.stat().st_size for path in files)
    assert names.count("pulse_io.write_scan") == 8
