"""The benchmark's workloads: inputs made from a seed, one operation, and
the checks every operation's output must pass.

A workload object has five steps.  generate() makes the input files and is
the timed part of set-up.  prepare() computes check references and runs the
once-per-run checks.  before_op(i), untimed, draws op i's input from the
seed and clears the previous op's outputs.  op(i) is the timed operation.  check(i) returns the list of
failed checks for op i.  Op 1 repeats op 0's input (report: every op
does), and its outputs must be bit-identical to op 0's.
"""

import hashlib
import io
import json
import math
import random
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import qiepulse.cli as cli
import qiepulse.designer as designer
from qiepulse.designer import DesignParams
from qiepulse.dynamics import TargetState, fidelity, propagate
from qiepulse.pulse_io import read_pulse_csv, write_pulse_csv

REPORT_CS = (0.073, 0.060, 0.050, 0.040)
F_NOMINAL_MIN = 0.9999      # acceptance criterion 3
RESIDUAL_SHARE = 1e-3       # residual <= 1e-3 * c, acceptance criterion 2
EXACT_TOL = 1e-12
SWEEP_C = (0.03, 0.10)
SWEEP_STRATA = 10
FILES_CS = (0.073, 0.040)
FILES_ERROR = 0.3

# Input sizes: the full benchmark, and the tiny inputs of the self-test.
SIZES = {
    "full": {"report_n": 4001, "report_points": 101, "sweep_n": 4001,
             "files_n": 16001, "files_points": 501},
    "fast": {"report_n": 4001, "report_points": 11, "sweep_n": 401,
             "files_n": 801, "files_points": 51},
}


def read_csv(path):
    """(metadata, header, rows) of a qiepulse CSV, parsed independently of
    the package's own reader."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, np.array(rows, dtype=float)


def digest(paths):
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


def fingerprint(*values):
    """Bit-level digest of arrays and float scalars."""
    h = hashlib.sha256()
    for v in values:
        arr = np.ascontiguousarray(v, dtype=float)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_cli(argv):
    """qiepulse.cli.main in-process with its stdout swallowed."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def nominal_fidelity(rows):
    at_zero = rows[:, 0] == 0.0
    return rows[at_zero, 1][0] if np.any(at_zero) else math.nan


class Workload:
    run_checks = 0  # once-per-run checks, counted as one more attempted op

    def __init__(self, work_dir, seed, size):
        self.dir = Path(work_dir)
        self.seed = seed
        self.size = SIZES[size]
        self.first = None  # op 0's output fingerprint
        self.dir.mkdir(parents=True, exist_ok=True)

    def generate(self):
        pass

    def prepare(self):
        return []

    def repeats_op0(self, i):
        return i == 1

    def repeat_check(self, i, fp):
        """Op 0 stores its output fingerprint; every op that repeats op 0's
        input must reproduce it bit for bit."""
        if i == 0:
            self.first = fp
        elif self.repeats_op0(i) and fp != self.first:
            return ["repeat of op 0's input is not bit-identical"]
        return []


class Report(Workload):
    """qiepulse report at the shipped defaults, plots on.  The seed does not
    enter: the report's inputs are fixed, so every op repeats op 0."""

    name = "report"

    def generate(self):
        n = self.size["report_points"]
        grid = {"lo": -0.5, "hi": 0.5, "n_points": n}
        self.out = self.dir / "report_out"
        self.config = self.dir / "report.json"
        self.config.write_text(json.dumps({
            "design": {"c": 0.073, "n_samples": self.size["report_n"]},
            "rabi_grid": grid,
            "detuning_grid": grid,
            "output_dir": str(self.out),
            "emit_plots": True,
        }), encoding="utf-8")

    def repeats_op0(self, i):
        return i > 0

    def before_op(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i):
        self.code = run_cli(["report", "--config", str(self.config)])

    def check(self, i):
        if self.code != 0:
            return [f"report exit code {self.code}"]
        failures = []
        expected = ["summary.txt"]
        for c in REPORT_CS:
            expected.append(f"pulse_c{c:g}.csv")
            expected += [f"scan_c{c:g}_{p}.csv" for p in ("rabi", "detuning")]
        missing = [f for f in expected if not (self.out / f).is_file()]
        if missing:
            return [f"missing outputs: {', '.join(missing)}"]
        for c in REPORT_CS:
            meta, _, _ = read_csv(self.out / f"pulse_c{c:g}.csv")
            residual = float(meta["adiabaticity_residual"])
            if not residual <= RESIDUAL_SHARE * c:
                failures.append(f"c={c:g}: residual {residual:.3e}")
            for p in ("rabi", "detuning"):
                _, _, rows = read_csv(self.out / f"scan_c{c:g}_{p}.csv")
                f0 = nominal_fidelity(rows)
                if not f0 >= F_NOMINAL_MIN:
                    failures.append(f"c={c:g} {p}: F(0) = {f0!r}")
        files = sorted(p for p in self.out.iterdir() if p.is_file())
        return failures + self.repeat_check(i, digest(files))


class DesignSweep(Workload):
    """design_pulse over seeded c values, no I/O and no propagation.

    c is uniform in [0.03, 0.10], stratified: each block of ten ops takes one
    value from each tenth of the interval, in seeded order, so the mix of
    cheap and costly designs varies little from seed to seed.
    """

    name = "design_sweep"

    def before_op(self, i):
        """c of op i: op 1 repeats op 0, then block b of ten ops takes one
        value from each tenth of the interval, shuffled by Random(seed:b)."""
        b, k = divmod(max(i - 1, 0), SWEEP_STRATA)
        rng = random.Random(f"{self.seed}:{b}")
        lo, hi = SWEEP_C
        width = (hi - lo) / SWEEP_STRATA
        block = [lo + (j + rng.random()) * width for j in range(SWEEP_STRATA)]
        rng.shuffle(block)
        self.c = block[k]

    def op(self, i):
        params = DesignParams(c=self.c, n_samples=self.size["sweep_n"])
        self.result = designer.design_pulse(params)

    def check(self, i):
        pulse, traj = self.result
        c = self.c
        failures = []
        if not pulse.adiabaticity_residual <= RESIDUAL_SHARE * c:
            failures.append(
                f"c={c!r}: residual {pulse.adiabaticity_residual:.3e}")
        if traj.beta[0] != 0.5 * np.pi:
            failures.append(f"c={c!r}: beta[0] = {traj.beta[0]!r}")
        fields = (pulse.omega, pulse.delta, traj.beta, traj.beta_dot,
                  traj.theta.theta, traj.theta.theta_dot,
                  traj.theta.theta_ddot,
                  [pulse.area, pulse.beta_final, pulse.adiabaticity_residual])
        if not all(np.all(np.isfinite(f)) for f in fields):
            failures.append(f"c={c!r}: non-finite output")
        return failures + self.repeat_check(i, fingerprint(*fields))


class PulseFiles(Workload):
    """CLI simulate then scan on 16001-sample pulse files; no designer."""

    name = "pulse_files"
    run_checks = 1

    def generate(self):
        n = self.size["files_n"]
        self.files = []
        for c in FILES_CS:
            pulse, traj = designer.design_pulse(DesignParams(c=c, n_samples=n))
            path = self.dir / f"pulse_c{c:g}.csv"
            write_pulse_csv(pulse, traj, path)
            self.files.append(path)
        self.traj_out = self.dir / "trajectory.csv"
        self.scan_out = self.dir / "scan.csv"

    def _range(self):
        return f"--range=-0.5:0.5:{self.size['files_points']}"

    def prepare(self):
        """F(0, 0) of every file by direct propagation, and the closed-form
        scan of a flat pi/2 pulse, F = (1 + sin((1 + d) pi/2)) / 2."""
        self.f_nominal = {}
        for path in self.files:
            pulse = read_pulse_csv(path)
            final = propagate(pulse).states[-1]
            self.f_nominal[path] = fidelity(final,
                                            TargetState(pulse.beta_final))
        flat = self.dir / "flat_pi2.csv"
        flat_scan = self.dir / "flat_pi2_scan.csv"
        codes = (run_cli(["baseline", "pi2", "--out", str(flat)]),
                 run_cli(["scan", "--pulse", str(flat), "--param", "rabi",
                          self._range(), "--out", str(flat_scan)]))
        if codes != (0, 0):
            return [f"flat pi/2 scan exit codes {codes}"]
        _, _, rows = read_csv(flat_scan)
        exact = 0.5 * (1.0 + np.sin((1.0 + rows[:, 0]) * 0.5 * np.pi))
        err = float(np.max(np.abs(rows[:, 1] - exact)))
        if not err <= EXACT_TOL:
            return [f"flat pi/2 scan off the closed form by {err:.3e}"]
        return []

    def before_op(self, i):
        """Input of op i: op 1 repeats op 0; then the files alternate, the
        scan parameter alternates every two ops, and (d_omega, d_delta)
        comes from Random(seed:j)."""
        j = max(i - 1, 0)
        rng = random.Random(f"{self.seed}:{j}")
        self.input = (
            self.files[j % len(self.files)],
            ("rabi", "detuning")[j // len(self.files) % 2],
            (rng.uniform(-FILES_ERROR, FILES_ERROR),
             rng.uniform(-FILES_ERROR, FILES_ERROR)),
        )
        for p in (self.traj_out, self.scan_out):
            p.unlink(missing_ok=True)

    def op(self, i):
        path, param, (d_om, d_de) = self.input
        self.codes = (
            run_cli(["simulate", "--pulse", str(path),
                     f"--delta-omega={d_om!r}", f"--delta-delta={d_de!r}",
                     "--out", str(self.traj_out)]),
            run_cli(["scan", "--pulse", str(path), "--param", param,
                     self._range(), "--out", str(self.scan_out)]),
        )

    def check(self, i):
        if self.codes != (0, 0):
            return [f"simulate/scan exit codes {self.codes}"]
        path = self.input[0]
        failures = []
        _, header, traj = read_csv(self.traj_out)
        if not np.all(np.isfinite(traj)):
            failures.append("non-finite trajectory value")
        pop = traj[:, header.index("pop1")] + traj[:, header.index("pop2")]
        drift = float(np.max(np.abs(pop - 1.0)))
        if not drift <= EXACT_TOL:
            failures.append(f"|pop1 + pop2 - 1| = {drift:.3e}")
        _, _, scan = read_csv(self.scan_out)
        f0 = nominal_fidelity(scan)
        if not abs(f0 - self.f_nominal[path]) <= EXACT_TOL:
            failures.append(
                f"scan F(0) {f0!r} != propagate F {self.f_nominal[path]!r}")
        return failures + self.repeat_check(
            i, digest([self.traj_out, self.scan_out]))


WORKLOADS = {w.name: w for w in (Report, DesignSweep, PulseFiles)}
