import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import qiepulse
import qiepulse.designer as designer
from qiepulse import (
    DesignError,
    DesignParams,
    ErrorGrid,
    ParameterError,
    PulseFormatError,
    QiePulseError,
    TargetState,
    cli,
    errors,
    read_pulse_csv,
    scan_1d,
    write_pulse_csv,
)
from qiepulse.cli import exit_code_for, main
from qiepulse.designer import MAX_SAMPLES
from qiepulse.robustness import _scan

from conftest import sigma_drive

# 728 TiB of float samples: past MAX_SAMPLES, and far past anything numpy
# could allocate, so a size that reached an allocation would not exit 2
HUGE = 100000000000000

EXTERNAL_CSV = """t,omega,delta
0.0,1.0,0.0
0.25,2.0,0.0
0.5,3.0,0.0
0.75,2.0,0.0
1.0,1.0,0.0
"""

NON_FINITE_CSV = """t,omega,delta
0.0,1.0,0.0
0.5,{},0.0
1.0,1.0,0.0
"""

# small fields over spacings that make -Omega dt/4 of a sub-step 2.1e307
# and 1.25e339 (inf): past the kernel's 1e150 bound
OVERFLOWING_CSVS = ["t,omega,delta\n-1.7e308,1,0\n0,1,0\n1.7e308,1,0\n",
                    "t,omega,delta\n0,1e140,0\n1e200,1e140,0\n2e200,1e140,0\n"]

# a zero-field interval 2e308 wide (inf in floats), then a weak field
ZERO_FIELD_WIDE_CSV = "t,omega,delta\n-1e308,0,0\n1e308,0,0\n1.5e308,1e-300,0\n"

REPEATED_TIME_CSV = """t,omega,delta
0.0,1.0,0.0
0.5,1.0,0.0
0.5,1.0,0.0
1.0,1.0,0.0
"""


def _design(*flags):
    return [["design", "--n", "401", *flags, "--out", "{out}/p.csv"]]


# extreme but well-formed calls, each a sequence of argvs; {pulse} is the
# 4001-sample c = 0.073 design's file, {out} a fresh directory
EXTREME_CALLS = (
    [_design("--c", c) for c in ("1e-300", "1e152", "1e153", "1.7e308")]
    + [_design("--c", "0.073", "--T", T) for T in ("1e-300", "1e300",
                                                   "1.7e308")]
    + [_design("--c", "0.073", "--kappa", kappa) for kappa in ("5.93",
                                                               "1e300")]
    + [[["scan", "--pulse", "{pulse}", "--param", parameter,
         f"--range={span}", "--out", "{out}/s.csv"]]
       for parameter in ("rabi", "detuning")
       for span in ("-1e308:1e308:3", "1e308:1.7e308:3", "0:1e300:3")]
    + [[["baseline", "pi2", "--duration", duration, "--out", "{out}/b.csv"],
        ["scan", "--pulse", "{out}/b.csv", "--param", "rabi",
         "--out", "{out}/s.csv"],
        ["simulate", "--pulse", "{out}/b.csv", "--out", "{out}/t.csv"]]
       for duration in ("1e-300", "1.7e308")]
    + [[["simulate", "--pulse", "{pulse}", "--delta-omega", error,
         "--out", "{out}/t.csv"]] for error in ("1e308", "-2")]
)


@pytest.fixture(scope="module")
def report_21(tmp_path_factory):
    """The output directory of a report at n = 401 with 21-point grids on
    [-0.5, 0.5] for both parameters."""
    out_dir = tmp_path_factory.mktemp("report") / "out"
    config_path = out_dir.parent / "run.json"
    grid = {"lo": -0.5, "hi": 0.5, "n_points": 21}
    config_path.write_text(json.dumps({
        "design": {"c": 0.073, "n_samples": 401}, "rabi_grid": grid,
        "detuning_grid": grid, "output_dir": str(out_dir)}))
    assert main(["report", "--config", str(config_path)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def pulse_file(tmp_path_factory, designs4):
    pulse, trajectory = designs4[0.073]
    path = tmp_path_factory.mktemp("cli") / "pulse.csv"
    write_pulse_csv(pulse, trajectory, path)
    return path


class TestExitCodes:
    def test_mapping(self):
        # one class per exit code: the non-base classes map one-to-one
        # onto {2, 3, 4}
        codes = {name: exit_code_for(getattr(errors, name)("x"))
                 for name in errors.__all__ if name != "QiePulseError"}
        assert sorted(codes.values()) == [2, 3, 4], codes
        assert exit_code_for(ParameterError("x")) == 2
        assert exit_code_for(DesignError("x")) == 3
        assert exit_code_for(PulseFormatError("x")) == 4
        assert exit_code_for(OSError("x")) == 4
        for name in codes:
            assert issubclass(getattr(errors, name), QiePulseError), name

    def test_unexpected_exception_reraised(self):
        with pytest.raises(KeyError):
            exit_code_for(KeyError("boom"))

    def test_unexpected_exception_escapes_main(self, monkeypatch, tmp_path,
                                               capsys):
        # a ValueError is the base of two mapped classes, not one of them
        def broken(args):
            raise ValueError("not a qiepulse error")

        monkeypatch.setattr(cli, "_cmd_baseline", broken)
        with pytest.raises(ValueError, match="not a qiepulse error"):
            main(["baseline", "pi2", "--out", str(tmp_path / "b.csv")])
        assert capsys.readouterr().err == ""

    def test_usage_error(self, capsys):
        assert main(["design"]) == 2  # missing required arguments
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_module_runs_the_cli(self, tmp_path):
        # python -m qiepulse runs main in a fresh interpreter and exits
        # with its code: 0 with the version and for a baseline file, 2 on
        # a bad --range for a scan of that file
        src = Path(qiepulse.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "qiepulse", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=tmp_path, timeout=60)

        done = run("--version")
        assert (done.returncode, done.stdout) == (0, "0.1.0\n")
        assert run("baseline", "pi2", "--out", "p.csv").returncode == 0
        done = run("scan", "--pulse", "p.csv", "--param", "rabi",
                   "--range", "0:1", "--out", "s.csv")
        assert done.returncode == 2
        assert done.stderr == "error: range must be lo:hi:n, got '0:1'\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("calls", EXTREME_CALLS, ids=[
        " + ".join(" ".join(a for a in argv if "{" not in a and a not in
                            ("--out", "--pulse")) for argv in calls)
        for calls in EXTREME_CALLS])
    def test_extreme_calls_exit_with_a_documented_code(self, calls,
                                                       pulse_file, tmp_path,
                                                       capsys):
        # the exit-code contract at the edges of the float range: 0, or a
        # single error line and 2, 3 or 4; no exception escapes main, and
        # no RuntimeWarning is printed
        for argv in calls:
            argv = [a.format(pulse=pulse_file, out=tmp_path) for a in argv]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1


class TestDesignCommand:
    def test_design_reports_endpoints(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["design", "--c", "0.073", "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert "area = 1.959491 pi" in printed.out
        assert "beta_final = -0.079746 pi" in printed.out
        assert printed.err == ""  # the residual, 6.5e-10 c, warns of nothing
        assert out.exists()

    def test_residual_over_the_bound_warns(self, tmp_path, capsys):
        # at kappa = 5.9 the c = 0.10 design returns with a residual of
        # 4.9e-3 c, over criterion 2's 1e-3 c: one warning line on stderr,
        # and the exit code, stdout and file of any returned design
        out = tmp_path / "p.csv"
        assert main(["design", "--c", "0.1", "--kappa", "5.9", "--n", "401",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert printed.err == ("warning: c = 0.1: adiabaticity residual "
                               "4.935e-04 exceeds the bound 0.001 c = "
                               "1.000e-04\n")
        pulse, trajectory = designer.design_pulse(designer.DesignParams(
            c=0.1, kappa=5.9, n_samples=401))
        assert pulse.adiabaticity_residual > cli.RESIDUAL_SHARE * 0.1
        assert printed.out == (
            f"area = {pulse.area / np.pi:.6f} pi\n"
            f"beta_final = {pulse.beta_final / np.pi:.6f} pi\n"
            f"adiabaticity residual = {pulse.adiabaticity_residual:.3e}\n")
        expected = tmp_path / "expected.csv"
        write_pulse_csv(pulse, trajectory, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_large_T_designs(self, tmp_path, capsys):
        # T is the unit of time: at T = 1e9 the endpoints are those at T = 1
        out = tmp_path / "p.csv"
        assert main(["design", "--c", "0.073", "--T", "1e9",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "area = 1.959491 pi" in printed
        assert "beta_final = -0.079746 pi" in printed

    def test_invalid_c_is_argument_error(self, tmp_path, capsys):
        rc = main(["design", "--c", "-1", "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "c must be positive" in capsys.readouterr().err

    def test_non_finite_params_are_argument_errors(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        for flag, value in (("--c", "inf"), ("--T", "inf"),
                            ("--kappa", "inf")):
            args = ["design", "--c", "0.073", flag, value, "--out", str(out)]
            assert main(args) == 2
            assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["1e153", "1e200", "1.7e308"])
    def test_huge_c_is_numerical_error(self, c, tmp_path, capsys):
        # the stepper's first step cannot be taken: dx/ds overflows its
        # norm (it once divided by the zero step)
        out = tmp_path / "p.csv"
        assert main(["design", "--c", c, "--n", "401", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: c = {float(c):g} (T = 1): constrained integration "
            f"failed at t = -4: Required step size is less than spacing "
            f"between numbers.\n")
        assert not out.exists()

    def test_design_failure_is_numerical_error(self, tmp_path, capsys):
        rc = main(["design", "--c", "1.0", "--n", "401",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert "the mixing angle x left (0, pi)" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["6", "7"])
    def test_theta_zero_at_the_start_is_numerical_error(self, kappa, tmp_path,
                                                        capsys):
        out = tmp_path / "p.csv"
        rc = main(["design", "--c", "0.073", "--kappa", kappa, "--n", "401",
                   "--out", str(out)])
        assert rc == 3
        assert (f"constrained integration failed at t = -{kappa}: theta "
                f"rounds to 0 at the window start (kappa = {kappa})"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_kappa_5_9_designs(self, tmp_path, capsys):
        # c = 0.10 designs its kappa = 4 area; at c = 0.073 a sample in the
        # bounce has beta below 0, which is not the window's failure
        out = tmp_path / "p.csv"
        assert main(["design", "--c", "0.1", "--kappa", "5.9", "--n", "401",
                     "--out", str(out)]) == 0
        assert "area = 1.809157 pi" in capsys.readouterr().out
        assert out.exists()
        out = tmp_path / "q.csv"
        assert main(["design", "--c", "0.073", "--kappa", "5.9", "--n", "401",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("c = 0.073 (T = 1): constrained integration failed at "
                "t = 0.138916: beta left (0, pi), at -" in err)
        assert "theta rounds to 0" not in err
        assert not out.exists()

    def test_vanishing_sin_beta_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main(["design", "--c", "0.0489", "--kappa", "5.5", "--branch",
                   "1", "--n", "401", "--out", str(out)])
        assert rc == 3
        assert ("c = 0.0489 (T = 1): constrained integration failed at "
                "t = -0.198721: beta left (0, pi), at 1.0000000000000"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_step_budget_is_numerical_error(self, monkeypatch, tmp_path,
                                            capsys):
        # c = 0.073 takes about 270 accepted steps
        monkeypatch.setattr(designer, "MAX_STEPS", 100)
        out = tmp_path / "p.csv"
        rc = main(["design", "--c", "0.073", "--n", "401", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "c = 0.073 (T = 1): constrained integration failed at t = " in err
        assert "no end after 100 accepted steps" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_simulate_designed_pulse(self, pulse_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--pulse", str(pulse_file),
                   "--out", str(out)])
        assert rc == 0
        assert "final populations:" in capsys.readouterr().out
        assert out.read_text().splitlines()[:2] == [
            "# sampling = pulse samples, linear, magnus4, substeps 1",
            "t,pop1,pop2,u,v,w,p_minus,p_plus"]

    def test_missing_pulse_file(self, tmp_path, capsys):
        rc = main(["simulate", "--pulse", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "traj.csv")])
        assert rc == 4
        capsys.readouterr()

    def test_non_finite_pulse_is_format_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        out = tmp_path / "traj.csv"
        for value in ("nan", "inf"):
            pulse.write_text(NON_FINITE_CSV.format(value))
            rc = main(["simulate", "--pulse", str(pulse), "--out", str(out)])
            assert rc == 4
            assert "line 3" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_time_is_argument_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        out = tmp_path / "traj.csv"
        pulse.write_text(REPEATED_TIME_CSV)
        rc = main(["simulate", "--pulse", str(pulse), "--out", str(out)])
        assert rc == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_metadata_is_format_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        out = tmp_path / "traj.csv"
        for key in ("area", "beta_final", "adiabaticity_residual"):
            pulse.write_text(f"# {key} = abc\n" + EXTERNAL_CSV)
            rc = main(["simulate", "--pulse", str(pulse), "--out", str(out)])
            assert rc == 4
            assert f"metadata {key} is not a number" in (
                capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("text", OVERFLOWING_CSVS)
    def test_overflowing_step_is_argument_error(self, text, tmp_path, capsys):
        pulse = tmp_path / "wide.csv"
        out = tmp_path / "traj.csv"
        pulse.write_text(text)
        rc = main(["simulate", "--pulse", str(pulse), "--out", str(out)])
        assert rc == 2
        assert "scaled omega exceeds 1e150" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_error_is_argument_error(self, pulse_file, tmp_path,
                                                capsys):
        out = tmp_path / "traj.csv"
        for flag, value in (("--delta-omega", "nan"),
                            ("--delta-delta", "inf")):
            rc = main(["simulate", "--pulse", str(pulse_file), flag, value,
                       "--out", str(out)])
            assert rc == 2
            assert "error must be finite" in capsys.readouterr().err
            assert not out.exists()


class TestScanCommand:
    def test_scan_designed_pulse(self, pulse_file, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--range=-0.2:0.2:5", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        rows = lines[lines.index("delta,fidelity") + 1:]
        assert len(rows) == 5

    def test_every_scan_csv_names_its_sampling(self, tmp_path, capsys):
        # a report scans each design's drive in sigma by M6; `scan` and
        # `simulate` take a pulse file's samples, linearly interpolated, at
        # their M4 intervals per sample interval
        config = tmp_path / "run.json"
        grid = {"lo": -0.1, "hi": 0.1, "n_points": 3}
        config.write_text(json.dumps({
            "design": {"c": 0.073, "n_samples": 401}, "rabi_grid": grid,
            "detuning_grid": grid, "output_dir": str(tmp_path)}))
        assert main(["report", "--config", str(config)]) == 0
        scans = sorted(tmp_path.glob("scan_c*.csv"))
        assert len(scans) == 8
        for path in scans:
            assert path.read_text().splitlines()[4] == (
                "# sampling = sigma-uniform magnus6, 128 intervals")
        for substeps in (2, 3):
            out = tmp_path / f"file_scan_{substeps}.csv"
            assert main(["scan", "--pulse", str(tmp_path / "pulse_c0.073.csv"),
                         "--param", "rabi", "--range=-0.1:0.1:3",
                         "--substeps", str(substeps), "--out", str(out)]) == 0
            sampling = f"# sampling = pulse samples, linear, magnus4, substeps {substeps}"
            assert out.read_text().splitlines()[4:6] == [sampling,
                                                         "delta,fidelity"]
            out = tmp_path / f"trajectory_{substeps}.csv"
            assert main(["simulate", "--pulse", str(tmp_path / "pulse_c0.073.csv"),
                         "--substeps", str(substeps), "--out", str(out)]) == 0
            assert out.read_text().splitlines()[0] == sampling
        capsys.readouterr()

    def test_file_scan_matches_an_independent_reference(self, report_21,
                                                        tmp_path, capsys):
        # at the default substeps, both scans of a 401-sample designed file
        # lie within 2e-8 of its linearly interpolated fields propagated by
        # scipy's expm of the frozen Hamiltonian at the midpoints of 64
        # sub-steps per interval (8e-9 of its own error at most); midpoint
        # sub-steps at 2 per interval were up to 8.5e-6 away, and M4 steps
        # with the sign of their sigma_y field flipped are 2.6e-5 away
        path = report_21 / "pulse_c0.073.csv"
        pulse = read_pulse_csv(path)
        deltas = np.array([-0.5, 0.0, 0.5])
        scans = {}
        for parameter in ("rabi", "detuning"):
            out = tmp_path / f"{parameter}.csv"
            assert main(["scan", "--pulse", str(path), "--param", parameter,
                         "--range=-0.5:0.5:3", "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            rows = lines[lines.index("delta,fidelity") + 1:]
            scans[parameter] = np.array([float(r.split(",")[1]) for r in rows])
        capsys.readouterr()
        # rows: rabi -0.5, 0, 0.5, then detuning -0.5, 0.5
        so = np.r_[1 + deltas, 1.0, 1.0]
        sd = np.r_[1.0, 1.0, 1.0, 1 + deltas[[0, 2]]]
        w = (np.arange(64) + 0.5) / 64
        psi = np.tile([1.0 + 0j, 0.0], (so.size, 1))
        for i in range(pulse.t.size - 1):
            om, de = ((x[i] * (1 - w) + x[i + 1] * w) * scale[:, None]
                      for x, scale in ((pulse.omega, so), (pulse.delta, sd)))
            ham = 0.5 * np.stack([np.stack([-de, om], -1),
                                  np.stack([om, de], -1)], -2)
            for u in np.moveaxis(expm(-1j * (pulse.t[i + 1] - pulse.t[i]) / 64
                                      * ham), 1, 0):
                psi = np.einsum("rij,rj->ri", u, psi)
        target = np.exp(0.5j * pulse.beta_final * np.array([-1, 1])) / np.sqrt(2)
        reference = np.abs(psi @ target.conj()) ** 2
        np.testing.assert_allclose(scans["rabi"], reference[:3], rtol=0, atol=2e-8)
        np.testing.assert_allclose(scans["detuning"], reference[[3, 1, 4]],
                                   rtol=0, atol=2e-8)

    def test_malformed_range(self, pulse_file, tmp_path, capsys):
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--range=-0.2:0.2", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_non_numeric_range(self, pulse_file, tmp_path, capsys):
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--range=a:b:3", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: range must be lo:hi:n, got 'a:b:3'\n"

    def test_non_finite_range_is_argument_error(self, pulse_file, tmp_path,
                                                capsys):
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--range=-inf:0.5:11", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter", ["rabi", "detuning"])
    def test_overflowing_span_is_argument_error(self, parameter, pulse_file,
                                                tmp_path, capsys):
        # finite ends 2e308 apart: one error line naming both, no warning
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["scan", "--pulse", str(pulse_file), "--param",
                       parameter, "--range=-1e308:1e308:3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: need a finite span hi - lo, "
                                           "got [-1e+308, 1e+308]\n")
        assert not out.exists()

    def test_non_finite_beta_final_flag(self, pulse_file, tmp_path, capsys):
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--beta-final", "nan", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "--beta-final must be finite" in capsys.readouterr().err

    def test_external_pulse_needs_target(self, tmp_path, capsys):
        ext = tmp_path / "ext.csv"
        ext.write_text(EXTERNAL_CSV)
        args = ["scan", "--pulse", str(ext), "--param", "detuning",
                "--range=-0.1:0.1:3", "--out", str(tmp_path / "s.csv")]
        assert main(args) == 2  # no beta_final on file, none given
        assert "beta-final" in capsys.readouterr().err
        assert main(args + ["--beta-final", "-1.5707963267948966"]) == 0
        capsys.readouterr()

    def test_zero_field_over_overflowing_width_has_finite_area(self, tmp_path,
                                                               capsys):
        # the first interval's width overflows to inf but holds no field:
        # its area is 0, not 0 x inf = nan
        pulse = tmp_path / "wide.csv"
        out = tmp_path / "s.csv"
        pulse.write_text(ZERO_FIELD_WIDE_CSV)
        rc = main(["scan", "--pulse", str(pulse), "--param", "rabi",
                   "--range=-0.1:0.1:3", "--beta-final", "0", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        area = (1.5e308 - 1e308) * 1e-300 / 2.0
        assert f"# area = {area!r}" in out.read_text().splitlines()

    @pytest.mark.parametrize("text", OVERFLOWING_CSVS)
    def test_overflowing_step_is_argument_error(self, text, tmp_path, capsys):
        pulse = tmp_path / "wide.csv"
        out = tmp_path / "s.csv"
        pulse.write_text(text)
        rc = main(["scan", "--pulse", str(pulse), "--param", "rabi",
                   "--beta-final", "0", "--out", str(out)])
        assert rc == 2
        assert "scaled omega exceeds 1e150" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_pulse_is_format_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        pulse.write_text(NON_FINITE_CSV.format("nan"))
        rc = main(["scan", "--pulse", str(pulse), "--param", "rabi",
                   "--range=-0.1:0.1:3", "--beta-final", "0.0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 4
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_metadata_is_format_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        out = tmp_path / "s.csv"
        pulse.write_text("# beta_final = x\n" + EXTERNAL_CSV)
        rc = main(["scan", "--pulse", str(pulse), "--param", "rabi",
                   "--range=-0.1:0.1:3", "--beta-final", "0.0",
                   "--out", str(out)])
        assert rc == 4
        assert "metadata beta_final is not a number: 'x'" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestBaselineCommand:
    def test_baseline(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        assert main(["baseline", "pi2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "area = 0.500000 pi" in printed
        assert "beta_final = -0.500000 pi" in printed

    def test_non_finite_duration_is_argument_error(self, tmp_path, capsys):
        # at 1e-320, Omega = (pi/2)/duration overflows to inf
        out = tmp_path / "base.csv"
        for duration in ("inf", "1e-320"):
            rc = main(["baseline", "pi2", "--duration", duration,
                       "--out", str(out)])
            assert rc == 2
            assert "duration must be positive and finite" in (
                capsys.readouterr().err)
            assert not out.exists()

    def test_too_few_samples_is_argument_error(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        for n in ("2", "-1"):
            rc = main(["baseline", "pi2", f"--n={n}", "--out", str(out)])
            assert rc == 2
            assert "n_samples must be >= 3" in capsys.readouterr().err
            assert not out.exists()

    def test_unwritable_output_is_io_error(self, capsys):
        rc = main(["baseline", "pi2",
                   "--out", "/nonexistent_dir_for_test/base.csv"])
        assert rc == 4
        capsys.readouterr()


class TestReportCommand:
    def test_report_produces_artifacts(self, tmp_path, capsys, designs4):
        out_dir = tmp_path / "out"
        config = {
            "design": {"c": 0.073, "n_samples": 401},
            "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 5},
            "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 5},
            "output_dir": str(out_dir),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))

        assert main(["report", "--config", str(config_path)]) == 0
        printed = capsys.readouterr()
        assert "reference reproduction summary" in printed.out
        assert printed.err == ""  # every residual within 1e-3 c

        for c in ("0.073", "0.06", "0.05", "0.04"):
            assert (out_dir / f"pulse_c{c}.csv").exists()
            assert (out_dir / f"scan_c{c}_rabi.csv").exists()
            assert (out_dir / f"scan_c{c}_detuning.csv").exists()
        summary = (out_dir / "summary.txt").read_text()
        assert "qie c=0.073 rabi band min" in summary
        # x_f/pi ends each design row: the x_f the design records, which
        # the scans' drive turns to; with x0 ~ pi, the area identity gives
        # cos(x_f) = 2 c area - 1 (to the 4 printed digits)
        lines = summary.splitlines()
        assert lines[2].split()[-1] == "x_f/pi"
        for line, (_, trajectory) in zip(lines[3:7], designs4.values()):
            assert line.split()[-1] == f"{trajectory.x_f / np.pi:.4f}"
            c, area_pi, *_, x_f_pi = map(float, [
                v for v in line.split() if v not in ("yes", "NO")])
            assert math.cos(math.pi * x_f_pi) == pytest.approx(
                2 * c * math.pi * area_pi - 1, abs=1e-3)

    def test_report_warns_of_each_residual_over_the_bound(
            self, tmp_path, capsys, monkeypatch):
        # with the bound below every design's residual (about 1e-10 c),
        # each of the four designs gets its warning line, and stdout and
        # every file are those of the run without
        runs = []
        for share in (cli.RESIDUAL_SHARE, 1e-12):
            monkeypatch.setattr(cli, "RESIDUAL_SHARE", share)
            out_dir = tmp_path / f"out{len(runs)}"
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({
                "design": {"c": 0.073, "n_samples": 401},
                "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "output_dir": str(out_dir)}))
            assert main(["report", "--config", str(config_path)]) == 0
            files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            runs.append((capsys.readouterr(), files))
        (quiet, files), (loud, loud_files) = runs
        assert quiet.err == "" and loud.out == quiet.out
        assert loud_files == files
        lines = loud.err.splitlines()
        assert [line.split(":")[1] for line in lines] == [
            " c = 0.073", " c = 0.06", " c = 0.05", " c = 0.04"]
        assert all(line.startswith("warning: ") and "exceeds the bound 1e-12 c"
                   in line for line in lines)

    def test_pulse_plots_span_the_uniform_samples(self, tmp_path, capsys):
        # the y axis of pulse_c*.svg spans the fields at the uniform design
        # samples, not the refined samples at the top of the Omega spike
        out_dir = tmp_path / "out"
        config = {
            "design": {"c": 0.073, "n_samples": 401},
            "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
            "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
            "output_dir": str(out_dir),
            "emit_plots": True,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["report", "--config", str(config_path)]) == 0
        capsys.readouterr()

        for c in ("0.073", "0.06", "0.05", "0.04"):
            svg = (out_dir / f"pulse_c{c}.svg").read_text()
            y_lo, y_hi = (float(v) for v in
                          re.findall(r'text-anchor="end">([^<]*)</text>', svg))
            pulse = read_pulse_csv(out_dir / f"pulse_c{c}.csv")
            uniform = np.linspace(pulse.t[0], pulse.t[-1], 401)
            keep = np.isclose(pulse.t[:, None], uniform, rtol=0,
                              atol=1e-10).any(axis=1)
            assert np.count_nonzero(keep) == 401 < pulse.t.size
            fields = np.concatenate((pulse.omega[keep], pulse.delta[keep]))
            pad = 0.05 * (fields.max() - fields.min())
            assert y_lo == pytest.approx(fields.min() - pad, rel=5e-3)
            assert y_hi == pytest.approx(fields.max() + pad, rel=5e-3)
            assert max(abs(y_lo), abs(y_hi)) < 1e3

    def test_pulse_plots_draw_the_uniform_samples_at_any_T(self, tmp_path,
                                                           capsys):
        # the uniform samples of a design at T are T times those at T = 1,
        # not a grid rebuilt over the pulse's ends; each field's polyline
        # draws every one of them, in units of T as the axes are labelled:
        # the x axis spans [-kappa, kappa] and the ticks are those at T = 1
        texts = {}
        for T in (1.0, 3.0):
            out_dir = tmp_path / f"out{T:g}"
            config = {
                "design": {"c": 0.073, "T": T, "n_samples": 401},
                "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "output_dir": str(out_dir),
                "emit_plots": True,
            }
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(config))
            assert main(["report", "--config", str(config_path)]) == 0
            capsys.readouterr()
            for c in ("0.073", "0.06", "0.05", "0.04"):
                svg = (out_dir / f"pulse_c{c}.svg").read_text()
                lines = re.findall(r'<polyline points="([^"]*)"', svg)
                assert [len(pts.split()) for pts in lines] == [401, 401]
                texts[T, c] = re.findall(r">([^<>]+)</text>", svg)
                assert texts[T, c][1:3] == ["-4", "4"]  # x_lo, x_hi
                assert texts[T, c] == texts[1.0, c]

    def test_report_scans_the_design_in_sundman_time(self, tmp_path, capsys):
        # the report's scans are of the design's drive in sigma, from its
        # mixing angle's ends, which neither n_samples nor T moves: the scan
        # files keep every byte; each
        # keeps the design's label and area, and names its sampling
        files = {}
        for T, n in ((1.0, 401), (1.0, 4001), (3.0, 401)):
            out_dir = tmp_path / f"out{T:g}_{n}"
            config = {
                "design": {"c": 0.073, "T": T, "n_samples": n},
                "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 21},
                "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 21},
                "output_dir": str(out_dir),
            }
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(config))
            assert main(["report", "--config", str(config_path)]) == 0
            capsys.readouterr()
            files[T, n] = {path.name: path.read_bytes()
                           for path in out_dir.glob("scan_c*.csv")}
            summary = (out_dir / "summary.txt").read_text().splitlines()
            labels = [line[:16].rstrip() for line in summary
                      if line.rsplit(" ", 1)[-1] in ("LR", "L-", "-R", "--")]
            assert labels == [f"qie c={c}" for c in ("0.073", "0.06", "0.05",
                                                     "0.04")
                              for _ in range(2)] + ["pi/2 pulse"]
        assert len(files[1.0, 401]) == 8
        assert files[1.0, 401] == files[1.0, 4001] == files[3.0, 401]
        for c in ("0.073", "0.06", "0.05", "0.04"):
            pulse = read_pulse_csv(tmp_path / f"out1_401/pulse_c{c}.csv")
            for parameter in ("rabi", "detuning"):
                lines = files[1.0, 401][f"scan_c{c}_{parameter}.csv"].decode()
                meta = lines.splitlines()[:6]
                assert meta[0] == f"# protocol = qie c={c}"
                assert meta[2] == f"# area = {pulse.area!r}"
                assert meta[4] == ("# sampling = sigma-uniform magnus6, "
                                   "128 intervals")
                assert 0 < float(meta[5].split(" = ")[1]) < 1e-8

    def test_report_scan_error_estimate(self, tmp_path, capsys):
        # c = 0.073, rabi: the scan is the design's M6 drive at 128
        # uniform intervals of sigma, within 2e-11 of it at 1024 (and of the
        # t-sampled pulse's scan, 9e-5 away, much nearer); the printed
        # estimate max |F128 - F64| / (2^6 - 1) is within 1.5x of that true
        # gap
        out_dir = tmp_path / "out"
        config = {
            "design": {"c": 0.073, "n_samples": 401},
            "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 21},
            "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
            "output_dir": str(out_dir),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["report", "--config", str(config_path)]) == 0
        capsys.readouterr()
        text = (out_dir / "scan_c0.073_rabi.csv").read_text()
        estimate = float(re.search(r"# sampling_error = (\S+)", text)[1])
        fids = np.array([float(line.split(",")[1])
                         for line in text.splitlines()[7:]])

        pulse, trajectory = designer.design_pulse(
            designer.DesignParams(c=0.073))
        grid = ErrorGrid("rabi", -0.5, 0.5, 21)
        target = TargetState(pulse.beta_final)

        def scan(n):
            drive = sigma_drive(pulse, trajectory, n)
            return _scan(pulse, target, [grid], 1, drive=drive)[0].fidelities

        reference = scan(1024)
        sampled = scan_1d(pulse, target, grid).fidelities
        np.testing.assert_allclose(fids, scan(128), rtol=0, atol=1e-12)
        gap = np.max(np.abs(scan(128) - reference))
        assert gap <= 2e-11 and 1e4 * gap < np.max(np.abs(sampled - reference))
        assert gap / 1.5 <= estimate <= 1.5 * gap
        summary = (out_dir / "summary.txt").read_text()
        assert f" 0.073  {estimate:.2e}" in summary

    def test_report_scan_error_estimates(self, report_21, designs4):
        # every report scan, 4 c by 2 parameters, lies within 2e-11 of the
        # design's M6 drive at 1024 uniform intervals of sigma, and the
        # printed estimate max |F128 - F64| / (2^6 - 1) is within 1.5x of
        # that true gap
        grids = [ErrorGrid(parameter, -0.5, 0.5, 21)
                 for parameter in ("rabi", "detuning")]
        summary = (report_21 / "summary.txt").read_text()
        assert ("qie scan sampling: sigma-uniform magnus6, 128 intervals; "
                "estimated error max|F128 - F64|/(2^6 - 1)\n") in summary
        for c, (pulse, trajectory) in designs4.items():
            references = _scan(pulse, TargetState(pulse.beta_final), grids, 1,
                               drive=sigma_drive(pulse, trajectory, 1024))
            estimates = []
            for reference in references:
                text = (report_21 / f"scan_c{c:g}_"
                        f"{reference.grid.parameter}.csv").read_text()
                estimate = float(re.search(r"# sampling_error = (\S+)",
                                           text)[1])
                fids = np.array([float(line.split(",")[1])
                                 for line in text.splitlines()[7:]])
                gap = np.max(np.abs(fids - reference.fidelities))
                assert gap <= 2e-11
                assert gap / 1.5 <= estimate <= 1.5 * gap
                estimates.append(estimate)
            assert f"{c:>6g} {estimates[0]:>9.2e} {estimates[1]:>9.2e}\n" \
                in summary

    def test_report_work_table(self, report_21, designs4):
        # per design: the stepper's work from its Solution, and the
        # exponentials per error row of the scan (128 intervals of sigma)
        # and of the estimate's scan (64), which are the drives' counts;
        # none of its lines reads as a summary row
        lines = (report_21 / "summary.txt").read_text().splitlines()
        start = lines.index("exponentials per error row of the scan and of "
                            "the estimate's scan")
        assert lines[start - 1].startswith("design work: ")
        assert lines[start + 1].split() == ["c", "nfev", "accepted",
                                           "rejected", "scan", "estimate"]
        rows = lines[start + 2:start + 6]
        assert lines[start + 6] == ""
        for row, (c, (pulse, trajectory)) in zip(rows, designs4.items()):
            solution = trajectory.solution
            scan, estimate = (sigma_drive(pulse, trajectory, n).omega.size - 1
                              for n in (128, 64))
            assert (scan, estimate) == (128, 64)
            assert row.split() == [f"{c:g}", str(solution.nfev),
                                   str(solution.ss.size - 1),
                                   str(solution.rejected), "128", "64"]
        for line in lines[start - 1:start + 6]:
            assert line.rsplit(" ", 1)[-1] not in ("LR", "L-", "-R", "--")

    def test_report_needs_no_design_c(self, tmp_path, capsys):
        # report designs the four reference c values: a config without
        # design.c, or with another one, writes the same bytes and prints
        # the same summary
        runs = []
        for design in ({"n_samples": 401}, {"c": 0.05, "n_samples": 401}):
            out_dir = tmp_path / f"out{len(runs)}"
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({
                "design": design,
                "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
                "output_dir": str(out_dir), "emit_plots": True}))
            assert main(["report", "--config", str(config_path)]) == 0
            runs.append((capsys.readouterr(),
                         {f.name: f.read_bytes() for f in out_dir.iterdir()}))
        (printed, files), (printed_c, files_c) = runs
        assert printed == printed_c and printed.err == ""
        assert len(files) == 19 and files == files_c

    def test_report_inverts_each_clock_once(self, monkeypatch, tmp_path,
                                            capsys):
        # each design inverts its clock once, at its whole grid, where it
        # finds x_f; the report's scans invert none
        sizes = []
        locate_clock = designer._locate_clock

        def counted(solution, times, tol):
            sizes.append(times.size)
            return locate_clock(solution, times, tol)

        monkeypatch.setattr(designer, "_locate_clock", counted)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "design": {"n_samples": 401},
            "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
            "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 3},
            "output_dir": str(tmp_path / "out")}))
        assert main(["report", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert sizes == [401] * 4

    def test_bad_config_is_argument_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        out_dir = str(tmp_path / "out")
        cases = [
            ({"design": {"c": 0.0}, "output_dir": out_dir},
             "design: c must be positive"),
            ({"design": {"c": 0.073}, "rabi_grid": {"lo": -1e308, "hi": 1e308},
              "output_dir": out_dir}, "rabi_grid: need a finite span hi - lo"),
            ({"design": {"c": 0.073}, "emit_plots": "false",
              "output_dir": out_dir}, "emit_plots"),
            ({"design": {"c": "0.07"}, "output_dir": out_dir}, "design.c"),
            ({"design": {"c": 0.073}, "output_dir": 5}, "output_dir"),
            ({"design": {"c": 0.073}, "rabi_grid": {"n_points": "7"},
              "output_dir": out_dir}, "rabi_grid.n_points"),
            ({"design": {"c": 0.073, "consistency_sign": 1},
              "output_dir": out_dir}, "consistency_sign"),
        ]
        for config, field in cases:
            config_path.write_text(json.dumps(config))
            assert main(["report", "--config", str(config_path)]) == 2
            assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, build", [
        ("design", "T", 10 ** 400, lambda v: DesignParams(c=0.073, T=v)),
        ("design", "c", -10 ** 400, lambda v: DesignParams(c=v)),
        ("rabi_grid", "hi", 10 ** 400, lambda v: ErrorGrid("rabi", -0.5, v, 3)),
        ("detuning_grid", "lo", -10 ** 400,
         lambda v: ErrorGrid("detuning", v, 0.5, 3)),
    ])
    def test_number_past_the_float_range_is_argument_error(
            self, tmp_path, capsys, section, key, value, build):
        # a JSON integer no float holds compares finite, and used to escape
        # later as an OverflowError traceback (exit 1): it is named as past
        # the float range, in the config (exit 2) and in the call alike
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            section: {key: value}, "output_dir": str(tmp_path / "out")}))
        assert main(["report", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {section}: {key} is past the float range\n"
        with pytest.raises(ParameterError,
                           match=f"^{key} is past the float range$"):
            build(value)
        assert not (tmp_path / "out").exists()


class TestHugeSizes:
    """A size past MAX_SAMPLES is an argument error (exit 2), raised before
    an array of that size is built."""

    @pytest.mark.parametrize("argv, message", [
        (["design", "--c", "0.073", f"--n={HUGE}"], "n_samples"),
        (["baseline", "pi2", f"--n={HUGE}"], "n_samples"),
        (["scan", "--param", "rabi", f"--range=-0.5:0.5:{HUGE}"], "n_points"),
        (["simulate", f"--substeps={HUGE}"], "substeps"),
        (["scan", "--param", "rabi", f"--substeps={HUGE}"], "substeps"),
    ])
    def test_command(self, argv, message, pulse_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if argv[0] in ("scan", "simulate"):
            argv = argv + ["--pulse", str(pulse_file)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{message} must be >= " in err
        assert f"<= {MAX_SAMPLES}, got {HUGE}" in err
        assert not out.exists()

    def test_report_config(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        out_dir = tmp_path / "out"
        for config in ({"design": {"c": 0.073, "n_samples": HUGE}},
                       {"design": {"c": 0.073}, "rabi_grid": {"n_points": HUGE}}):
            config_path.write_text(json.dumps({**config,
                                               "output_dir": str(out_dir)}))
            assert main(["report", "--config", str(config_path)]) == 2
            assert f"<= {MAX_SAMPLES}, got {HUGE}" in capsys.readouterr().err
        assert not out_dir.exists()
