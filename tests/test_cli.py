import json

import pytest

from qiepulse import (
    ConfigError,
    DesignError,
    GridError,
    PulseFormatError,
    QiePulseError,
    errors,
    write_pulse_csv,
)
from qiepulse.cli import exit_code_for, main

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


@pytest.fixture(scope="module")
def pulse_file(tmp_path_factory, designs4):
    pulse, trajectory = designs4[0.073]
    path = tmp_path_factory.mktemp("cli") / "pulse.csv"
    write_pulse_csv(pulse, trajectory, path)
    return path


class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(GridError("x")) == 2
        assert exit_code_for(DesignError("x")) == 3
        assert exit_code_for(PulseFormatError("x")) == 4
        assert exit_code_for(OSError("x")) == 4
        for name in errors.__all__:
            cls = getattr(errors, name)
            if cls is not QiePulseError:
                assert issubclass(cls, QiePulseError)
                assert exit_code_for(cls("x")) in (2, 3, 4), name

    def test_unexpected_exception_reraised(self):
        with pytest.raises(KeyError):
            exit_code_for(KeyError("boom"))

    def test_usage_error(self, capsys):
        assert main(["design"]) == 2  # missing required arguments
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out


class TestDesignCommand:
    def test_design_reports_endpoints(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["design", "--c", "0.073", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "area = 1.861472 pi" in printed
        assert "beta_final = -0.079746 pi" in printed
        assert out.exists()

    def test_invalid_c_is_argument_error(self, tmp_path, capsys):
        rc = main(["design", "--c", "-1", "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "c must be positive" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_designed_pulse(self, pulse_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--pulse", str(pulse_file),
                   "--out", str(out)])
        assert rc == 0
        assert "final populations:" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header == "t,pop1,pop2,u,v,w,p_minus,p_plus"

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

    def test_malformed_range(self, pulse_file, tmp_path, capsys):
        rc = main(["scan", "--pulse", str(pulse_file), "--param", "rabi",
                   "--range=-0.2:0.2", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_external_pulse_needs_target(self, tmp_path, capsys):
        ext = tmp_path / "ext.csv"
        ext.write_text(EXTERNAL_CSV)
        args = ["scan", "--pulse", str(ext), "--param", "detuning",
                "--range=-0.1:0.1:3", "--out", str(tmp_path / "s.csv")]
        assert main(args) == 2  # no beta_final on file, none given
        assert "beta-final" in capsys.readouterr().err
        assert main(args + ["--beta-final", "-1.5707963267948966"]) == 0
        capsys.readouterr()

    def test_non_finite_pulse_is_format_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad.csv"
        pulse.write_text(NON_FINITE_CSV.format("nan"))
        rc = main(["scan", "--pulse", str(pulse), "--param", "rabi",
                   "--range=-0.1:0.1:3", "--beta-final", "0.0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 4
        assert "line 3" in capsys.readouterr().err


class TestBaselineCommand:
    def test_baseline(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        assert main(["baseline", "pi2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "area = 0.500000 pi" in printed
        assert "beta_final = -0.500000 pi" in printed

    def test_unwritable_output_is_io_error(self, capsys):
        rc = main(["baseline", "pi2",
                   "--out", "/nonexistent_dir_for_test/base.csv"])
        assert rc == 4
        capsys.readouterr()


class TestReportCommand:
    def test_report_produces_artifacts(self, tmp_path, capsys):
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
        printed = capsys.readouterr().out
        assert "reference reproduction summary" in printed

        for c in ("0.073", "0.06", "0.05", "0.04"):
            assert (out_dir / f"pulse_c{c}.csv").exists()
            assert (out_dir / f"scan_c{c}_rabi.csv").exists()
            assert (out_dir / f"scan_c{c}_detuning.csv").exists()
        summary = (out_dir / "summary.txt").read_text()
        assert "qie c=0.073 rabi band min" in summary

    def test_bad_config_is_argument_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        out_dir = str(tmp_path / "out")
        cases = [
            ({"design": {}}, "design.c"),
            ({"design": {"c": 0.073}, "emit_plots": "false",
              "output_dir": out_dir}, "emit_plots"),
            ({"design": {"c": "0.07"}, "output_dir": out_dir}, "design.c"),
            ({"design": {"c": 0.073}, "output_dir": 5}, "output_dir"),
            ({"design": {"c": 0.073}, "rabi_grid": {"n_points": "7"},
              "output_dir": out_dir}, "rabi_grid.n_points"),
        ]
        for config, field in cases:
            config_path.write_text(json.dumps(config))
            assert main(["report", "--config", str(config_path)]) == 2
            assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
