import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiepulse import (
    ConfigError,
    DesignParams,
    ErrorGrid,
    GridError,
    ParameterError,
    Pulse,
    PulseFormatError,
    RunConfig,
    TargetState,
    design_pulse,
    fidelity,
    parse_config,
    pi_half_baseline,
    propagate,
    read_pulse_csv,
    scan_1d,
    write_pulse_csv,
    write_scan_csv,
    write_trajectory_csv,
)

# JSON value texts: any JSON value, plus literals that json.dumps never
# writes (an overflowing 1e400, an integer past Python's digit limit, and
# nesting past the recursion limit)
JSON_VALUES = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     "1e-400", "0", "-1", "3", "4001", "0.073", "0.5",
                     '"zero"', '"rabi"', "1" + "0" * 4400,
                     "[" * 2000 + "]" * 2000]),
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                 max_leaves=6).map(json.dumps),
)


@st.composite
def json_objects(draw, valid):
    """A JSON object text: the entries of valid (key -> value-text
    strategy), a few of them dropped or replaced by any JSON value, maybe
    with an unknown key."""
    keys = sorted(valid)
    entries = {key: draw(value) for key, value in valid.items()}
    for key in draw(st.sets(st.sampled_from(keys), max_size=2)):
        del entries[key]
    entries.update(draw(st.dictionaries(st.sampled_from(keys + ["x"]),
                                        JSON_VALUES, max_size=2)))
    return "{" + ", ".join(f"{json.dumps(k)}: {v}"
                           for k, v in entries.items()) + "}"


def config_texts():
    design = {f.name: st.just(json.dumps(f.default))
              for f in fields(DesignParams) if f.name != "c"}
    design["c"] = st.just("0.073")
    grid = {"lo": st.just("-0.5"), "hi": st.just("0.5"),
            "n_points": st.just("101")}
    return json_objects({
        "design": json_objects(design), "rabi_grid": json_objects(grid),
        "detuning_grid": json_objects(grid), "output_dir": st.just('"out"'),
        "emit_plots": st.just("false"), "csv_precision": st.just("12"),
    })


MINIMAL_CSV = """t,omega,delta
0.0,1.0,0.5
0.25,2.0,0.5
0.5,3.0,0.5
0.75,2.0,0.5
1.0,1.0,0.5
"""

FINITE = st.floats(-1e6, 1e6)


@st.composite
def random_pulses(draw):
    """Pulses with random finite fields on a random strictly increasing
    axis."""
    t = sorted(draw(st.lists(FINITE, min_size=3, max_size=40, unique=True)))
    samples = st.lists(FINITE, min_size=len(t), max_size=len(t))
    return Pulse(t=t, omega=np.array(draw(samples)),
                 delta=np.array(draw(samples)), area=draw(FINITE),
                 beta_final=draw(FINITE), adiabaticity_residual=draw(FINITE))


class TestPulseRoundTrip:
    def test_designed_pulse_round_trips(self, design_zero, tmp_path):
        # a smooth design on the uniform axis, and one whose axis carries
        # the points added to resolve its Omega spike
        refined = design_pulse(DesignParams(c=0.073, n_samples=401))
        assert refined[0].t.size > 401
        for name, (pulse, trajectory) in (("zero", design_zero),
                                          ("refined", refined)):
            path = tmp_path / f"pulse_{name}.csv"
            write_pulse_csv(pulse, trajectory, path)
            back = read_pulse_csv(path)

            assert back.t.shape == pulse.t.shape
            np.testing.assert_allclose(back.t, pulse.t, rtol=0, atol=1e-12)
            np.testing.assert_allclose(back.omega, pulse.omega,
                                       rtol=1e-11, atol=1e-15)
            np.testing.assert_allclose(back.delta, pulse.delta,
                                       rtol=1e-11, atol=1e-15)
            # scalars travel through repr, so they return bit-identical
            assert back.area == pulse.area
            assert back.beta_final == pulse.beta_final
            assert back.adiabaticity_residual == pulse.adiabaticity_residual
            assert back.params is None
            final = propagate(back).states[-1]
            assert fidelity(final, propagate(pulse).states[-1]) == \
                pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(pulse=random_pulses())
    def test_random_pulse_round_trips_exactly(self, pulse):
        # 17 significant digits carry every double through the text
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pulse.csv"
            write_pulse_csv(pulse, None, path, precision=16)
            back = read_pulse_csv(path)
        for name in ("t", "omega", "delta"):
            assert np.array_equal(getattr(back, name), getattr(pulse, name))
        assert (back.area, back.beta_final, back.adiabaticity_residual) == (
            pulse.area, pulse.beta_final, pulse.adiabaticity_residual)

    def test_refined_design_reads_back_at_every_precision(self, tmp_path):
        # the points that resolve the Omega spike lie closer in t than low
        # precisions print; the t column keeps the digits it needs to stay
        # strictly increasing, every other column is written as asked
        pulse, trajectory = design_pulse(DesignParams(c=0.073, n_samples=401))
        path = tmp_path / "pulse.csv"
        for precision in (*range(1, 13), 20):
            write_pulse_csv(pulse, trajectory, path, precision=precision)
            back = read_pulse_csv(path)
            assert back.t.size == pulse.t.size
            np.testing.assert_allclose(back.t, pulse.t, atol=0,
                                       rtol=0.5 * 10.0 ** -precision)
            rows = [line.split(",") for line in path.read_text().splitlines()
                    if line[0] in "-0123456789"]
            assert {len(x.split("e")[0]) for row in rows for x in row[1:]} <= {
                precision + 2, precision + 3}
            if precision == 12:
                assert [row[0] for row in rows] == [f"{x:.12e}" for x in pulse.t]

    def test_full_layout_has_six_columns(self, design_zero, tmp_path):
        pulse, trajectory = design_zero
        path = tmp_path / "pulse.csv"
        write_pulse_csv(pulse, trajectory, path)
        lines = path.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,omega,delta,theta,beta,adiabaticity"

    def test_minimal_layout_for_unparameterized_pulse(self, tmp_path):
        pulse = pi_half_baseline(1.0)
        path = tmp_path / "baseline.csv"
        write_pulse_csv(pulse, None, path)
        lines = path.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,omega,delta"
        back = read_pulse_csv(path)
        assert back.area == pulse.area
        assert back.beta_final == pulse.beta_final

    def test_full_layout_requires_params(self, design_zero, tmp_path):
        from dataclasses import replace
        pulse, trajectory = design_zero
        stripped = replace(pulse, params=None)
        with pytest.raises(ParameterError):
            write_pulse_csv(stripped, trajectory, tmp_path / "x.csv")


class TestReadExternal:
    def test_bare_three_column_file(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text(MINIMAL_CSV)
        pulse = read_pulse_csv(path)
        t = np.linspace(0, 1, 5)
        omega = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        np.testing.assert_array_equal(pulse.omega, omega)
        # no recorded metadata: the area is recomputed with the trapezoid
        # rule (the quadrature of the propagator's linear interpolation),
        # the rest stays unknown
        assert pulse.area == pytest.approx(float(np.trapezoid(omega, x=t)),
                                           rel=1e-14)
        assert np.isnan(pulse.beta_final)
        assert np.isnan(pulse.adiabaticity_residual)
        assert pulse.params is None

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,amp,delta\n0,1,0\n0.5,1,0\n1,1,0\n")
        with pytest.raises(PulseFormatError, match="omega"):
            read_pulse_csv(path)

    def test_unparseable_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega,delta\n0,1,0\n0.5,oops,0\n1,1,0\n")
        with pytest.raises(PulseFormatError) as excinfo:
            read_pulse_csv(path)
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega,delta\n0,1,0\n0.5,1\n1,1,0\n")
        with pytest.raises(PulseFormatError) as excinfo:
            read_pulse_csv(path)
        assert excinfo.value.line_number == 3

    def test_nonuniform_grid_read_as_is(self, tmp_path):
        # any finite, strictly increasing t column is the pulse's axis; the
        # n_samples metadata is provenance and plays no part
        path = tmp_path / "ext.csv"
        for meta in ("", "# n_samples = 5\n", "# n_samples = three\n"):
            path.write_text(meta + "t,omega,delta\n0,1,0\n0.3,1,0\n1,1,0\n")
            np.testing.assert_array_equal(read_pulse_csv(path).t,
                                          [0.0, 0.3, 1.0])

    def test_unordered_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for column in ((0, 0.5, 0.5, 1), (0, 0.7, 0.3, 1), (1, 0.5, 0)):
            rows = "".join(f"{t},1,0\n" for t in column)
            path.write_text("t,omega,delta\n" + rows)
            with pytest.raises(GridError, match="strictly increasing"):
                read_pulse_csv(path)

    def test_too_few_samples_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega,delta\n0,1,0\n1,1,0\n")
        with pytest.raises(GridError):
            read_pulse_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PulseFormatError):
            read_pulse_csv(path)


class TestScanAndTrajectoryFiles:
    def test_scan_file_layout(self, tmp_path):
        pulse = pi_half_baseline(1.0)
        grid = ErrorGrid(parameter="rabi", lo=-0.2, hi=0.2, n_points=21)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid,
                         protocol_label="pi/2 pulse")
        path = tmp_path / "scan.csv"
        write_scan_csv(result, path)

        lines = path.read_text().splitlines()
        assert "# protocol = pi/2 pulse" in lines
        assert "# parameter = rabi" in lines
        header_idx = lines.index("delta,fidelity")
        rows = lines[header_idx + 1:]
        assert len(rows) == 21
        deltas = np.array([float(r.split(",")[0]) for r in rows])
        fids = np.array([float(r.split(",")[1]) for r in rows])
        assert np.any(deltas == 0.0)
        assert np.all((fids >= 0.0) & (fids <= 1.0))

    def test_trajectory_file_layout(self, tmp_path):
        pulse = pi_half_baseline(1.0, n_samples=11)
        trajectory = propagate(pulse)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,pop1,pop2,u,v,w,p_minus,p_plus"
        assert len(lines) == 1 + 11


class TestConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config('{"design": {"c": 0.073}}')
        assert config.design.c == 0.073
        assert config.design.n_samples == 4001
        assert config.rabi_grid == ErrorGrid("rabi", -0.5, 0.5, 101)
        assert config.detuning_grid == ErrorGrid("detuning", -0.5, 0.5, 101)
        assert config.output_dir == "qiepulse_out"
        assert config.emit_plots is False
        assert config.csv_precision == 12

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="colour"):
            parse_config('{"design": {"c": 0.073}, "colour": "red"}')
        with pytest.raises(ConfigError, match="cc"):
            parse_config('{"design": {"c": 0.073, "cc": 1}}')
        with pytest.raises(ConfigError, match="step"):
            parse_config(
                '{"design": {"c": 0.073}, "rabi_grid": {"step": 0.1}}'
            )

    def test_missing_c_rejected(self):
        with pytest.raises(ConfigError, match="design.c"):
            parse_config('{"design": {}}')

    def test_invalid_value_names_field(self):
        with pytest.raises(ConfigError, match="c must be positive"):
            parse_config('{"design": {"c": -1.0}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("not json at all")
        with pytest.raises(ConfigError):
            parse_config("[1, 2, 3]")

    def test_precision_floor(self):
        with pytest.raises(ConfigError):
            parse_config('{"design": {"c": 0.073}, "csv_precision": 0}')

    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    def test_fuzzed_config_is_run_config_or_config_error(self, text):
        try:
            config = parse_config(text)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)
