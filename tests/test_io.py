import json
import re
import struct
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qiepulse.designer as designer
import qiepulse.pulse_io as pulse_io
from qiepulse import (
    DesignParams,
    ErrorGrid,
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
from qiepulse.pulse_io import PULSE_COLUMNS
from qiepulse.robustness import BAND_HALF_WIDTH

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

    def test_full_layout_without_params(self, design_zero, tmp_path):
        # the adiabaticity column is the trajectory's mu, so a pulse without
        # design params still writes six columns, just no design metadata
        pulse, trajectory = design_zero
        path = tmp_path / "x.csv"
        write_pulse_csv(replace(pulse, params=None), trajectory, path)
        lines = path.read_text().splitlines()
        keys = {l[2:].partition(" =")[0] for l in lines if l.startswith("#")}
        assert keys == {"version", "area", "beta_final",
                        "adiabaticity_residual"}
        assert next(l for l in lines if not l.startswith("#")) == (
            "t,omega,delta,theta,beta,adiabaticity")

    def test_adiabaticity_column_is_the_recorded_mu(self, monkeypatch,
                                                    design_zero, tmp_path):
        # writing evaluates no constraint algebra
        def refuse(*args):
            raise AssertionError("the constraint algebra was evaluated")

        pulse, trajectory = design_zero
        monkeypatch.setattr(designer, "_constraint", refuse)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(pulse, trajectory, path)
        rows = [l.split(",") for l in path.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert {len(row) for row in rows} == {6}
        assert [float(row[5]) for row in rows] == [float(f"{x:.12e}")
                                                   for x in trajectory.mu]


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

    @pytest.mark.parametrize("body", ["0,1,0,5\n0.5,1,0,5\n1,1,0,5\n",
                                      "0,1,0,5\n0.5,1_0,0,5\n1,1,0,5\n"],
                             ids=["columnar", "line-parser"])
    def test_repeated_column_rejected(self, tmp_path, body):
        # whichever reader takes the file (1_0 sends it to the line parser)
        path = tmp_path / "bad.csv"
        path.write_text("t,omega,delta,omega\n" + body)
        columnar, lines = read_both(path)
        assert_same_outcome(columnar, lines)
        with pytest.raises(PulseFormatError, match="repeated column 'omega'"):
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
            with pytest.raises(ParameterError, match="strictly increasing"):
                read_pulse_csv(path)

    def test_too_few_samples_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega,delta\n0,1,0\n1,1,0\n")
        with pytest.raises(ParameterError, match=r"t must be 1-D with >= 3 "
                           r"samples, got shape \(2,\)"):
            read_pulse_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PulseFormatError):
            read_pulse_csv(path)


def read_both(path):
    """The columnar reader's (metadata, header, rows) and the line parser's,
    each as its value or as the PulseFormatError it raised."""
    outcomes = []
    for read in (pulse_io._read_columns, pulse_io._read_lines):
        with open(path, encoding="utf-8") as fh:
            try:
                outcomes.append(read(fh))
            except PulseFormatError as exc:
                outcomes.append(exc)
    return outcomes


def assert_same_outcome(columnar, lines):
    """Equal metadata, header and bit-identical rows, or the same error
    with the same line number."""
    if isinstance(lines, PulseFormatError):
        assert isinstance(columnar, PulseFormatError), columnar
        assert str(columnar) == str(lines)
        assert columnar.line_number == lines.line_number
        return
    assert not isinstance(columnar, PulseFormatError), columnar
    assert columnar[:2] == lines[:2]
    assert columnar[2].shape == lines[2].shape
    assert columnar[2].tobytes() == lines[2].tobytes()


# numbers as float() reads them; some only float() accepts
FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.3e}"),
    st.sampled_from(["0", "-0", "+1", "1.", ".5", "1e-320", "1_0", "２",
                     " 1 ", "\t2", "+inf", "-Infinity", "nan", "oops", "",
                     "1e400"]),
)
BODY_LINES = st.one_of(
    st.lists(FIELDS, min_size=3, max_size=3).map(",".join),
    st.lists(FIELDS, min_size=2, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "# beta_final = 0.25", "#", "t,omega,delta"]),
)


class TestReaderParity:
    """The columnar read and the line parser it falls back to agree: same
    arrays, metadata and errors, whichever path runs."""

    @pytest.mark.parametrize("name, text, line_number", [
        ("crlf", b"# area = 1.5\r\nt,omega,delta\r\n0,1,0\r\n0.5,2,0\r\n"
                 b"1,1,0\r\n", None),
        ("blank lines", b"t,omega,delta\n0,1,0\n\n0.5,2,0\n  \t\n1,1,0\n\n",
         None),
        ("spaces", b"t , omega,delta \n 0 , 1,0\n0.5 ,2 , 0\n\t1,1,0 \n",
         None),
        ("metadata after header", b"t,omega,delta\n0,1,0\n"
                                  b"# beta_final = 0.25\n0.5,2,0\n1,1,0\n",
         None),
        ("underscore", b"t,omega,delta\n0,1_0,0\n0.5,2,0\n1,1,0\n", None),
        ("plus inf", b"t,omega,delta\n0,1,0\n0.5,+inf,0\n1,1,0\n", 3),
        ("single row", b"t,omega,delta\n0,1,0\n", None),
        ("every row short", b"t,omega,delta\n0,1\n0.5,2\n1,1\n", 2),
        ("bad value then field count",
         b"t,omega,delta\n0,1,0\n0.5,oops,0\n0.7,1,0\n1,1\n", 3),
        ("nan after blank line", b"t,omega,delta\n0,1,0\n\n0.5,nan,0\n"
                                 b"1,1,0\n", 4),
    ])
    def test_paths_agree(self, tmp_path, name, text, line_number):
        path = tmp_path / "pulse.csv"
        path.write_bytes(text)
        columnar, lines = read_both(path)
        assert_same_outcome(columnar, lines)
        if line_number is None:
            assert lines[1] == ["t", "omega", "delta"]
        else:
            assert lines.line_number == line_number
            assert str(lines).startswith(f"line {line_number}: ")

    def test_fallback_reads_what_float_accepts(self, tmp_path):
        # a '# key = value' line after the header is still metadata, and
        # '1_0' is ten
        path = tmp_path / "pulse.csv"
        path.write_text("t,omega,delta\n0,1_0,0\n# beta_final = 0.25\n"
                        "0.5,2,0\n1,1,0\n")
        back = read_pulse_csv(path)
        assert back.beta_final == 0.25
        np.testing.assert_array_equal(back.omega, [10.0, 2.0, 1.0])

    def test_columnar_path_reads_a_written_pulse(self, monkeypatch, tmp_path):
        # a file the package writes never needs the line parser
        def no_fallback(fh):
            raise AssertionError("line parser used")

        pulse = pi_half_baseline(1.0, n_samples=11)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(pulse, None, path, precision=16)
        monkeypatch.setattr(pulse_io, "_read_lines", no_fallback)
        back = read_pulse_csv(path)
        assert np.array_equal(back.omega, pulse.omega)

    @pytest.mark.parametrize("text", ["# area = 1.0\nt,omega,delta\n",
                                      "t\n\n"])
    def test_header_without_rows_rejected(self, tmp_path, text):
        # no rows is named before a missing column, and numpy's warning
        # about an empty input does not escape
        path = tmp_path / "pulse.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PulseFormatError,
                               match="^no data rows found$") as excinfo:
                read_pulse_csv(path)
        assert excinfo.value.line_number is None

    @settings(max_examples=300, deadline=None)
    @given(body=st.lists(BODY_LINES, max_size=6),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_random_files_agree(self, body, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pulse.csv"
            path.write_bytes(newline.join(["# area = 2", "t,omega,delta",
                                           *body, ""]).encode())
            assert_same_outcome(*read_both(path))


def reference_csv(meta, columns, arrays, precision):
    """The file text as the row-by-row writer rendered it: str.format per
    row, with the t column's precision raised until it reads back strictly
    increasing."""
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    digits = [precision] * len(columns)
    if columns[0] == "t":
        t = arrays[0]
        close = np.flatnonzero(np.diff(t) < 10.0 ** (2 - precision)
                               * np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
        digits[0] = next((p for p in range(precision, 17) if all(
            float(f"{t[k]:.{p}e}") < float(f"{t[k + 1]:.{p}e}") for k in close)),
            precision)
    row = ",".join(f"{{:.{p}e}}" for p in digits)
    lines.extend(row.format(*values)
                 for values in np.column_stack(arrays).tolist())
    return "\n".join(lines) + "\n"


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
            1.7e-308, 9.99e299, -1e300, 1.7976931348623157e308]


class TestWriterGolden:
    @pytest.mark.parametrize("precision", [1, 6, 12, 16])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_match_row_by_row_rendering(self, tmp_path, precision,
                                              offset):
        rng = np.random.default_rng(precision * 10 + offset)
        n = pulse_io._CHUNK_ROWS + offset
        # a t axis with neighbours closer than the precision prints, so
        # the t column's digits are raised
        t = np.cumsum(rng.choice([1e-9, 1e-3, 0.5], size=n)) - 3.0
        values = rng.standard_normal((5, n)) * 10.0 ** rng.integers(
            -310, 300, size=(5, n))
        values.flat[rng.choice(values.size, 200, replace=False)] = \
            rng.choice(SPECIALS, 200)
        meta = {"area": repr(1.5), "protocol": "pi/2 pulse"}
        cases = [(meta, ["t", "a", "b", "c", "d", "e"], [t, *values]),
                 ({}, ["delta", "fidelity"], list(values[:2])),
                 ({}, ["t", "omega", "delta"], [t[:3], *values[:2, :3]])]
        for meta, columns, arrays in cases:
            path = tmp_path / "out.csv"
            pulse_io._write_csv(path, meta, columns, arrays, precision)
            assert path.read_bytes() == reference_csv(
                meta, columns, arrays, precision).encode("utf-8")


def assert_writes_reference(columns, arrays, precision):
    """The writer's text is reference_csv's; a mismatch names its first
    differing line (a diff of the whole texts would take minutes)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        pulse_io._write_csv(path, {}, columns, arrays, precision)
        got = path.read_text()
    want = reference_csv({}, columns, arrays, precision)
    same = got == want
    assert same, next((line for line in zip(got.splitlines(),
                                            want.splitlines())
                       if line[0] != line[1]), "line counts differ")


# any 64-bit pattern: every exponent, subnormals, both zeros, nans, infs
RAW_DOUBLES = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


def tie_cases(precision):
    """Values on or next to the roundings the fast path must not decide at
    this precision: half-integer ties at precision + 1 digits (leading
    digits 1 to 9) times powers of ten, carries into the next decade,
    powers of ten, and both sides of the fast path's 1e-290 floor; each
    with its neighbours 1 ulp away, and negated."""
    lo = 10 ** precision
    ties = [(n + 0.5) * 10.0 ** j
            for n in sorted({lo, lo + 1, 2 * lo - 1, 5 * lo + 3, 10 * lo - 2})
            for j in range(-300, 290, 7)]
    ties += [999999999999.5, 0.125, 1e22 + 2 ** 30]
    # the doubles nearest 13-digit ties whose m the float64 product puts
    # 1 ulp of m (2^-10, 2^-9) on the wrong side of the half
    ties += [7.7234855093425e+286, 8.3112578581475e+266,
             9.8189273160305e+242]
    carries = [9.9999999999995 * 10.0 ** j for j in (-290, -3, 0, 3, 290)]
    carries += [9.5, 0.95, 99999.99999999995, 9.99999999999995]
    powers = 10.0 ** np.arange(-307, 309)
    floor = [1e-291, 1e-290, 1e-289]
    values = np.concatenate([ties, carries, powers, floor])
    values = np.concatenate([values, np.nextafter(values, 0),
                             np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


class TestWriterExactness:
    # every value's bytes are those '%.{p}e' (and str.format, which
    # reference_csv uses: the same conversion) gives: the fast path's
    # rounding and the values it hands to '%' alike

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(RAW_DOUBLES, st.floats(),
                                     st.sampled_from(SPECIALS)),
                           min_size=1, max_size=80),
           precision=st.integers(1, 16))
    def test_any_double_prints_as_percent_does(self, values, precision):
        columns = ["a", "b"]
        arrays = [np.array(values), np.array(values[::-1])]
        assert_writes_reference(columns, arrays, precision)

    @pytest.mark.parametrize("precision", range(17))
    def test_ties_carries_and_powers_of_ten(self, precision):
        values = tie_cases(precision)
        columns, arrays = ["a", "b", "c"], [values, values[::-1], values / 3]
        assert_writes_reference(columns, arrays, precision)

    def test_few_values_leave_the_fast_path(self, designs4, monkeypatch,
                                            tmp_path):
        # a bug that sent every value to '%' would keep every byte: count
        # the values '%' prints, at most 2% of a design's pulse file and of
        # a 501-point scan
        printed = []
        printf = pulse_io._printf

        def counted(values, formats):
            printed.append(len(values))
            return printf(values, formats)

        monkeypatch.setattr(pulse_io, "_printf", counted)
        pulse, trajectory = designs4[0.073]
        write_pulse_csv(pulse, trajectory, tmp_path / "pulse.csv")
        assert sum(printed) <= 0.02 * pulse.t.size * len(PULSE_COLUMNS)
        printed.clear()
        grid = ErrorGrid(parameter="rabi", lo=-0.5, hi=0.5, n_points=501)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        write_scan_csv(result, tmp_path / "scan.csv")
        assert sum(printed) <= 0.02 * 501 * 2

    def test_precision_ends_print_as_percent_does(self):
        # 0 digits, a numpy integer, and 766 digits, which print every
        # significant digit of a subnormal
        values = np.array(SPECIALS + [2.0 ** -1022 - 2.0 ** -1074, 1 / 3])
        for precision in (0, np.int64(3), 766):
            assert_writes_reference(["a", "b"], [values, values[::-1]],
                                    precision)

    @pytest.mark.parametrize("precision", [-1, 767, 10 ** 9, 12.0, "12",
                                           True, np.bool_(True), None])
    def test_bad_precision_is_parameter_error(self, precision, tmp_path):
        pulse = pi_half_baseline(1.0, n_samples=11)
        grid = ErrorGrid(parameter="rabi", lo=-0.2, hi=0.2, n_points=5)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        trajectory = propagate(pulse)
        path = tmp_path / "out.csv"
        for write in (lambda: write_pulse_csv(pulse, None, path, precision),
                      lambda: write_scan_csv(result, path, precision),
                      lambda: write_trajectory_csv(trajectory, path,
                                                   precision)):
            with pytest.raises(ParameterError, match=re.escape(
                    f"precision must be an integer in [0, 766], "
                    f"got {precision!r}")):
                write()
            assert not path.exists()


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

    @pytest.mark.parametrize("precision", [4, 12, 16])
    def test_band_minimum_as_the_table_prints_it(self, precision, tmp_path):
        # the metadata's band minimum is the fidelity cell it was taken
        # from, character for character, and meta's items follow the
        # scan's own
        pulse = pi_half_baseline(1.0)
        grid = ErrorGrid(parameter="rabi", lo=-0.5, hi=0.5, n_points=51)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        path = tmp_path / "scan.csv"
        write_scan_csv(result, path, precision=precision,
                       meta={"sampling": "test", "sampling_error": "0"})
        lines = path.read_text().splitlines()
        assert lines[:6] == [
            "# protocol = pulse", "# parameter = rabi",
            f"# area = {result.area!r}",
            f"# min_fidelity_in_band = "
            f"{result.min_fidelity_in_band:.{precision}e}",
            "# sampling = test", "# sampling_error = 0"]
        cells = {row.split(",")[1] for row in lines[7:]
                 if abs(float(row.split(",")[0])) <= BAND_HALF_WIDTH + 1e-12}
        band_min = lines[3].split(" = ")[1]
        assert band_min in cells
        assert float(band_min) == min(map(float, cells))

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
        with pytest.raises(ParameterError, match="colour"):
            parse_config('{"design": {"c": 0.073}, "colour": "red"}')
        with pytest.raises(ParameterError, match="cc"):
            parse_config('{"design": {"c": 0.073, "cc": 1}}')
        with pytest.raises(ParameterError, match="step"):
            parse_config(
                '{"design": {"c": 0.073}, "rabi_grid": {"step": 0.1}}'
            )

    def test_missing_c_rejected(self):
        with pytest.raises(ParameterError, match="design.c"):
            parse_config('{"design": {}}')

    def test_invalid_value_names_field(self):
        with pytest.raises(ParameterError, match="c must be positive"):
            parse_config('{"design": {"c": -1.0}}')

    @pytest.mark.parametrize("section, value, message", [
        ("design", {"c": -1.0}, "c must be positive and finite"),
        ("design", {"c": 0.073, "T": 0}, "T must be positive and finite"),
        ("design", {"c": 0.073, "kappa": 2.5}, "kappa must be finite and >= 3"),
        ("design", {"c": 0.073, "n_samples": 2}, "n_samples must be >= 3"),
        ("design", {"c": 0.073, "branch_sign": 0}, "branch_sign must be +1 or -1"),
        ("design", {"c": 0.073, "beta_rate_init": "fast"},
         "beta_rate_init must be 'zero' or 'consistency'"),
        ("rabi_grid", {"n_points": 1}, "n_points must be >= 2"),
        ("rabi_grid", {"lo": 0.5, "hi": -0.5}, "need finite lo < hi"),
        ("detuning_grid", {"n_points": 1}, "n_points must be >= 2"),
        ("detuning_grid", {"lo": 0.1, "hi": 0.1}, "need finite lo < hi"),
    ])
    def test_out_of_range_value_named_with_its_section(self, section, value,
                                                       message):
        # a DesignParams or ErrorGrid error is re-raised with its section's
        # prefix, from the original error, not leaked bare
        config = {"design": {"c": 0.073}, section: value}
        with pytest.raises(ParameterError,
                           match=f"^{section}: {re.escape(message)}") as info:
            parse_config(json.dumps(config))
        assert isinstance(info.value.__cause__, ParameterError)
        assert str(info.value) == f"{section}: {info.value.__cause__}"

    def test_invalid_json_rejected(self):
        with pytest.raises(ParameterError, match="config is not valid JSON"):
            parse_config("not json at all")
        with pytest.raises(ParameterError, match="config must be a JSON object"):
            parse_config("[1, 2, 3]")

    def test_precision_floor(self):
        with pytest.raises(ParameterError, match=r"csv_precision must be "
                           r"in \[1, 16\], got 0"):
            parse_config('{"design": {"c": 0.073}, "csv_precision": 0}')

    def test_precision_ceiling(self):
        # %.16e round-trips every double; past it a file only grows (at
        # 100,000 digits a report would write about 10 GB)
        text = '{"design": {"c": 0.073}, "csv_precision": %d}'
        assert parse_config(text % 16).csv_precision == 16
        for precision in (17, 100000):
            with pytest.raises(ParameterError, match=r"csv_precision must be "
                               r"in \[1, 16\], got %d" % precision):
                parse_config(text % precision)

    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    def test_fuzzed_config_is_run_config_or_config_error(self, text):
        try:
            config = parse_config(text)
        except ParameterError as exc:
            # raised in pulse_io, so a DesignParams or ErrorGrid error did
            # not leak past parse_config's prefix
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            assert tb.tb_frame.f_code.co_filename == pulse_io.__file__, exc
            return
        assert isinstance(config, RunConfig)
