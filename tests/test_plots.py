"""svg_line_plot builds the polyline points of a series from digit tables;
it must write the points the per-point f-string rendering wrote, escape its
text, and reject input it cannot draw."""

import json
import re
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiepulse import cli, plots
from qiepulse.designer import _grid
from qiepulse.errors import ParameterError
from qiepulse.plots import svg_line_plot


def _reference_points(x, ys):
    """The polyline points of each series as formatted one point at a time,
    on the axes svg_line_plot draws."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    y_lo, y_hi = float(np.min(finite)), float(np.max(finite))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px = plots._map(x, float(np.min(x)), float(np.max(x)),
                    plots._ML, plots._W - plots._MR)
    out = []
    for y in ys:
        good = np.isfinite(y)
        py = plots._map(y, y_lo, y_hi, plots._H - plots._MB, plots._MT)
        out.append(" ".join(
            f"{px[k]:.2f},{py[k]:.2f}" for k in range(x.size) if good[k]))
    return out


def _written_points(x, ys, path):
    svg_line_plot(x, [(f"s{i}", y) for i, y in enumerate(ys)], "t", path)
    return re.findall(r'<polyline points="([^"]*)"', path.read_text())


def _gapped_series():
    x = np.linspace(-4.0, 4.0, 4001)
    omega = 3.0 * np.exp(-x * x) / (1.0 + 0.5 * np.sin(7.0 * x))
    delta = np.tan(0.37 * x)
    omega[[0, 17, 18, 19, 2000, 4000]] = np.nan
    delta[1234:1300] = np.nan
    delta[3999] = np.inf
    return x, [omega, delta]


def _single_point():
    # one finite value: the y axis falls back to a unit range
    return np.linspace(0.0, 1.0, 5), [np.array([np.nan, np.nan, 0.3,
                                                np.nan, -np.inf])]


def _rounding_ties():
    # x maps to 70 + x, so the dyadic ties 0.125, 1.375, ... reach the
    # format exact, and the decimal ties 1.005, 2.675 a bit off the tie
    x = np.concatenate(([0.0], np.arange(1, 41) / 8.0,
                        [1.005, 2.675, 8.115, 100.125, 630.0]))
    y = np.round(np.arange(x.size) * 0.01 + 0.005, 3)
    return x, [y, -y]


@pytest.mark.parametrize("case", [_gapped_series, _single_point,
                                  _rounding_ties],
                         ids=["4001-with-gaps", "single-point", "ties"])
def test_points_match_per_point_formatting(case, tmp_path):
    x, ys = case()
    written = _written_points(x, ys, tmp_path / "p.svg")
    assert written == _reference_points(x, ys)


def test_tie_points_are_on_the_tie():
    x, _ = _rounding_ties()
    px = plots._map(x, 0.0, 630.0, plots._ML, plots._W - plots._MR)
    assert np.array_equal(px[1:41], 70.0 + np.arange(1, 41) / 8.0)
    assert "%.2f" % px[1] == "70.12"  # 70.125 rounds half to even


def test_series_without_finite_points_draws_an_empty_polyline(tmp_path):
    x = np.linspace(0.0, 1.0, 4)
    ys = [np.array([0.0, 1.0, 2.0, 3.0]), np.full(4, np.nan)]
    written = _written_points(x, ys, tmp_path / "p.svg")
    assert written == _reference_points(x, ys)
    assert written[1] == ""


def _axis(kind, n, rng):
    """n x values: a uniform axis, or values on [0, 630] (which maps to
    70 + x) at dyadic ties k/8, which reach the format exact, or at decimal
    near-ties k/100 + 0.005, which no double holds; or one constant."""
    if kind == "uniform":
        lo = rng.standard_normal() * 10.0 ** rng.integers(-3, 4)
        return np.linspace(lo, lo + rng.uniform(1e-3, 1e3), n)
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    x = (rng.integers(0, 630 * 8, n) / 8.0 if kind == "dyadic"
         else (rng.integers(0, 63000, n) + 0.5) / 100.0)
    x[[0, -1]] = 0.0, 630.0
    return x


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["uniform", "dyadic", "decimal", "constant"]),
       n_series=st.integers(1, 3), scale=st.integers(-300, 300),
       gaps=st.sampled_from([0.0, 0.01, 0.5, 1.0]), constant=st.booleans())
def test_any_plot_matches_per_point_formatting(tmp_path_factory, n, seed, kind,
                                               n_series, scale, gaps,
                                               constant):
    rng = np.random.default_rng(seed)
    x = _axis(kind, n, rng)
    ys = []
    for _ in range(n_series):
        y = (np.full(n, rng.standard_normal()) if constant
             else rng.standard_normal(n)) * 10.0 ** scale
        gap = rng.random(n) < gaps
        y[gap] = rng.choice([np.nan, np.inf, -np.inf], np.count_nonzero(gap))
        ys.append(y)
    path = tmp_path_factory.mktemp("plot") / "p.svg"
    if not any(np.isfinite(y).any() for y in ys):
        with pytest.raises(ParameterError, match="no series"):
            _written_points(x, ys, path)
        return
    assert _written_points(x, ys, path) == _reference_points(x, ys)


def test_pulse_plot_coordinates_all_come_from_the_tables(designs4, tmp_path,
                                                         monkeypatch):
    # a bug that sent coordinates to '%' would keep every byte: on the
    # c = 0.073 pulse plot, whose x axis puts a quarter of its points next
    # to a tie, every coordinate is built from the digit tables
    made = []
    coordinates = plots._coordinates

    def counted(v, sep):
        made.append(coordinates(v, sep))
        return made[-1]

    monkeypatch.setattr(plots, "_coordinates", counted)
    pulse, _ = designs4[0.073]
    T = pulse.params.T
    uniform = np.isin(pulse.t, T * _grid(pulse.params))
    x = pulse.t[uniform] / T
    ys = [T * pulse.omega[uniform], T * pulse.delta[uniform]]
    assert _written_points(x, ys, tmp_path / "p.svg") == \
        _reference_points(x, ys)
    assert len(made) == 3 and all(codes is not None for codes in made)
    px = plots._map(x, x.min(), x.max(), plots._ML, plots._W - plots._MR)
    frac = 100.0 * px - np.floor(100.0 * px)
    assert np.mean(np.abs(frac - 0.5) < 1e-9) > 0.2


def test_report_polylines_match_the_plotted_data(tmp_path, monkeypatch,
                                                 capsys):
    drawn = {}

    def recorded(x, series, title, path, **labels):
        drawn[Path(path).name] = (np.array(x), [np.array(y) for _, y in series])
        svg_line_plot(x, series, title, path, **labels)

    monkeypatch.setattr(cli, "svg_line_plot", recorded)
    out_dir = tmp_path / "out"
    config = {
        "design": {"c": 0.073, "n_samples": 401},
        "rabi_grid": {"lo": -0.5, "hi": 0.5, "n_points": 11},
        "detuning_grid": {"lo": -0.5, "hi": 0.5, "n_points": 11},
        "output_dir": str(out_dir),
        "emit_plots": True,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["report", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert sorted(drawn) == sorted(
        [f"pulse_c{c}.svg" for c in ("0.073", "0.06", "0.05", "0.04")]
        + ["scan_rabi.svg", "scan_detuning.svg"])
    for name, (x, ys) in drawn.items():
        text = (out_dir / name).read_text()
        minidom.parseString(text)
        assert re.findall(r'<polyline points="([^"]*)"', text) == \
            _reference_points(x, ys), name


def test_text_is_escaped(tmp_path):
    labels = ["c<0.1 & d", '"q" > 0']
    path = tmp_path / "p.svg"
    svg_line_plot([0.0, 1.0, 2.0], [(labels[0], [1.0, 2.0, 3.0]),
                                    (labels[1], [3.0, 2.0, 1.0])],
                  "F vs <delta>", path, x_label="a&b", y_label="<y>")
    texts = [node.firstChild.data for node in
             minidom.parse(str(path)).getElementsByTagName("text")]
    for text in ["F vs <delta>", "a&b", "<y>", *labels]:
        assert text in texts


@pytest.mark.parametrize("x, series, message", [
    ([0.0, np.nan, 1.0], [("a", [1.0, 2.0, 3.0])], r"x\[1\] is not finite"),
    ([0.0, 1.0, np.inf], [("a", [1.0, 2.0, 3.0])], r"x\[2\] is not finite"),
    ([0.0, 1.0, 2.0], [("a", [1.0, 2.0, 3.0]), ("b", [1.0, 2.0])],
     r"series 'b' has shape \(2,\), x has \(3,\)"),
    ([0.0, 1.0, 2.0], [], "at least one series"),
    ([], [("a", [])], "non-empty 1-D"),
    ([[0.0, 1.0]], [("a", [[1.0, 2.0]])], "non-empty 1-D"),
    ([0.0, 1.0], [("a", [np.nan, np.inf]), ("b", [-np.inf, np.nan])],
     "no series has a finite value"),
], ids=["nan-x", "inf-x", "length", "no-series", "empty-x", "2-d-x",
        "no-finite-y"])
def test_undrawable_input_raises_parameter_error(tmp_path, x, series,
                                                 message):
    path = tmp_path / "p.svg"
    with pytest.raises(ParameterError, match=message):
        svg_line_plot(x, series, "t", path)
    assert not path.exists()


def test_coordinates_off_the_tables_are_formatted_by_percent(tmp_path):
    # a y span past the largest double maps the points to nan, which the
    # digit tables do not hold: that polyline is formatted by '%'
    x = np.linspace(0.0, 1.0, 5)
    ys = [np.array([-1.7e308, 0.0, 1.7e308, np.nan, 1.0]), x]
    with np.errstate(over="ignore", invalid="ignore"):
        written = _written_points(x, ys, tmp_path / "p.svg")
        reference = _reference_points(x, ys)
    assert written == reference
    assert written[0].split()[0] == "70.00,nan"
