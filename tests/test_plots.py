"""svg_line_plot formats the polyline points of a series with one %-format;
it must write the points the per-point f-string rendering wrote."""

import re

import numpy as np
import pytest

from qiepulse import plots
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
