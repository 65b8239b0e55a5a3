import re
from dataclasses import replace

import numpy as np
import pytest

from qiepulse import (
    ErrorGrid,
    ParameterError,
    TargetState,
    format_summary,
    pi_half_baseline,
    robustness_summary,
    scan_1d,
)
from qiepulse.designer import MAX_SAMPLES
from qiepulse.dynamics import _WIDTH
from qiepulse.robustness import ScanResult, _drive, _scan

from conftest import C_VALUES


class TestErrorGrid:
    def test_nearest_point_snaps_to_zero(self):
        grid = ErrorGrid(parameter="rabi", lo=-0.25, hi=0.5, n_points=5)
        vals = grid.values()
        assert vals[1] == 0.0  # raw linspace would give -0.0625 here
        assert vals[0] == -0.25 and vals[-1] == 0.5

    def test_grid_not_spanning_zero_untouched(self):
        grid = ErrorGrid(parameter="rabi", lo=0.1, hi=0.3, n_points=5)
        np.testing.assert_allclose(grid.values(),
                                   np.linspace(0.1, 0.3, 5), atol=1e-15)
        assert not np.any(grid.values() == 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ErrorGrid(parameter="amplitude", lo=-0.1, hi=0.1, n_points=5)
        with pytest.raises(ParameterError):
            ErrorGrid(parameter="rabi", lo=0.2, hi=0.2, n_points=5)
        with pytest.raises(ParameterError):
            ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=1)
        # the bound is inclusive, and checked before any grid is built
        ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=MAX_SAMPLES)
        with pytest.raises(ParameterError, match=f"<= {MAX_SAMPLES}"):
            ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1,
                      n_points=MAX_SAMPLES + 1)
        for lo, hi in ((-np.inf, 0.5), (-0.5, np.inf), (np.nan, 0.5)):
            with pytest.raises(ParameterError, match="finite"):
                ErrorGrid(parameter="rabi", lo=lo, hi=hi, n_points=11)
        # finite ends whose span hi - lo is not: refused with both ends,
        # before np.linspace would overflow; a span up to the largest float
        # is a grid
        for lo, hi in ((-1e308, 1e308), (np.float64(-1.7e308), 1.7e308),
                       (-1.7976931348623157e308, 1.7976931348623157e308)):
            with pytest.raises(ParameterError, match=re.escape(
                    f"need a finite span hi - lo, got [{lo!r}, {hi!r}]")):
                ErrorGrid(parameter="detuning", lo=lo, hi=hi, n_points=3)
        for lo, hi in ((1e308, 1.7e308), (0.0, 1e300), (-8e307, 8e307)):
            values = ErrorGrid("rabi", lo, hi, 3).values()
            assert np.isfinite(values).all() and values[-1] == hi
        # counts are integers of Python or numpy, bounds real numbers
        for n_points in (5.5, 5.0, "5", None):
            with pytest.raises(ParameterError, match="n_points"):
                ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=n_points)
        for lo, hi in (("0", 1), (0, None), (0j, 1), (False, True), (0, True)):
            with pytest.raises(ParameterError, match="finite lo < hi"):
                ErrorGrid(parameter="rabi", lo=lo, hi=hi, n_points=5)
        np.testing.assert_array_equal(
            ErrorGrid("rabi", np.float32(-0.5), 1, np.int64(5)).values(),
            ErrorGrid("rabi", -0.5, 1.0, 5).values())


class TestPiHalfBaseline:
    def test_area_exact(self):
        assert pi_half_baseline(1.0).area == 0.5 * np.pi
        assert pi_half_baseline(2.5).area == 0.5 * np.pi

    def test_invalid_duration(self):
        for duration in (0.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                pi_half_baseline(duration)

    def test_too_many_samples(self):
        with pytest.raises(ParameterError, match=f"<= {MAX_SAMPLES}"):
            pi_half_baseline(1.0, n_samples=MAX_SAMPLES + 1)

    def test_argument_types(self):
        for n_samples in (11.5, 11.0, "11"):
            with pytest.raises(ParameterError, match="n_samples must be >= 3"):
                pi_half_baseline(1.0, n_samples=n_samples)
        for duration in ("1", True, np.bool_(True)):
            with pytest.raises(ParameterError, match="duration"):
                pi_half_baseline(duration)
        assert pi_half_baseline(np.float64(1.0), np.int64(11)) == pi_half_baseline(1.0, 11)

    def test_rabi_scan_matches_closed_form(self):
        # rotation angle (1+delta) pi/2 about u: F = (1 + cos(delta pi/2))/2
        pulse = pi_half_baseline(1.0)
        grid = ErrorGrid(parameter="rabi", lo=-0.5, hi=0.5, n_points=101)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        expected = 0.5 * (1.0 + np.cos(grid.values() * 0.5 * np.pi))
        np.testing.assert_allclose(result.fidelities, expected, atol=1e-6)

    def test_nominal_fidelity_is_one(self):
        pulse = pi_half_baseline(1.0)
        grid = ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=3)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        assert result.fidelities[1] == pytest.approx(1.0, abs=1e-12)


class TestScan1d:
    def test_narrow_bracket_around_zero(self, design_zero):
        # narrowest constructible scan: the grid invariant needs lo < hi,
        # so a point evaluation brackets zero at negligible width
        pulse, _ = design_zero
        grid = ErrorGrid(parameter="rabi", lo=-1e-12, hi=1e-12, n_points=3)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        assert np.all(result.fidelities >= 0.9999)

    def test_nominal_fidelity_high(self, band_scans):
        for c in C_VALUES:
            fids = band_scans[(c, "rabi")].fidelities
            deltas = band_scans[(c, "rabi")].grid.values()
            f0 = fids[deltas == 0.0][0]
            assert f0 >= 0.9999

    def test_flagship_beats_flat_pulse_in_band(self, band_scans,
                                               baseline_band_scan):
        qie = band_scans[(0.073, "rabi")]
        assert qie.min_fidelity_in_band > baseline_band_scan.min_fidelity_in_band

    def test_stronger_constraint_widens_rabi_plateau(self, band_scans):
        # smaller c costs pulse area and buys rabi-error robustness
        assert (band_scans[(0.040, "rabi")].min_fidelity_in_band
                > band_scans[(0.073, "rabi")].min_fidelity_in_band)

    def test_detuning_robustness_retained(self, band_scans):
        # the same pulse that is rabi-robust keeps a high detuning floor
        assert band_scans[(0.040, "detuning")].min_fidelity_in_band > 0.95

    def test_default_label_from_params(self, designs4):
        pulse, _ = designs4[0.073]
        grid = ErrorGrid(parameter="rabi", lo=-0.01, hi=0.01, n_points=3)
        result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        assert result.protocol_label == "qie c=0.073"

    def test_deterministic(self, design_zero):
        pulse, _ = design_zero
        grid = ErrorGrid(parameter="detuning", lo=-0.2, hi=0.2, n_points=11)
        a = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        b = scan_1d(pulse, TargetState(pulse.beta_final), grid)
        assert np.array_equal(a.fidelities, b.fidelities)

    def test_results_compare_by_value(self):
        pulse = pi_half_baseline(1.0, n_samples=5)
        target = TargetState(pulse.beta_final)
        grid = ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=5)
        a = scan_1d(pulse, target, grid)
        assert a == scan_1d(pulse, target, grid)
        assert not a != scan_1d(pulse, target, grid)
        assert a != scan_1d(pulse, target, grid, protocol_label="other")
        assert a != scan_1d(pulse, target, replace(grid, hi=0.2))
        assert a != scan_1d(pulse, TargetState(0.3), grid)
        assert a != "scan"

    @pytest.mark.parametrize("target", [np.nan, np.inf, TargetState(-np.inf)])
    def test_non_finite_target_rejected(self, target):
        grid = ErrorGrid(parameter="rabi", lo=-0.1, hi=0.1, n_points=3)
        with pytest.raises(ParameterError, match="beta_final must be finite"):
            scan_1d(pi_half_baseline(1.0), target, grid)

    def test_fidelities_bounded(self, band_scans):
        for result in band_scans.values():
            assert np.all(result.fidelities >= 0.0)
            assert np.all(result.fidelities <= 1.0)



class TestBatchedScan:
    """_scan runs several grids of one pulse as one batch; each result must
    be the one scan_1d gives for its grid alone, bit for bit."""

    RABI = ErrorGrid(parameter="rabi", lo=-0.5, hi=0.5, n_points=101)
    DETUNING = ErrorGrid(parameter="detuning", lo=-0.3, hi=0.4, n_points=37)
    WIDE_RABI = ErrorGrid(parameter="rabi", lo=-0.6, hi=0.6, n_points=200)

    @pytest.mark.parametrize("grids, two_passes", [
        ((RABI, DETUNING), False),
        ((DETUNING, RABI), False),
        # 301 rows run as two passes, each grid alone as one
        ((WIDE_RABI, RABI), True),
    ], ids=["rabi-detuning", "detuning-rabi", "two-passes"])
    def test_matches_scan_1d_per_grid(self, design_zero, grids, two_passes):
        pulse, _ = design_zero
        target = TargetState(pulse.beta_final)
        assert max(g.n_points for g in grids) <= _WIDTH
        assert (sum(g.n_points for g in grids) > _WIDTH) == two_passes
        results = _scan(pulse, target, grids)
        assert len(results) == len(grids)
        for grid, batched in zip(grids, results):
            alone = scan_1d(pulse, target, grid)
            assert batched == alone
            assert np.array_equal(batched.fidelities, alone.fidelities)
            assert batched.fidelities.size == grid.n_points


class TestSummary:
    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            robustness_summary([])

    def test_single_row_echo(self, baseline_band_scan):
        rows = robustness_summary([baseline_band_scan])
        assert len(rows) == 1
        row = rows[0]
        assert row.protocol_label == "pi/2 pulse"
        assert row.parameter == "rabi"
        assert row.area == 0.5 * np.pi
        assert row.f_nominal == pytest.approx(1.0, abs=1e-12)
        assert row.min_band_02 == baseline_band_scan.min_fidelity_in_band
        # the flat pulse's profile is a single cosine lobe: fringe-free
        assert row.monotone_left and row.monotone_right

    @pytest.mark.parametrize("lo, hi, f0", [(-2e-9, 2e-9, 0.3),
                                            (1e-9, 0.5, None)])
    def test_nominal_is_the_exact_zero(self, lo, hi, f0):
        # F(0) is the fidelity at the grid's 0, which values() snaps to; a
        # point within 1e-8 of 0 is not it, and a grid without 0 has none
        grid = ErrorGrid("rabi", lo, hi, 5)
        fids = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        row, = robustness_summary([ScanResult("p", grid, fids, 0.1, 1.0)])
        if f0 is None:
            assert np.isnan(row.f_nominal)
        else:
            assert grid.values()[2] == 0.0 and row.f_nominal == f0

    def test_band_minima_nested(self, band_scans):
        rows = robustness_summary(list(band_scans.values()))
        for row in rows:
            assert row.min_band_01 >= row.min_band_02 >= row.min_band_03

    def test_rabi_band_order_is_set_at_second_order(self, designs4,
                                                    band_scans):
        # the cause of criterion 5's failure, on the report's drive: every
        # rabi band minimum lies on the band edge delta = +0.2, and the
        # second-order term q = (2 - F(+h) - F(-h)) / (2 h^2) at h = 1e-2,
        # where no fringe acts, is already out of order in c
        h = 1e-2
        measured = {0.073: 0.2278, 0.060: 0.1190, 0.050: 0.1567, 0.040: 0.1200}
        q = []
        for c, (pulse, trajectory) in designs4.items():
            res = band_scans[(c, "rabi")]
            edge = res.grid.values() == 0.2
            assert res.fidelities[edge] == res.min_fidelity_in_band
            assert np.all(res.fidelities[~edge] > res.min_fidelity_in_band)
            f = _scan(pulse, TargetState(pulse.beta_final),
                      [ErrorGrid("rabi", -h, h, 3)], 1,
                      drive=_drive(trajectory.solution, 2))[0].fidelities
            q.append((2 - f[0] - f[2]) / (2 * h * h))
            assert q[-1] == pytest.approx(measured[c], rel=0.01)
        assert q[0] > q[1] < q[2] > q[3]

    def test_area_ordering_across_designs(self, band_scans):
        rows = robustness_summary(
            [band_scans[(c, "rabi")] for c in C_VALUES]
        )
        areas = [row.area for row in rows]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_format_contains_rows(self, baseline_band_scan):
        text = format_summary(robustness_summary([baseline_band_scan]))
        assert "pi/2 pulse" in text
        assert "area/pi" in text
        assert "0.5000" in text
