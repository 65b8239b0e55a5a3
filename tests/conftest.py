"""Shared fixtures: the four reference designs and their band scans are
expensive, so they are built once per session and reused by the module and
acceptance tests.  Acceptance tests record one summary line per criterion;
the terminal hook prints them at the end of the run."""

import numpy as np
import pytest

from qiepulse import (
    DesignParams,
    ErrorGrid,
    TargetState,
    design_pulse,
    pi_half_baseline,
    scan_1d,
)
from qiepulse.robustness import _design_scans, _drive

C_VALUES = (0.073, 0.060, 0.050, 0.040)

# |delta| <= 0.2 at the default scan spacing of 0.01
BAND_GRID_POINTS = 41

_criterion_lines = []


def bloch_from_angles(theta, beta):
    """The design-angle oracle: the Bloch vector (u, v, w) = (sin theta cos
    beta, sin theta sin beta, cos theta) of the state with angles (theta,
    beta)."""
    th, b = np.asarray(theta, dtype=float), np.asarray(beta, dtype=float)
    return np.sin(th) * np.cos(b), np.sin(th) * np.sin(b), np.cos(th)


def drive_ends(pulse, trajectory):
    """(x_rate, x0, x_f) of a design: its mixing angle's rate in sigma,
    2 c branch_sign, and ends, as _drive takes them."""
    params = pulse.params
    return 2.0 * params.c * params.branch_sign, trajectory.x0, trajectory.x_f


def sigma_drive(pulse, trajectory, n):
    """A design's M6 drive at n uniform intervals of sigma, as the report
    builds it (robustness._drive)."""
    return _drive(*drive_ends(pulse, trajectory), n)


@pytest.fixture(scope="session")
def designs4():
    """Shipped-default designs for the four reference c values."""
    return {c: design_pulse(DesignParams(c=c)) for c in C_VALUES}


@pytest.fixture(scope="session")
def design_zero():
    """Smooth comparison design: beta starts at rest."""
    return design_pulse(DesignParams(c=0.073, beta_rate_init="zero"))


@pytest.fixture(scope="session")
def band_scans(designs4):
    """Band scans (both error kinds, all four c) at default resolution:
    the report's scan of each design (robustness._design_scans), both
    grids in one batch."""
    grids = [ErrorGrid(parameter=parameter, lo=-0.2, hi=0.2,
                       n_points=BAND_GRID_POINTS)
             for parameter in ("rabi", "detuning")]
    out = {}
    for c, (pulse, trajectory) in designs4.items():
        for res, _ in _design_scans(pulse, trajectory.x0, trajectory.x_f,
                                    grids)[0]:
            out[(c, res.grid.parameter)] = res
    return out


@pytest.fixture(scope="session")
def baseline_band_scan():
    pulse = pi_half_baseline(1.0)
    grid = ErrorGrid(parameter="rabi", lo=-0.2, hi=0.2,
                     n_points=BAND_GRID_POINTS)
    return scan_1d(pulse, TargetState(pulse.beta_final), grid,
                   protocol_label="pi/2 pulse")


@pytest.fixture
def record_criterion():
    def _record(number, passed, detail):
        _criterion_lines.append(
            (number, f"criterion {number}: "
                     f"{'PASS' if passed else 'FAIL'} - {detail}")
        )
    return _record


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)
