import numpy as np
import pytest

from qiepulse import (
    DesignParams,
    GridError,
    ParameterError,
    Pulse,
    design_pulse,
    pi_half_baseline,
    theta_profile,
)

# independent oracle: erfc(4) to 15 significant digits (series evaluation)
ERFC_4 = 1.54172579002800e-08


def test_theta_at_zero_is_quarter_pi():
    s = theta_profile(0.0, 1.0)
    assert s.theta == pytest.approx(np.pi / 4, abs=1e-15)


def test_theta_ddot_vanishes_at_zero():
    s = theta_profile(0.0, 1.0)
    assert s.theta_ddot == 0.0


def test_theta_near_end_of_window():
    s = theta_profile(4.0, 1.0)
    assert abs(s.theta - np.pi / 2) < 1.3e-8
    assert abs(s.theta - (np.pi / 2 - np.pi / 4 * ERFC_4)) < 1e-14


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(20240817)
    t = rng.uniform(-4.0, 4.0, size=1000)
    h = 1e-5
    s = theta_profile(t, 1.0)
    fd_dot = (theta_profile(t + h, 1.0).theta
              - theta_profile(t - h, 1.0).theta) / (2 * h)
    fd_ddot = (theta_profile(t + h, 1.0).theta_dot
               - theta_profile(t - h, 1.0).theta_dot) / (2 * h)
    assert np.max(np.abs(s.theta_dot - fd_dot)) <= 1e-6
    assert np.max(np.abs(s.theta_ddot - fd_ddot)) <= 1e-6


def test_time_symmetry():
    rng = np.random.default_rng(7)
    t = rng.uniform(-4.0, 4.0, size=200)
    s_pos = theta_profile(t, 1.0)
    s_neg = theta_profile(-t, 1.0)
    assert np.max(np.abs(s_pos.theta + s_neg.theta - np.pi / 2)) <= 1e-12


def test_monotone_and_bounded():
    t = np.linspace(-4, 4, 4001)
    s = theta_profile(t, 1.0)
    assert np.all(np.diff(s.theta) >= 0)
    assert np.all(s.theta >= 0) and np.all(s.theta <= np.pi / 2)
    assert np.all(s.theta_dot >= 0)


def test_rescaled_time_argument():
    # same dimensionless point t/T must give theta independent of T
    a = theta_profile(1.0, 1.0)
    b = theta_profile(2.0, 2.0)
    assert a.theta == pytest.approx(b.theta, abs=1e-15)
    assert a.theta_dot == pytest.approx(2 * b.theta_dot, abs=1e-15)


@pytest.mark.parametrize("bad_T", [0.0, -1.0])
def test_nonpositive_T_rejected(bad_T):
    with pytest.raises(ParameterError):
        theta_profile(0.0, bad_T)


def pulse_on(t, omega=None):
    """Zero-field pulse on the axis t; the fields take t's shape unless omega
    is given."""
    zeros = np.zeros(np.shape(t))
    return Pulse(t=t, omega=zeros if omega is None else omega, delta=zeros,
                 area=0.0, beta_final=0.0, adiabaticity_residual=0.0)


class TestTimeGrid:
    """A time grid is a pulse's t array; Pulse checks it on construction."""

    def test_samples_uniform(self):
        t = pi_half_baseline(8.0, n_samples=4001).t
        assert t.size == 4001 and (t[0], t[-1]) == (0.0, 8.0)
        assert np.max(np.abs(np.diff(t) - 8.0 / 4000)) <= 1e-12 * 8.0

    def test_symmetric_window(self):
        pulse, trajectory = design_pulse(
            DesignParams(c=0.073, T=2.0, kappa=4.0, n_samples=101))
        assert pulse.t[0] == -8.0 and pulse.t[-1] == 8.0
        assert trajectory.t is pulse.t

    def test_invalid_grids_rejected(self):
        with pytest.raises(GridError):
            pulse_on([1.0, 0.5, 0.0])
        with pytest.raises(GridError):
            pulse_on([0.0, 1.0])

    def test_explicit_samples(self):
        t = [-1.0, -0.2, 0.0, 0.05, 1.0]
        pulse = pulse_on(t)
        assert pulse.t.dtype == np.float64
        np.testing.assert_array_equal(pulse.t, t)

    def test_invalid_explicit_samples_rejected(self):
        for t in ([0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0],
                  [0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [0.0, 1.0],
                  [[0.0, 0.5, 1.0]]):
            with pytest.raises(GridError):
                pulse_on(t)
        for omega in (np.zeros(4), np.zeros(2), np.zeros((1, 3))):
            with pytest.raises(GridError, match="one sample per time"):
                pulse_on([0.0, 0.5, 1.0], omega=omega)


def test_array_theta_is_the_scalar_formula():
    # the array path takes erf from math.erf one value at a time, in the
    # input's shape, so theta has the scalar path's bits; inf, nan, -0.0
    # and empty inputs included, with no RuntimeWarning (an error here)
    rng = np.random.default_rng(4)
    edges = [-np.inf, -7.0, -0.0, 0.0, 1e-300, np.nan, np.inf]
    for x in (np.concatenate((rng.normal(0.0, 3.0, 4100), edges)),
              rng.normal(0.0, 2.0, (7, 5)), np.array(edges[:6]).reshape(2, 3)):
        s = theta_profile(x, 1.5)
        assert s.theta.shape == x.shape and s.theta.dtype == np.float64
        ref = [theta_profile(float(v), 1.5).theta for v in x.ravel()]
        np.testing.assert_array_equal(s.theta.ravel(), ref)


def test_theta_ddot_limit_in_the_tails():
    # where theta_dot is 0, past |t/T| ~ 27.3 and at t = +-inf, theta_ddot
    # is its limit 0 with the sign of -t on both paths, not 0 * inf = nan;
    # the array path gives it without a RuntimeWarning (an error here) where
    # x * x overflows; finite times keep the product's bits
    t = np.array([-np.inf, -1e300, -1e155, -60.0, 60.0, 1e155, 1e300, np.inf])
    for T in (1.5, 1e-3):
        s = theta_profile(t, T)
        assert np.array_equal(s.theta_dot, np.zeros(t.size))
        assert np.array_equal(s.theta_ddot, np.zeros(t.size))
        assert np.array_equal(np.signbit(s.theta_ddot), t > 0)
        for v, ddot in zip(t, s.theta_ddot):
            alone = theta_profile(float(v), T).theta_ddot
            assert alone == 0.0 and np.signbit(alone) == np.signbit(ddot)
    t = np.linspace(-30.0, 30.0, 6001)
    s = theta_profile(t, 1.0)
    np.testing.assert_array_equal(s.theta_ddot,
                                  s.theta_dot * (-2.0 * t / 1.0))
    assert np.isnan(theta_profile(np.array([np.nan]), 1.0).theta_ddot[0])
    for empty in (np.zeros(0), np.zeros((3, 0))):
        assert theta_profile(empty, 1.0).theta.shape == empty.shape
    zero_d = theta_profile(np.array(0.3), 1.0)
    assert type(zero_d.theta) is float
    assert zero_d == theta_profile(0.3, 1.0)
