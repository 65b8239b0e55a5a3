import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import qiepulse.designer as designer
from qiepulse import (
    DesignError,
    DesignParams,
    ParameterError,
    Pulse,
    analytic_diagnostics,
    design_pulse,
    TargetState,
    fidelity,
    ket1,
    pi_half_baseline,
)
from qiepulse.designer import (
    ODE_RTOL, REFINE_TOL, _area, _constraint, _dense, _dopri5, _locate,
    beta_acceleration,
)
from qiepulse.dynamics import final_states_over_errors
from qiepulse.profiles import ThetaSample, theta_profile
from qiepulse.robustness import _drive

# regression pins for the shipped default configuration (branch_sign=-1,
# consistency init): the area and beta_final of the t-form design, which
# integrated (beta, beta_dot, area) in t; the s-form keeps them to 1e-8.
# See README for the endpoint discussion.
T_FORM_AREAS_PI = {0.073: 1.9594910801206642, 0.060: 2.9706273747787475,
                   0.050: 3.170569410783142, 0.040: 4.287703184367967}
T_FORM_BETA_FINAL = {0.073: -0.25053008183140435, 0.060: -0.12518252132759028,
                     0.050: -0.19926133300664187, 0.040: -0.09944705883609972}
# right-hand-side evaluations of these designs: the t-form's (scipy's RK45
# took the same) and the s-form's, at a third of them or fewer
T_FORM_NFEV = {0.073: 6710, 0.060: 11042, 0.050: 11024, 0.040: 15410}
RK45_NFEV = {0.073: 1604, 0.060: 2018, 0.050: 2078, 0.040: 2558}
# the shipped consistency rate at c = 0.073: -sqrt(|theta_ddot(-4)| / (2c))
CONSISTENCY_RATE_0073 = -2.3376806430439453e-3


def sample(theta, theta_dot=1.0, theta_ddot=0.0):
    return ThetaSample(theta, theta_dot, theta_ddot)


def fields_at(theta, beta, beta_dot):
    """(Omega, Delta): the first two outputs of the constraint kernel."""
    return _constraint(theta, beta, beta_dot, 0.073, -1)[:2]


def mu_of(omega, omega_dot, delta, delta_dot):
    """The adiabaticity parameter, written out as the oracle."""
    return abs(omega_dot * delta - omega * delta_dot) / (
        2.0 * (omega * omega + delta * delta) ** 1.5)


def random_points(seed, n):
    """Angle states and c away from every singularity, as arrays."""
    rng = np.random.default_rng(seed)
    theta = sample(rng.uniform(0.2, np.pi / 2 - 0.2, n),
                   rng.uniform(0.1, 1.0, n), rng.uniform(-0.5, 0.5, n))
    return (theta, rng.uniform(0.15, np.pi - 0.15, n),
            rng.uniform(-1.0, 1.0, n), rng.uniform(0.02, 0.1, n))


class TestInvertAngles:
    """The field inversion from (beta, beta_dot): the first two outputs of
    designer._constraint, on floats and on arrays (the diagnostics)."""

    def test_beta_half_pi_kills_cot_terms(self):
        om, de = fields_at(sample(np.pi / 4), np.pi / 2, 0.0)
        assert om == pytest.approx(1.0, abs=1e-15)
        assert de == pytest.approx(0.0, abs=1e-15)

    def test_theta_half_pi_kills_cot_theta(self):
        om, de = fields_at(sample(np.pi / 2, 2.0), np.pi / 4, 3.0)
        assert om == pytest.approx(2 * np.sqrt(2), rel=1e-14)
        assert de == pytest.approx(3.0, abs=1e-14)

    def test_general_point(self):
        om, de = fields_at(sample(np.pi / 4), np.pi / 3, 0.0)
        assert om == pytest.approx(2 / np.sqrt(3), rel=1e-12)
        assert de == pytest.approx(-1 / np.sqrt(3), rel=1e-12)
        # the array view gives the same fields
        arrays = designer.invert_angles(sample(np.full(2, np.pi / 4)),
                                        np.full(2, np.pi / 3), np.zeros(2))
        np.testing.assert_allclose(arrays, [[om] * 2, [de] * 2], rtol=1e-14)

    def test_forward_consistency(self):
        # substituting back: theta_dot = Omega sin(beta),
        # beta_dot = Omega cot(theta) cos(beta) + Delta
        rng = np.random.default_rng(11)
        th = rng.uniform(0.1, np.pi - 0.1, 200)
        thd = rng.uniform(-2, 2, 200)
        b = rng.uniform(0.1, np.pi - 0.1, 200)
        bd = rng.uniform(-2, 2, 200)
        om, de = fields_at(sample(th, thd), b, bd)
        np.testing.assert_allclose(om * np.sin(b), thd, rtol=1e-10, atol=1e-12)
        back = om * (np.cos(th) / np.sin(th)) * np.cos(b) + de
        np.testing.assert_allclose(back, bd, rtol=1e-10, atol=1e-10)


class TestAdiabaticityParameter:
    """mu as analytic_diagnostics evaluates it along a constrained
    trajectory, with the constraint's beta_ddot."""

    def test_hand_evaluated_point(self):
        # (Omega, Delta) = (1, 0) at rest: the constraint sets Delta_dot =
        # 2c, and mu = |Omega Delta_dot| / 2 = c
        om, de, mu = analytic_diagnostics(sample(np.pi / 4), np.pi / 2, 0.0,
                                          1.0, -1)
        assert om == pytest.approx(1.0, abs=1e-15)
        assert de == pytest.approx(0.0, abs=1e-15)
        assert mu == pytest.approx(1.0, rel=1e-14)

    def test_static_fields_are_adiabatic(self):
        # at c = 0 the constraint holds the field direction still
        theta, b, bd, _ = random_points(3, 100)
        _, _, mu = analytic_diagnostics(theta, b, bd, 0.0, -1)
        assert np.max(mu) <= 1e-13

    def test_crossing_form(self):
        # at Omega = 0 (theta_dot = 0, beta = pi/2) mu reduces to
        # |Omega_dot| / (2 Delta^2) with Delta = beta_dot; the consistency
        # rate sqrt(|theta_ddot| / (2c)) holds it at c
        c, thdd = 0.073, -0.4
        rate = -math.sqrt(abs(thdd) / (2 * c))
        with np.errstate(divide="ignore"):
            om, de, omd, _, _ = _constraint(sample(0.3, 0.0, thdd),
                                            np.array(np.pi / 2), rate, c, -1)
        assert om == 0.0 and de == pytest.approx(rate, rel=1e-15)
        assert abs(omd) / (2 * de * de) == pytest.approx(c, rel=1e-14)

    def test_degenerate_point_rejected(self):
        # theta_dot = beta_dot = 0 at beta = pi/2: Omega = Delta = 0, where
        # mu is undefined and comes out nan
        omega, delta, mu = analytic_diagnostics(
            sample(np.pi / 4, 0.0, 1.0), np.pi / 2, 0.0, 0.073, -1)
        assert omega == 0.0 and delta == 0.0 and np.isnan(mu)

    def test_time_rescaling_invariance(self):
        # t -> t/a scales theta_dot, beta_dot and the fields by a and every
        # rate by a^2; the constrained beta_ddot follows, so mu stays c
        theta, b, bd, c = random_points(5, 100)
        a = np.random.default_rng(6).uniform(0.2, 5.0, 100)
        scaled = sample(theta.theta, a * theta.theta_dot,
                        a * a * theta.theta_ddot)
        base = _constraint(theta, b, bd, c, -1)
        again = _constraint(scaled, b, a * bd, c, -1)
        for x, y, power in zip(base, again, (1, 1, 2, 2, 2)):
            np.testing.assert_allclose(y, a ** power * x, rtol=1e-9,
                                       atol=1e-12)
        _, _, mu = analytic_diagnostics(scaled, b, a * bd, c, -1)
        np.testing.assert_allclose(mu, c, rtol=1e-9)


class TestBetaAcceleration:
    def test_symmetric_point(self):
        # all cot cross terms vanish: beta_ddot = -branch_sign * 2c
        for s in (-1, 1):
            acc = beta_acceleration(sample(np.pi / 4), np.pi / 2, 0.0, 0.073, s)
            assert acc == pytest.approx(-s * 2 * 0.073, rel=1e-12)

    def test_branch_flip_is_affine(self):
        # flipping branch_sign negates only the constrained term
        th = sample(0.9, 0.7, -0.2)
        b, bd, c = 0.8, 0.3, 0.05
        plus = beta_acceleration(th, b, bd, c, 1)
        minus = beta_acceleration(th, b, bd, c, -1)
        om, de = fields_at(th, b, bd)
        gap3 = (om**2 + de**2) ** 1.5
        assert plus - minus == pytest.approx(-4 * c * gap3 / om, rel=1e-10)

    def test_finite_difference_residual(self):
        # advancing (beta, beta_dot) with the returned acceleration must keep
        # the finite-difference adiabaticity parameter at c
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(100):
            th = rng.uniform(0.2, np.pi / 2 - 0.2)
            thd = rng.uniform(0.1, 1.0)
            thdd = rng.uniform(-0.5, 0.5)
            b = rng.uniform(0.15, np.pi - 0.15)
            bd = rng.uniform(-1.0, 1.0)
            c = rng.uniform(0.02, 0.1)
            s = -1 if rng.uniform() < 0.5 else 1
            acc = beta_acceleration(sample(th, thd, thdd), b, bd, c, s)

            def fields(dt):
                ths = sample(th + thd * dt + 0.5 * thdd * dt * dt,
                             thd + thdd * dt, thdd)
                return fields_at(ths, b + bd * dt + 0.5 * acc * dt * dt,
                                 bd + acc * dt)

            om_m, de_m = fields(-h)
            om_0, de_0 = fields(0.0)
            om_p, de_p = fields(h)
            mu = mu_of(om_0, (om_p - om_m) / (2 * h),
                       de_0, (de_p - de_m) / (2 * h))
            assert mu == pytest.approx(c, abs=1e-6)


class TestInitialBetaRate:
    """beta_dot(t_start), read off the designed trajectory."""

    def test_zero_mode(self, design_zero):
        assert design_zero[1].beta_dot[0] == 0.0

    def test_consistency_value(self, designs4):
        # |theta_ddot(-4)| = (sqrt(pi)/2) e^{-16} * 8, rate = -sqrt(that/(2c))
        expected = -np.sqrt(np.sqrt(np.pi) / 2 * np.exp(-16.0) * 8.0
                            / (2 * 0.073))
        got = designs4[0.073][1].beta_dot[0]
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(CONSISTENCY_RATE_0073, rel=1e-12)
        # the crossing form: |Omega_dot| / (2 beta_dot^2) = c as Omega -> 0
        theta_ddot = theta_profile(-4.0, 1.0).theta_ddot
        assert abs(theta_ddot) / (2 * got * got) == pytest.approx(0.073,
                                                                  rel=1e-14)

    def test_sign_flag(self, designs4):
        # the mirrored branch starts ascending
        _, up = design_pulse(DesignParams(c=0.073, n_samples=401,
                                          branch_sign=1))
        down = designs4[0.073][1].beta_dot[0]
        assert up.beta_dot[0] == -down and down < 0

    def test_deterministic(self, designs4):
        # the rate does not depend on the sampling
        _, trajectory = design_pulse(DesignParams(c=0.073, n_samples=401))
        assert trajectory.beta_dot[0] == designs4[0.073][1].beta_dot[0]


class TestDesignParams:
    @pytest.mark.parametrize("kwargs", [
        dict(c=-1.0),
        dict(c=0.073, T=0.0),
        dict(c=0.073, kappa=2.0),
        dict(c=0.073, n_samples=2),
        dict(c=0.073, n_samples=designer.MAX_SAMPLES + 1),
        dict(c=0.073, branch_sign=0),
        dict(c=0.073, beta_rate_init="random"),
        dict(c=0.073, kappa=np.nan),
        dict(c=np.inf),
        dict(c=0.073, T=np.inf),
        dict(c=0.073, kappa=np.inf),
        dict(c=np.nan),
        dict(c=0.073, n_samples=401.5),  # counts are integers
        dict(c=0.073, n_samples=np.float64(401.0)),
        dict(c="0.07"),  # and the float fields real numbers
        dict(c=0.073, kappa=None),
        dict(c=0.073, T=1j),
        dict(c=True),  # a bool is not a real number here
        dict(c=0.073, T=True),
        dict(c=0.073, kappa=np.bool_(True)),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            DesignParams(**kwargs)

    def test_branch_sign_is_an_integer(self):
        # of Python or numpy, as the counts are; a bool or a float is not
        # one, and -1.0 would reach the pulse file's metadata as it is
        for sign in (True, 1.0, -1.0, np.bool_(False)):
            with pytest.raises(ParameterError, match="branch_sign must be"):
                DesignParams(c=0.073, branch_sign=sign)
        assert DesignParams(c=0.073, branch_sign=np.int64(-1)).branch_sign == -1


class TestDesignPulse:
    def test_boundary_condition_exact(self, designs4):
        for _, trajectory in designs4.values():
            assert trajectory.beta[0] == np.pi / 2

    def test_array_lengths_consistent(self, designs4):
        pulse, trajectory = designs4[0.073]
        n = pulse.t.size
        for arr in (trajectory.t, pulse.omega, pulse.delta, trajectory.beta,
                    trajectory.beta_dot, trajectory.theta.theta, trajectory.mu):
            assert arr.shape == (n,)

    def test_trajectory_records_mu(self, designs4, design_zero):
        # mu is evaluated once per design, and the residual is read from it
        for pulse, trajectory in (*designs4.values(), design_zero):
            p = pulse.params
            mu = analytic_diagnostics(trajectory.theta, trajectory.beta,
                                      trajectory.beta_dot, p.c,
                                      p.branch_sign)[2]
            assert np.array_equal(trajectory.mu, mu)
            interior = np.abs(trajectory.t) <= 0.95 * p.kappa * p.T
            assert pulse.adiabaticity_residual == np.max(
                np.abs(trajectory.mu[interior] - p.c))

    def test_constraint_residual_small(self, designs4):
        # the defining property: the analytic adiabaticity parameter stays
        # within 1e-3 * c over the interior 95% of the window
        for c, (pulse, _) in designs4.items():
            assert pulse.adiabaticity_residual <= 1e-3 * c

    def test_regression_endpoints(self, designs4):
        for c, (pulse, _) in designs4.items():
            assert pulse.area / np.pi == pytest.approx(T_FORM_AREAS_PI[c],
                                                       rel=1e-8)
            assert pulse.beta_final == pytest.approx(T_FORM_BETA_FINAL[c],
                                                     abs=1e-8)
            assert pulse.beta_final < 0  # reached azimuth is negative

    def test_area_independent_of_sampling(self, designs4):
        # the area is integrated with the ODE, not read off the samples
        area = designs4[0.073][0].area
        for n in (401, 16001):
            pulse, _ = design_pulse(DesignParams(c=0.073, n_samples=n))
            assert pulse.area == pytest.approx(area, rel=1e-9)

    @pytest.mark.parametrize("c", [0.06149843267186144,
                                   0.034214830402355303])
    def test_grid_time_on_a_flat_clock(self, c):
        # a uniform grid time falls where t(s) is nearly flat, at t = 1.406
        # and 0.082: eight Newton steps from the linear guess were not
        # enough (a DesignError on the clock); the grid is there
        pulse, _ = design_pulse(DesignParams(c=c))
        assert np.all(np.isin(np.linspace(-4.0, 4.0, 4001), pulse.t))

    def test_refined_grid_keeps_uniform_points(self, designs4):
        # the Omega spike near beta -> 0 is resolved by points added between
        # the uniform samples; every uniform sample stays on the axis
        pulse, trajectory = designs4[0.073]
        params = pulse.params
        t = pulse.t
        assert t.size > params.n_samples
        assert np.all(np.diff(t) > 0)
        half_width = params.kappa * params.T
        uniform = np.linspace(-half_width, half_width, params.n_samples)
        assert np.all(np.isin(uniform, t))
        assert trajectory.t is t

    def test_area_monotone_in_c(self, designs4):
        areas = [designs4[c][0].area for c in (0.073, 0.060, 0.050, 0.040)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_zero_init_is_smooth(self, design_zero):
        pulse, trajectory = design_zero
        assert pulse.adiabaticity_residual <= 1e-3 * 0.073
        # starts at rest and stays on the gentle ascending branch
        assert trajectory.beta_dot[0] == 0.0
        assert np.max(np.abs(pulse.omega)) < 2.0

    def test_forward_fd_consistency_on_smooth_design(self, design_zero):
        pulse, trajectory = design_zero
        t = pulse.t
        fd = np.gradient(trajectory.beta, t)
        scale = np.max(np.abs(trajectory.beta_dot))
        err = np.max(np.abs(fd[1:-1] - trajectory.beta_dot[1:-1])) / scale
        assert err <= 1e-5

    def test_scale_invariance(self):
        # a design at T succeeds exactly where its T = 1 design does, and a
        # failure names T times that design's time; c = 1 fails at x = 0.
        # T = 1e9 and 1e150 design too: the clock is inverted in units of T
        def outcome(params):
            try:
                return design_pulse(params)
            except DesignError as e:
                return e

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (0.073, 1.0):
                params = DesignParams(c=c, n_samples=401)
                base = outcome(params)
                for T in (1e-12, 1e-3, 0.3, 3.0, 1e3, 1e9, 1e150):
                    scaled = outcome(replace(params, T=T))
                    if not isinstance(base, DesignError):
                        assert_rescaled(base, scaled, T)
                        continue
                    assert isinstance(scaled, DesignError)
                    assert scaled.t_fail == T * base.t_fail
                    assert str(scaled) == str(base).replace(
                        "(T = 1)", f"(T = {T:g})").replace(
                        f"t = {base.t_fail:.6g}", f"t = {scaled.t_fail:.6g}")

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(0.03, 0.10),
           log_T=st.floats(-12.0, 12.0) | st.just(150.0), zero=st.booleans())
    def test_time_rescaling(self, c, log_T, zero):
        # T is the unit of time: the design at T is the T = 1 design with
        # its times multiplied by T and its rates divided by T, to the bit
        T = 10.0 ** log_T
        params = DesignParams(c=c, n_samples=201,
                              beta_rate_init="zero" if zero else "consistency")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base, scaled = (design_pulse(replace(params, T=t_scale))
                            for t_scale in (1.0, T))
        assert_rescaled(base, scaled, T)

    def test_bit_reproducible(self):
        p1, _ = design_pulse(DesignParams(c=0.06, n_samples=801))
        p2, _ = design_pulse(DesignParams(c=0.06, n_samples=801))
        assert np.array_equal(p1.omega, p2.omega)
        assert np.array_equal(p1.delta, p2.delta)


def assert_rescaled(base, scaled, T):
    """The design scaled is the design base at T = 1 with t multiplied by
    T, the rates divided by T and theta_ddot by T^2; its dimensionless
    outputs are base's, bit for bit."""
    (pulse, angles), (pulse1, angles1) = scaled, base
    for name in ("area", "beta_final", "adiabaticity_residual"):
        assert getattr(pulse, name) == getattr(pulse1, name), name
    np.testing.assert_array_equal(angles.beta, angles1.beta)
    np.testing.assert_array_equal(angles.mu, angles1.mu)
    np.testing.assert_array_equal(angles.theta.theta, angles1.theta.theta)
    np.testing.assert_array_equal(pulse.t, T * pulse1.t)
    assert angles.t is pulse.t
    for value, value1 in ((pulse.omega, pulse1.omega),
                          (pulse.delta, pulse1.delta),
                          (angles.beta_dot, angles1.beta_dot),
                          (angles.theta.theta_dot, angles1.theta.theta_dot)):
        np.testing.assert_array_equal(value, value1 / T)
    np.testing.assert_array_equal(angles.theta.theta_ddot,
                                  angles1.theta.theta_ddot / (T * T))


def trapezoid_error_bound(t, f):
    """The trapezoid rule's error bound, the sum over intervals of
    h^3 / 12 max|f''|, with f'' taken as the larger second divided
    difference (times 2) of the two sample triples that hold the interval."""
    h = np.diff(t)
    second = np.abs(2.0 * np.diff(np.diff(f) / h) / (h[1:] + h[:-1]))
    f2 = np.concatenate(([second[0]], np.maximum(second[1:], second[:-1]),
                         [second[-1]]))
    return float(np.sum(h ** 3 / 12.0 * f2))


class TestAreaIdentity:
    """With mu = c the gap is |x_dot| / (2c), so |Omega| dt =
    gap |sin x| dt = |sin x| |dx| / (2c), and with x monotone in (0, pi)
    area = (cos x0 - cos x_f) / (2 c branch_sign): the closed form the
    design returns.  The check is an independent integral of the pulse, the
    trapezoid of |Omega| over its 16001 samples, within the trapezoid's
    error bound plus 10 ODE_RTOL for the solver's x_f."""

    @pytest.mark.parametrize("init", ["consistency", "zero"])
    @pytest.mark.parametrize("c", [0.03, 0.04, 0.05, 0.06, 0.073, 0.10])
    def test_closed_form_is_the_integral(self, c, init):
        pulse, _ = design_pulse(DesignParams(c=c, n_samples=16001,
                                             beta_rate_init=init))
        f = np.abs(pulse.omega)
        bound = (trapezoid_error_bound(pulse.t, f)
                 + 10 * ODE_RTOL * pulse.area)
        assert abs(np.trapezoid(f, pulse.t) - pulse.area) <= bound

    def test_every_interval_keeps_its_area(self, designs4):
        # at the report's 4001 samples, between any two emitted samples the
        # trapezoid of |Omega| is within REFINE_TOL of the interval's exact
        # area (cos x_a - cos x_b) / (2 c branch_sign), x read back from the
        # fields; summed, the samples carry the design's area to within
        # 0.3%, the worst of the t-form design at this sampling (+0.29% at
        # c = 0.04)
        for c, (pulse, _) in designs4.items():
            x = np.arctan2(pulse.omega, pulse.delta)
            exact = ((np.cos(x[:-1]) - np.cos(x[1:]))
                     / (2 * c * pulse.params.branch_sign))
            f = np.abs(pulse.omega)
            trap = 0.5 * (f[:-1] + f[1:]) * np.diff(pulse.t)
            assert np.max(np.abs(trap - exact)) <= REFINE_TOL + 1e-12, c
            assert abs(trap.sum() - pulse.area) <= 3e-3 * pulse.area, c


class TestPulseArea:
    """The area helper behind Pulse.area for designed and read pulses."""

    def test_constant(self):
        t = np.linspace(0, 1, 101)
        assert _area(np.full(101, np.pi / 2), t) == pytest.approx(
            np.pi / 2, rel=1e-14)

    def test_zero(self):
        t = np.linspace(0, 1, 101)
        assert _area(np.zeros(101), t) == 0.0

    def test_gaussian_oracle(self):
        t = np.linspace(-6, 6, 2001)
        assert _area(np.exp(-t * t), t) == pytest.approx(np.sqrt(np.pi),
                                                         abs=1e-6)

    def test_zero_field_over_overflowing_width(self):
        # the first width, 2e308, is inf: an interval with no field has no
        # area however wide it is, where the trapezoid gives 0 x inf = nan
        t = np.array([-1e308, 1e308, 1.5e308])
        omega = np.array([0.0, 0.0, 1e-300])
        assert _area(omega, t) == (t[2] - t[1]) * 1e-300 / 2.0

    def test_trapezoid_bits(self):
        # every other pulse keeps np.trapezoid's products and sum, bit for bit
        rng = np.random.default_rng(24)
        for _ in range(500):
            n = rng.integers(2, 400)
            t = np.cumsum(rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-8, 8))
            omega = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            omega[rng.random(n) < 0.3] = 0.0
            expected = float(np.trapezoid(np.abs(omega), x=t))
            assert _area(omega, t) == expected


class TestPulseEquality:
    def test_compares_samples_and_metadata(self):
        a = pi_half_baseline(1.0)
        assert a == pi_half_baseline(1.0)
        assert not a != pi_half_baseline(1.0)
        assert a != pi_half_baseline(2.0)
        assert a != pi_half_baseline(1.0, n_samples=301)
        assert a != "pulse"
        # provenance is not compared; NaN metadata equals NaN
        assert replace(a, params=DesignParams(c=0.07)) == a
        blank = replace(a, area=float("nan"))
        assert blank == replace(a, area=float("nan"))
        assert blank != a
        omega = a.omega.copy()
        omega[3] += 1e-12
        assert Pulse(t=a.t, omega=omega, delta=a.delta, area=a.area,
                     beta_final=a.beta_final,
                     adiabaticity_residual=a.adiabaticity_residual) != a


class TestRecordEquality:
    def test_angle_trajectory(self, design_zero):
        trajectory = design_zero[1]
        same = replace(trajectory, beta=trajectory.beta.copy())
        assert trajectory == same and not trajectory != same
        beta = trajectory.beta.copy()
        beta[7] += 1e-12
        assert trajectory != replace(trajectory, beta=beta)
        # the nested ThetaSample is compared by value
        theta = replace(trajectory.theta,
                        theta_dot=trajectory.theta.theta_dot * 2)
        assert trajectory != replace(trajectory, theta=theta)
        mu = trajectory.mu.copy()
        mu[5] += 1e-12
        assert trajectory != replace(trajectory, mu=mu)
        assert trajectory != "trajectory"
        beta[3] = np.nan  # NaN equals NaN
        assert replace(trajectory, beta=beta) == replace(trajectory,
                                                         beta=beta.copy())


def smooth(s, y):
    # the first state is the clock: it runs at a rate in [0.7, 1.7]
    t, p, q = y
    return (1.2 + 0.5 * math.sin(p), q, -p - 0.1 * q * math.cos(t))


def stiff(s, y):
    # the third state relaxes onto cos(t) at rate 300, so steps get rejected
    t, p, q = y
    return (1.2 + 0.5 * math.sin(p), q - 0.1 * p, -300.0 * (q - math.cos(t)))


# The Dormand-Prince 5(4) tableau and its dense-output matrix, transcribed
# for the oracle below (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
# II.6): nodes, rows of A, 5th-order weights B, error weights E, zeros left
# out of the sums.
DP_C2, DP_C3, DP_C4, DP_C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
DP_A = ((1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
DP_B1, DP_B3, DP_B4, DP_B5, DP_B6 = (35 / 384, 500 / 1113, 125 / 192,
                                     -2187 / 6784, 11 / 84)
DP_E1, DP_E3, DP_E4, DP_E5, DP_E6, DP_E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def unpacked(rhs):
    """rhs(s, y), as the toy systems and solve_ivp take it, called the way
    _dopri5 and dopri5_lists call f: f(s, t, p, q), the state as floats."""
    return lambda s, *y: rhs(s, y)


def s_form_of(profile, T, x_rate):
    """The s-form's right-hand side f(s, t, beta, x) with theta and
    theta_dot from profile(t, T), which designer._s_form writes out: its
    oracle.  A stage that is not finite (1/0 at theta = 0, sin(inf)) gives
    nan."""
    def rhs(s, t, beta, x):
        theta = profile(t, T)
        try:
            sin_x = math.sin(x)
            cot_theta = math.cos(theta.theta) / math.sin(theta.theta)
            return (math.sin(beta) * sin_x,
                    theta.theta_dot * (cot_theta * math.cos(beta) * sin_x
                                       + math.cos(x)),
                    x_rate * theta.theta_dot)
        except (ArithmeticError, ValueError):
            return math.nan, math.nan, math.nan
    return rhs


def dopri5_lists(f, y0, t_end, rtol, atol, check):
    """The stepper with its state and stages as lists, one comprehension
    per stage, each handed to f(s, *y): the oracle that _dopri5, which holds
    them as float locals, must match to the bit.  Same controller, no
    clamped step, the same end on the first state; every sum left to
    right."""
    n = len(y0)
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = DP_A

    def rms(v):
        total = 0.0
        for x in v:
            total += x * x
        return math.sqrt(total / n)

    s, y = 0.0, [float(v) for v in y0]
    k1 = f(s, *y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = rms([v / w for v, w in zip(y, scale)])
    d1 = rms([v / w for v, w in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = f(s + h0, *[v + h0 * a for v, a in zip(y, k1)])
    d2 = rms([(a - b) / w for a, b, w in zip(f1, k1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1)
    ss, ys, ks = [s], [y], []
    while y[0] < t_end:
        min_step = 10 * (math.nextafter(s, math.inf) - s)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            s_new = s + h_abs
            h = h_abs = s_new - s
            k2 = f(s + DP_C2 * h, *[v + (a21 * a) * h for v, a in zip(y, k1)])
            k3 = f(s + DP_C3 * h, *[v + (a31 * a + a32 * b) * h
                                    for v, a, b in zip(y, k1, k2)])
            k4 = f(s + DP_C4 * h, *[v + (a41 * a + a42 * b + a43 * c) * h
                                    for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f(s + DP_C5 * h, *[v + (a51 * a + a52 * b + a53 * c
                                         + a54 * d) * h
                                    for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = f(s + h, *[v + (a61 * a + a62 * b + a63 * c + a64 * d
                                 + a65 * e) * h
                            for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (DP_B1 * a + DP_B3 * c + DP_B4 * d + DP_B5 * e
                              + DP_B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(s + h, *y_new)
            err = rms([(DP_E1 * a + DP_E3 * c + DP_E4 * d + DP_E5 * e
                        + DP_E6 * g + DP_E7 * q) * h
                       / (atol + max(abs(v), abs(w)) * rtol)
                       for v, w, a, c, d, e, g, q
                       in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        check(*y_new)
        ks.append((k1, k2, k3, k4, k5, k6, k7))
        s, y, k1 = s_new, y_new, k7
        ss.append(s)
        ys.append(y)
    return np.array(ss), np.array(ys).T, np.einsum("skn,kp->snp",
                                                   np.array(ks), DP_P)


def dense_lists(ss, ys, q, s):
    """The oracle's dense output at s: each step's quartic in the fraction
    of its step, a boundary taking the earlier step."""
    out = []
    for v in s:
        j = min(max(int(np.searchsorted(ss, v, side="left")) - 1, 0),
                ss.size - 2)
        h = ss[j + 1] - ss[j]
        x = (v - ss[j]) / h
        out.append([ys[n, j] + h * sum(q[j, n, p] * x ** (p + 1)
                                       for p in range(4)) for n in range(3)])
    return np.array(out).T


def dense_fancy(ss, ys, q, seg, frac):
    """The dense output by fancy indexing and a cumulative product."""
    powers = np.cumprod(np.broadcast_to(frac, (4, frac.size)), axis=0)
    return ((ss[seg + 1] - ss[seg]) * np.einsum("snp,ps->ns", q[seg], powers)
            + ys[:, seg])


def locate_fancy(ss, s):
    seg = np.clip(np.searchsorted(ss, s, side="left") - 1, 0, ss.size - 2)
    return seg, (s - ss[seg]) / (ss[seg + 1] - ss[seg])


def locate_clock_fancy(ss, ys, q, times, tol):
    """The clock's inversion on full-length arrays, every point gathered by
    its offset on each Newton step."""
    seg, frac = locate_fancy(ys[0], times)
    coef = (ss[seg + 1] - ss[seg]) * q[seg, 0].T
    goal = times - ys[0, seg]
    lo, hi = np.zeros(frac.size), np.ones(frac.size)
    last = np.full(frac.size, np.inf)
    off = np.arange(frac.size)
    for _ in range(designer._CLOCK_STEPS):
        x, a = frac[off], coef[:, off]
        miss = x * (a[0] + x * (a[1] + x * (a[2] + x * a[3]))) - goal[off]
        keep = ~(np.abs(miss) <= tol)
        if not keep.any():
            return seg, frac
        off, x, miss, a = off[keep], x[keep], miss[keep], a[:, keep]
        below = miss < 0
        lo[off] = np.where(below, x, lo[off])
        hi[off] = np.where(below, hi[off], x)
        slope = a[0] + x * (2 * a[1] + x * (3 * a[2] + x * 4 * a[3]))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - miss / slope
        newton = ((lo[off] < step) & (step < hi[off])
                  & (np.abs(miss) <= 0.5 * last[off]))
        frac[off] = np.where(newton, step, 0.5 * (lo[off] + hi[off]))
        last[off] = np.abs(miss)
    raise AssertionError("the clock was not inverted")


def refine_fancy(s, y, omega, x_rate, sample_at):
    """The refinement with whole states per interval end and cos x taken at
    both ends of every interval."""
    a, b = s[:-1], s[1:]
    ya, yb, oa, ob = y[:, :-1], y[:, 1:], omega[:-1], omega[1:]
    states = [np.zeros((3, 0))]
    while True:
        trap = 0.5 * (np.abs(oa) + np.abs(ob)) * (yb[0] - ya[0])
        exact = (np.cos(ya[2]) - np.cos(yb[2])) / x_rate
        k = np.flatnonzero(np.abs(trap - exact) > REFINE_TOL)
        if not k.size:
            return np.concatenate(states, axis=1)
        m = 0.5 * (a[k] + b[k])
        ym, om = sample_at(m)
        inside = (ya[0, k] < ym[0]) & (ym[0] < yb[0, k])
        k, m, ym, om = k[inside], m[inside], ym[:, inside], om[inside]
        states.append(ym)
        a, b = np.concatenate((a[k], m)), np.concatenate((m, b[k]))
        ya = np.concatenate((ya[:, k], ym), axis=1)
        yb = np.concatenate((ym, yb[:, k]), axis=1)
        oa, ob = np.concatenate((oa[k], om)), np.concatenate((om, ob[k]))


def design_fancy(params, ss, ys, q):
    """design_pulse after its stepper, on the stepper's (ss, ys, q): the
    oracle that the gathers by take, the compacted clock inversion, the
    theta_dot-only refinement samples and the carried cos x must match to
    the bit.  Every refinement sample takes the full theta_profile.
    Returns (t, omega, delta, beta, beta_dot, theta, theta_dot,
    theta_ddot, area, beta_final, residual)."""
    T, c, sign = params.T, params.c, float(params.branch_sign)
    t = np.linspace(-params.kappa * T, params.kappa * T, params.n_samples)
    x_rate = 2.0 * c * sign
    start = theta_profile(t[0], T)
    rate0 = 0.0
    if params.beta_rate_init == "consistency":
        rate0 = sign * math.sqrt(abs(start.theta_ddot) / (2.0 * c))
    x0 = math.atan2(start.theta_dot, rate0)
    seg, frac = locate_clock_fancy(ss, ys, q, t, designer.CLOCK_TOL * T)

    def sample_at(s):
        y = dense_fancy(ss, ys, q, *locate_fancy(ss, s))
        return y, theta_profile(y[0], T).theta_dot / np.sin(y[1])

    y = dense_fancy(ss, ys, q, seg, frac)
    y[0] = t
    y[1:, 0] = 0.5 * np.pi, x0
    s = ss[seg] + frac * (ss[seg + 1] - ss[seg])
    theta = theta_profile(t, T)
    y_add = refine_fancy(s, y, theta.theta_dot / np.sin(y[1]), x_rate,
                         sample_at)
    if y_add.size:
        order = np.argsort(np.concatenate((t, y_add[0])))
        y = np.concatenate((y, y_add), axis=1)[:, order]
        added = theta_profile(y_add[0], T)
        theta = ThetaSample(*(np.concatenate(pair)[order] for pair in (
            (theta.theta, added.theta), (theta.theta_dot, added.theta_dot),
            (theta.theta_ddot, added.theta_ddot))))
    t, beta, x = y
    omega = theta.theta_dot / np.sin(beta)
    delta = omega * np.cos(x) / np.sin(x)
    cot_theta = np.cos(theta.theta) / np.sin(theta.theta)
    beta_dot = delta + omega * cot_theta * np.cos(beta)
    beta_dot[0] = rate0
    mu = analytic_diagnostics(theta, beta, beta_dot, c, params.branch_sign)[2]
    interior = np.abs(t) <= 0.95 * params.kappa * T
    return (t, omega, delta, beta, beta_dot, theta.theta, theta.theta_dot,
            theta.theta_ddot, (math.cos(x0) - math.cos(x[-1])) / x_rate,
            float(-beta[-1]), float(np.max(np.abs(mu[interior] - c))))


class TestPostStepper:
    """design_pulse from the stepper's output on: samples, clock,
    refinement and fields, against the fancy-indexing oracle."""

    @pytest.mark.parametrize("c", [0.04, 0.073])
    @pytest.mark.parametrize("init", ["consistency", "zero"])
    def test_bit_identical_to_fancy_oracle(self, monkeypatch, c, init):
        runs = []
        dopri5 = designer._dopri5
        monkeypatch.setattr(designer, "_dopri5", lambda *args: runs.append(
            dopri5(*args)) or runs[-1])
        params = DesignParams(c=c, beta_rate_init=init)
        pulse, traj = design_pulse(params)
        ref = design_fancy(params, runs[0].ss, runs[0].ys, runs[0].q)
        got = (pulse.t, pulse.omega, pulse.delta, traj.beta, traj.beta_dot,
               traj.theta.theta, traj.theta.theta_dot, traj.theta.theta_ddot,
               pulse.area, pulse.beta_final, pulse.adiabaticity_residual)
        # the refinement adds points where the consistency start's field
        # spikes; from rest it adds none
        assert (pulse.t.size > params.n_samples) == (init == "consistency")
        for value, oracle in zip(got, ref):
            value, oracle = np.asarray(value), np.asarray(oracle)
            assert value.shape == oracle.shape
            assert value.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("c", [0.04, 0.073])
    def test_refinement_calls_no_theta_profile(self, monkeypatch, c):
        # theta_profile gives the start and then the final times, uniform
        # and added at once; the grid's and the refinement's Omega take
        # theta_dot alone
        calls = []

        def spy(t, T):
            calls.append(np.ndim(t))
            return theta_profile(t, T)

        monkeypatch.setattr(designer, "theta_profile", spy)
        pulse, _ = design_pulse(DesignParams(c=c))
        assert pulse.t.size > 4001
        assert calls == [0, 1]


class TestDormandPrince:
    """The in-repo Dormand-Prince 5(4) stepper behind design_pulse, with
    scipy's RK45 and a list-form transcription of the tableau as oracles."""

    @staticmethod
    def both_forms(rhs, oracle_rhs, y0, t_end, rtol, atol):
        """_dopri5 on rhs and dopri5_lists on oracle_rhs, both f(s, *y), from
        y0, asserted equal bit for bit: the (s, *y) of every f call, the
        states check saw, and ss, ys and q.  Returns _dopri5's Solution and
        its calls as rows (s, *y)."""
        runs = []
        for stepper, g in ((_dopri5, rhs), (dopri5_lists, oracle_rhs)):
            calls, seen = [], []

            def f(s, *y, g=g):
                calls.append((s, *y))
                return g(s, *y)

            runs.append((stepper(f, y0, t_end, rtol, atol,
                                 lambda *y: seen.append(y)),
                         np.array(calls), np.array(seen)))
        (sol, calls, seen), (ref, ref_calls, ref_seen) = runs
        assert calls.shape == ref_calls.shape and len(calls) == sol.nfev
        for got, want in zip((calls, seen, sol.ss, sol.ys, sol.q),
                             (ref_calls, ref_seen, *ref)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # check saw every accepted state; the run ends on the first step
        # whose clock reaches the end, unclamped
        assert seen.T.tobytes() == sol.ys[:, 1:].tobytes()
        assert sol.ys[0, -2] < t_end <= sol.ys[0, -1]
        return sol, calls

    @pytest.mark.parametrize("rhs, rtol, atol", [(smooth, 1e-9, 1e-11),
                                                 (smooth, 1e-6, 1e-8),
                                                 (stiff, 1e-6, 1e-8)])
    def test_bit_identical_to_list_form(self, rhs, rtol, atol):
        sol, calls = self.both_forms(unpacked(rhs), unpacked(rhs),
                                     (0.0, 1.0, 0.5), 10.0, rtol, atol)
        ss, ys, q = sol.ss, sol.ys, sol.q
        x = np.concatenate((np.linspace(0.0, ss[-1], 1001), ss,
                            0.5 * (ss[1:] + ss[:-1])))
        np.testing.assert_allclose(_dense(sol, *_locate(ss, x)),
                                   dense_lists(ss, ys, q, x), rtol=1e-14,
                                   atol=1e-14)
        if rhs is stiff:  # the rejection branch of the controller ran
            assert len(calls) > 2 + 6 * (ss.size - 1)

    # the last four: runs in which the error norm's sum, taken in another
    # order, rounds another way and accepts or rejects another step (among
    # them c = 0.042296 on both branches, 0.032351 and 0.090423 on branch
    # -1 and 0.073077 on branch +1)
    @pytest.mark.parametrize("c", [0.03, 0.073, 0.10,
                                   0.032351, 0.042296, 0.073077, 0.090423])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("init", ["consistency", "zero"])
    def test_s_form_run_bit_identical_to_list_form(self, monkeypatch, c, sign,
                                                   init):
        # the design's own run, from the start, to the end and at the
        # tolerances design_pulse hands _dopri5: _s_form against the list
        # form on the profile formula
        starts = []
        dopri5 = designer._dopri5
        monkeypatch.setattr(designer, "_dopri5", lambda f, *args: (
            starts.append(args) or dopri5(f, *args)))
        _, trajectory = design_pulse(DesignParams(
            c=c, branch_sign=sign, beta_rate_init=init, n_samples=401))
        (y0, t_end, rtol, atol, _), = starts
        x_rate = 2.0 * c * sign
        sol, _ = self.both_forms(designer._s_form(x_rate),
                                 s_form_of(theta_profile, 1.0, x_rate),
                                 y0, t_end, rtol, atol)
        assert (y0[0], t_end, rtol, atol) == (-4.0, 4.0, ODE_RTOL,
                                             designer.ODE_ATOL)
        # the design's run is the bare run, every field _dopri5 gives, and
        # the s* its clock inversion recorded, which the bare run leaves nan
        assert math.isnan(sol.s_end) and trajectory.solution.s_end > 0
        assert sol == replace(trajectory.solution, s_end=math.nan)

    def test_transient_nan_stage_is_retried(self):
        # a nan in the fourth stage of the sixth attempt: that attempt is
        # rejected and retried from the same state with a fifth of its step
        # (max(0.2, 0.9 nan^-0.2) is 0.2), the same calls in both forms
        def nan_at(n):
            calls = [0]

            def f(s, *y):
                calls[0] += 1
                return (math.nan,) * 3 if calls[0] == n else smooth(s, y)
            return f

        start = (0.0, 1.0, 0.5), 10.0, 1e-9, 1e-11
        clean, clean_calls = self.both_forms(unpacked(smooth),
                                             unpacked(smooth), *start)
        n = 2 + 6 * 5 + 3  # two to start, five attempts, stages 2 to 4
        sol, calls = self.both_forms(nan_at(n), nan_at(n), *start)
        # up to the nan both runs make the same calls, and the clean run
        # accepts the sixth attempt: its last stage is at its end, ss[6]
        assert calls[:n].tobytes() == clean_calls[:n].tobytes()
        assert np.isfinite(calls[n - 1]).all()
        assert calls[n + 2, 0] == clean.ss[6]
        assert sol.ss[:6].tobytes() == clean.ss[:6].tobytes()
        assert sol.ss[6] != clean.ss[6]
        # the retry takes a fifth of the step from ss[5], and is accepted:
        # its second stage is at a fifth and its last at its end
        assert sol.ss[6] - sol.ss[5] == pytest.approx(
            0.2 * (clean.ss[6] - clean.ss[5]), rel=1e-9)
        assert calls[n + 3, 0] == pytest.approx(
            sol.ss[5] + 0.2 * (sol.ss[6] - sol.ss[5]), rel=1e-12)
        assert calls[n + 8, 0] == sol.ss[6]

    @pytest.mark.parametrize("rtol, atol", [(1e-9, 1e-11), (1e-6, 1e-8)])
    def test_matches_scipy_rk45(self, rtol, atol):
        calls = []

        def f(s, *y):
            calls.append(s)
            return smooth(s, y)

        def clock_at_end(s, y):
            return y[0] - 10.0

        clock_at_end.terminal = True
        sol = _dopri5(f, (0.0, 1.0, 0.5), 10.0, rtol, atol, lambda *y: None)
        ss, ys = sol.ss, sol.ys
        # scipy's RK45 with a far end clamps no step and, stopped by a
        # terminal event, has taken the same steps
        ref = solve_ivp(smooth, (0.0, 1e3), (0.0, 1.0, 0.5), method="RK45",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=clock_at_end)
        # the same controller takes the same steps; the error estimate's
        # cancellation lets the summation order move them by round-off
        assert ref.status == 1 and len(calls) == ref.nfev == sol.nfev
        assert ss.shape == ref.t.shape
        np.testing.assert_allclose(ss[:-1], ref.t[:-1], rtol=0, atol=1e-9)
        assert ss[-2] < ref.t_events[0][0] <= ss[-1]
        assert ys.shape == ref.y.shape
        x = np.concatenate((np.linspace(0.0, ss[-2], 1001), ref.t[:-1]))
        np.testing.assert_allclose(_dense(sol, *_locate(ss, x)),
                                   ref.sol(x), rtol=0, atol=1e-12)

    def test_clock_inversion(self):
        # the dense clock at the located (step, fraction) is within the
        # tolerance of every asked time, end points included
        sol = _dopri5(unpacked(smooth), (0.0, 1.0, 0.5), 10.0, 1e-9, 1e-11,
                      lambda *y: None)
        times = np.concatenate((np.linspace(0.0, 10.0, 2001), sol.ys[0, :-1]))
        seg, frac = designer._locate_clock(sol, np.sort(times), 1e-12)
        assert np.all((0 <= frac) & (frac <= 1))
        clock = _dense(sol, seg, frac)[0]
        assert np.max(np.abs(clock - np.sort(times))) <= 1.5e-12

    def test_clock_inversion_at_a_flat_point(self):
        # dt/ds = (s - 1)^2 vanishes at s = 1, t = 0, where Newton's method
        # only creeps (by 2/3 a step) and leaves its step's bracket near the
        # flat point; the guarded steps still get every time
        def flat(s, t, p, q):
            return (s - 1.0) ** 2, 0.0, 0.0
        sol = _dopri5(flat, (-1 / 3, 0.0, 0.0), 1.0, 1e-9, 1e-11,
                      lambda *y: None)
        times = np.sort(np.concatenate((np.linspace(-1 / 3, 1.0, 2001),
                                        [0.0, 1e-9, -1e-9])))
        seg, frac = designer._locate_clock(sol, times, 1e-12)
        clock = _dense(sol, seg, frac)[0]
        assert np.max(np.abs(clock - times)) <= 1e-12

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_nan_rhs_is_design_error(self, start):
        # from s = start the right-hand side is nan, which rejects every
        # step until the step falls below 10 ulp of s; t_fail is the clock
        # there (t = s before start)
        def f(s, *y):
            return (1.0, 0.0, 0.0) if s < start else (math.nan,) * 3
        with pytest.raises(DesignError, match="Required step size is less "
                           "than spacing between numbers") as info:
            _dopri5(f, (0.0, 1.0, 0.5), 1.0, 1e-9, 1e-11, lambda *y: None)
        assert start - 1e-12 < info.value.t_fail <= start

    @pytest.mark.parametrize("rate", [1e160, 1e300, math.inf, math.nan])
    def test_overflowing_first_derivative_is_design_error(self, rate):
        # f / scale overflows the first derivative's RMS norm, which makes
        # the initial step 0 (no division by it) or nan: no step can be
        # taken, and t_fail is the clock at the start
        calls = [0]

        def f(s, *y):
            calls[0] += 1
            return 1.0, 0.0, rate

        with pytest.raises(DesignError, match="Required step size is less "
                           "than spacing between numbers") as info:
            _dopri5(f, (-4.0, 1.0, 0.5), 4.0, 1e-9, 1e-11, lambda *y: None)
        assert info.value.t_fail == -4.0 and calls == [1]

    def test_clock_inversion_that_cannot_converge(self):
        # no miss is within a negative tolerance: after _CLOCK_STEPS steps
        # the first time not reached is named
        sol = _dopri5(unpacked(smooth), (0.0, 1.0, 0.5), 10.0, 1e-9, 1e-11,
                      lambda *y: None)
        with pytest.raises(DesignError, match=f"not inverted to -1 in "
                           f"{designer._CLOCK_STEPS} steps") as info:
            designer._locate_clock(sol, np.array([0.1, 0.2]), -1.0)
        assert info.value.t_fail == 0.1

    def test_reference_designs_take_rk45_steps(self, monkeypatch):
        # the s-form's right-hand-side evaluations, at a third of the
        # t-form's or fewer; allow one rejected step (6 calls)
        calls = [0]

        def counted(f, *args):
            def g(*y):
                calls[0] += 1
                return f(*y)
            return dopri5(g, *args)

        dopri5 = designer._dopri5
        monkeypatch.setattr(designer, "_dopri5", counted)
        for c, nfev in RK45_NFEV.items():
            assert 3 * nfev <= T_FORM_NFEV[c]
            calls[0] = 0
            design_pulse(DesignParams(c=c, n_samples=401))
            assert abs(calls[0] - nfev) <= 6, c

    def test_rhs_spans_count_nfev(self, monkeypatch):
        # the s-form's right-hand side is the function designer._s_form
        # returns, called once per evaluation; the benchmark's spans wrap
        # designer.beta_acceleration (as designer.rhs), which the s-form does
        # not call, and designer.theta_profile, which gives the start alone
        counts = {"f": 0, "rhs": 0, "acceleration": 0, "theta": 0}

        def counted(key, fn, scalar_only=False):
            def wrapper(*args):
                counts[key] += not scalar_only or np.ndim(args[0]) == 0
                return fn(*args)
            return wrapper

        dopri5, s_form = designer._dopri5, designer._s_form
        monkeypatch.setattr(designer, "_dopri5",
                            lambda f, *args: dopri5(counted("f", f), *args))
        monkeypatch.setattr(designer, "_s_form",
                            lambda *args: counted("rhs", s_form(*args)))
        monkeypatch.setattr(designer, "beta_acceleration", counted(
            "acceleration", designer.beta_acceleration))
        monkeypatch.setattr(designer, "theta_profile", counted(
            "theta", designer.theta_profile, scalar_only=True))
        for init in ("consistency", "zero"):
            counts.update(f=0, rhs=0, acceleration=0, theta=0)
            design_pulse(DesignParams(c=0.073, n_samples=401,
                                      beta_rate_init=init))
            assert counts["f"] > 0
            assert counts["rhs"] == counts["f"]
            assert counts["acceleration"] == 0
            assert counts["theta"] == 1

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(-8.0, 8.0) | st.sampled_from([math.inf, math.nan]),
           beta=st.floats(-10.0, 10.0) | st.sampled_from([0.0, math.inf]),
           x=st.floats(-10.0, 10.0) | st.sampled_from([math.pi, math.nan]),
           c=st.floats(1e-4, 10.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_s_form_is_the_profile_formula(self, t, beta, x, c, sign):
        # theta and theta_dot written out in the right-hand side give the
        # floats of theta_profile's formula at T = 1, nan where a stage is
        # not finite
        y = (t, beta, x)  # t in units of T: the ramp and its tails
        got = designer._s_form(2.0 * c * sign)(0.0, *y)
        ref = s_form_of(theta_profile, 1.0, 2.0 * c * sign)(0.0, *y)
        got, ref = (np.array(v) for v in (got, ref))  # every bit, one nan
        assert (np.where(np.isnan(got), np.nan, got).tobytes()
                == np.where(np.isnan(ref), np.nan, ref).tobytes())

    def test_failure_names_c_and_time(self):
        # at c = 1 the mixing angle runs through 0
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=1.0, n_samples=401))
        message = str(info.value)
        assert message.startswith("c = 1 (T = 1): constrained integration "
                                  "failed at t = 0.2391")
        assert ": the mixing angle x left (0, pi), at -0.01" in message
        assert info.value.t_fail == pytest.approx(0.2391, abs=1e-4)

    @pytest.mark.parametrize("c, t_fail", [(0.1164, 0.934931),
                                           (0.0489, -0.198721)])
    def test_vanishing_sin_beta_names_c_and_time(self, c, t_fail):
        # on branch +1 at kappa = 5.5 these designs bounce through sin(beta)
        # = 0 between accepted states, and a sample there has beta above pi
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=c, kappa=5.5, branch_sign=1,
                                      n_samples=401))
        assert str(info.value).startswith(
            f"c = {c:g} (T = 1): constrained integration failed at "
            f"t = {t_fail:.6g}: beta left (0, pi), at 1.0000000000000")
        assert info.value.t_fail == pytest.approx(t_fail, abs=1e-6)

    @pytest.mark.parametrize("c, kappa, n, branch, t_fail", [
        (0.073, 5.9, 401, -1, 0.138916), (0.04, 5.0, 401, 1, -0.332729),
        (0.05, 4.8, 4001, 1, -0.182779), (0.04, 4.5, 16001, -1, -0.332729)])
    def test_sample_outside_the_range_is_design_error(self, c, kappa, n,
                                                      branch, t_fail):
        # the bounce sinks below what the accepted states resolve, and a
        # sample between them has beta past 0 (branch -1) or pi (branch +1);
        # the message shows which side
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=c, kappa=kappa, n_samples=n,
                                      branch_sign=branch))
        message = str(info.value)
        prefix = (f"c = {c:g} (T = 1): constrained integration failed at "
                  f"t = {t_fail:.6g}: beta left (0, pi), at ")
        assert message.startswith(prefix) and message.endswith(" pi")
        side = float(message[len(prefix):-3])
        assert side < 0 if branch == -1 else side > 1
        assert info.value.t_fail == pytest.approx(t_fail, abs=1e-6)

    def test_returned_samples_inside_the_range(self, monkeypatch):
        # every sample of a design that returns has beta and x in (0, pi);
        # x is read from the dense states the samples are taken from
        dense, states = designer._dense, []

        def recorded(*args):
            states.append(dense(*args))
            return states[-1]

        monkeypatch.setattr(designer, "_dense", recorded)
        returned = 0
        for c in np.arange(3, 11) / 100:
            for kappa in (4.0, 5.0):
                states.clear()
                try:
                    _, trajectory = design_pulse(DesignParams(
                        c=c, kappa=kappa, n_samples=401))
                except DesignError:
                    assert kappa != 4.0
                    continue
                returned += 1
                x_of = dict(zip(*np.concatenate(states, axis=1)[1:]))
                x = np.array([x_of[b] for b in trajectory.beta[1:]])
                for angle in (trajectory.beta, x):
                    assert np.all((0.0 < angle) & (angle < np.pi))
        assert returned >= 12

    def test_beta_leaving_is_named(self, monkeypatch):
        # theta held at pi/2 with theta_dot = 10: from x0 = pi/2 the mixing
        # angle rises by 2c theta_dot ds and beta moves by theta_dot cos(x)
        # ds, so beta = pi/2 + (sin(x) - 1) / (2c) reaches 0 at x = 1.82,
        # near t = -3
        def held(t, T):
            return ThetaSample(np.pi / 2 + 0 * t, 10.0 + 0 * t, 0 * t)

        monkeypatch.setattr(designer, "theta_profile", held)  # the start
        monkeypatch.setattr(designer, "_s_form",
                            lambda x_rate: s_form_of(held, 1.0, x_rate))
        with pytest.raises(DesignError, match=r"^c = 0\.01 \(T = 1\): "
                           r"constrained integration failed at t = .*: beta "
                           r"left \(0, pi\), at -") as info:
            design_pulse(DesignParams(c=0.01, beta_rate_init="zero",
                                      branch_sign=1, n_samples=101))
        assert -4.0 < info.value.t_fail < 4.0

    @pytest.mark.parametrize("c, kappa", [(0.073, 6.0), (0.073, 7.0),
                                          (0.073, 10.0), (100.0, 20.0)])
    def test_wide_window_is_design_error(self, c, kappa):
        # erf(-kappa) rounds to -1 from kappa = 5.925 at any T, so theta = 0
        # and cot(theta) would divide by zero on every step; that is named
        # before integrating
        assert theta_profile(-kappa, 1.0).theta == 0.0
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=c, kappa=kappa, n_samples=101))
        assert str(info.value) == (
            f"c = {c:g} (T = 1): constrained integration failed at "
            f"t = {-kappa:g}: theta rounds to 0 at the window start "
            f"(kappa = {kappa:g}), so cot(theta) is infinite there")
        assert info.value.t_fail == -kappa

    def test_non_finite_field_is_design_error(self):
        # erf(-6) rounds to -1: theta(-6) = 0 and cot(theta) is inf there
        params = DesignParams(c=0.01, kappa=6, beta_rate_init="zero",
                              n_samples=101)
        with pytest.raises(DesignError, match="theta rounds to 0") as info:
            design_pulse(params)
        assert str(info.value).startswith("c = 0.01 (T = 1): constrained "
                                          "integration failed at t = -6: ")
        assert info.value.t_fail == -6.0

    def test_kappa_5_9_designs(self):
        # the widest window where theta(-kappa T) is still above 0: c = 0.10
        # designs the kappa = 4 pulse there, and c = 0.073 integrates but a
        # sample in its bounce (t = 0.1389) has beta below 0
        assert theta_profile(-5.9, 1.0).theta > 0.0
        pulse, _ = design_pulse(DesignParams(c=0.10, kappa=5.9,
                                             n_samples=401))
        narrow, _ = design_pulse(DesignParams(c=0.10, n_samples=401))
        assert pulse.area == pytest.approx(narrow.area, rel=1e-6)
        with pytest.raises(DesignError, match=r"failed at t = 0\.138916: "
                           r"beta left \(0, pi\), at -") as info:
            design_pulse(DesignParams(c=0.073, kappa=5.9, n_samples=401))
        assert info.value.t_fail == pytest.approx(0.138916, abs=1e-6)

    def test_non_finite_diagnostic_field_is_design_error(self, monkeypatch):
        # a field sample that is not finite is named at its time: theta_dot
        # of the sampled profile is inf at the eighth sample
        def inf_at_sample_7(t, T):
            theta = profile(t, T)
            if np.ndim(t):
                theta.theta_dot = np.where(t == t_7, np.inf, theta.theta_dot)
            return theta

        t_7 = np.linspace(-4, 4, 101)[7]
        profile = designer.theta_profile
        monkeypatch.setattr(designer, "theta_profile", inf_at_sample_7)
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=0.073, n_samples=101))
        assert str(info.value) == ("c = 0.073 (T = 1): the fields are not "
                                   "finite at t = -3.44")
        assert info.value.t_fail == np.linspace(-4, 4, 101)[7]

    @pytest.mark.parametrize("c", [0.03, 0.04, 0.073, 0.10])
    def test_kappa_5_designs(self, c):
        # kappa = 5 designs the kappa = 4 pulse, whose area does not depend
        # on the window, also at c = 0.03 with its four bounces; at c = 0.04
        # a sample in the bounce at t = -0.3327 has beta below 0
        params = DesignParams(c=c, kappa=5.0, n_samples=401)
        if c == 0.04:
            with pytest.raises(DesignError, match=r"failed at t = -0\.332729: "
                               r"beta left \(0, pi\), at -") as info:
                design_pulse(params)
            assert info.value.t_fail == pytest.approx(-0.332729, abs=1e-6)
            return
        wide, _ = design_pulse(params)
        narrow, _ = design_pulse(DesignParams(c=c, n_samples=401))
        assert wide.area == pytest.approx(narrow.area, rel=1e-7)
        assert wide.adiabaticity_residual <= 1e-3 * c

    def test_non_finite_start_is_design_error(self):
        # the consistency rate sqrt(|theta_ddot| / (2c)) overflows at the
        # smallest c; at T = 1e-200 the design in units of T goes through,
        # and theta_ddot / T^2 overflows on the output
        with pytest.raises(DesignError, match="initial state is not finite"):
            design_pulse(DesignParams(c=5e-324, n_samples=401))
        with pytest.raises(DesignError, match=r"^c = 0\.073 \(T = 1e-200\): "
                           r"the fields are not finite at t = -4e-200$"):
            design_pulse(DesignParams(c=0.073, T=1e-200, n_samples=401))

    @pytest.mark.parametrize("c", [1e153, 1e200, 1.7e308])
    def test_huge_c_is_design_error(self, c):
        # dx/ds = 2c theta_dot overflows the first derivative's norm, and
        # the stepper cannot take its first step (c = 1e152 gets one, and x
        # leaves (0, pi) at once)
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=c, n_samples=401))
        assert str(info.value) == (
            f"c = {c:g} (T = 1): constrained integration failed at t = -4: "
            f"Required step size is less than spacing between numbers.")
        assert info.value.t_fail == -4.0

    def test_import_leaves_scipy_out(self):
        src = str(Path(designer.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = ("import sys, qiepulse, qiepulse.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"


class TestSolution:
    """The stepper's run, kept on the trajectory in units of T."""

    def test_nfev_counts_the_right_hand_side(self, monkeypatch):
        # nfev is the count of a wrapper on _s_form's rhs; each attempt
        # takes six evaluations, after two to start
        calls = [0]
        s_form = designer._s_form

        def counted(x_rate):
            rhs = s_form(x_rate)

            def wrapper(*args):
                calls[0] += 1
                return rhs(*args)
            return wrapper

        monkeypatch.setattr(designer, "_s_form", counted)
        for c in RK45_NFEV:
            calls[0] = 0
            solution = design_pulse(DesignParams(c=c, n_samples=401))[1].solution
            steps = solution.ss.size - 1
            assert solution.nfev == calls[0] == RK45_NFEV[c]
            assert solution.nfev == 2 + 6 * (steps + solution.rejected)
            assert 1 <= solution.rejected <= 4

    def test_rejections_are_counted(self):
        # the stiff oracle system rejects steps: every attempt past the
        # accepted ones is one
        calls = [0]

        def f(s, *y):
            calls[0] += 1
            return stiff(s, y)

        solution = _dopri5(f, (0.0, 1.0, 0.5), 10.0, 1e-6, 1e-8,
                           lambda *y: None)
        # a bare run records no s*: only design_pulse inverts its clock
        assert solution.rejected > 0 and math.isnan(solution.s_end)
        assert calls[0] == solution.nfev == 2 + 6 * (solution.ss.size - 1
                                                     + solution.rejected)

    @pytest.mark.parametrize("c", [0.04, 0.073])
    def test_uniform_samples_from_the_record(self, c):
        # the record's dense output at the inverted clock gives the
        # trajectory's angles at the uniform grid, bit for bit past the
        # start, which is set exactly
        params = DesignParams(c=c, n_samples=401)
        pulse, trajectory = design_pulse(params)
        solution = trajectory.solution
        tau = designer._grid(params)
        y = _dense(solution, *designer._locate_clock(solution, tau,
                                                     designer.CLOCK_TOL))
        uniform = np.isin(pulse.t, tau)
        assert np.count_nonzero(uniform) == 401
        assert trajectory.beta[uniform][1:].tobytes() == y[1, 1:].tobytes()
        assert np.max(np.abs(y[0] - tau)) <= designer.CLOCK_TOL

    @pytest.mark.parametrize("n", [401, 4001, 16001])
    @pytest.mark.parametrize("T", [1.0, 3.0])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("init", ["consistency", "zero"])
    def test_s_end_is_the_clock_at_the_window_end(self, n, T, sign, init):
        # the s* a design records from its grid's clock inversion is, bit
        # for bit, the one-point inversion at the window end kappa, and both
        # of the report's drives end their last interval there
        params = DesignParams(c=0.073, T=T, n_samples=n, branch_sign=sign,
                              beta_rate_init=init)
        solution = design_pulse(params)[1].solution
        ss = solution.ss
        seg, frac = designer._locate_clock(solution, np.array([4.0]),
                                           designer.CLOCK_TOL)
        one_point = ss[seg] + frac * (ss[seg + 1] - ss[seg])
        assert type(solution.s_end) is float
        assert np.float64(solution.s_end).tobytes() == one_point.tobytes()
        for m in (2, 0.5):
            s = designer._sundman(solution, m)[0]
            assert s[-1] == solution.s_end and s[-2] < s[-1]

    def test_the_record_is_in_units_of_T_and_not_compared(self):
        # a design at T keeps the T = 1 run; the record is no part of the
        # trajectory's value, nor a public name
        _, one = design_pulse(DesignParams(c=0.073, n_samples=401))
        _, three = design_pulse(DesignParams(c=0.073, T=3.0, n_samples=401))
        assert three.solution == one.solution
        assert replace(one, solution=None) == one
        assert "Solution" not in designer.__all__


class TestSundman:
    """designer._sundman: the design's drive in its Sundman time, as the
    fourth-order Magnus step (M4) takes it, one exponential per interval."""

    @staticmethod
    def scan(trajectory, m, target, scales):
        """Final fidelities of the M4 drive at m intervals per accepted
        step, over the (scale_omega, scale_delta) rows."""
        drive = _drive(trajectory.solution, m)
        return fidelity(final_states_over_errors(drive, ket1(), *scales, 1),
                        target)

    @pytest.mark.parametrize("c", [0.04, 0.073])
    @pytest.mark.parametrize("m", [0.5, 1, 2, 4])
    def test_nodes_and_fields(self, c, m):
        _, trajectory = design_pulse(DesignParams(c=c, n_samples=401))
        solution = trajectory.solution
        s, omega, delta, y = designer._sundman(solution, m)
        assert s[0] == 0.0 and np.all(np.diff(s) > 0)
        steps = solution.ss.size - 1
        inner = s[:-1]
        if m < 1:
            # one interval per two accepted steps: its ends are every other
            # accepted time, then s*
            np.testing.assert_array_equal(inner, solution.ss[:-1:2])
        else:
            # m intervals in each accepted step up to s*, inside the last one
            assert m * (steps - 1) < s.size - 1 <= m * steps
            np.testing.assert_array_equal(inner[::m],
                                          solution.ss[:inner[::m].size])
        # the clock: -kappa at the start, kappa within CLOCK_TOL at s*, the
        # s_end the design recorded
        assert s[-1] == solution.s_end
        clock = _dense(solution, *_locate(solution.ss, s[[0, -1]]))[0]
        assert clock[0] == -4.0
        assert abs(clock[1] - 4.0) <= designer.CLOCK_TOL
        assert solution.ss[-2] < s[-1] <= solution.ss[-1]
        # no spike: theta_dot (sin x, cos x) is at most sqrt(pi)/2; one
        # exponential per interval, of the mean of two such at the Gauss
        # nodes times a quarter of the width h, and of y = (sqrt(3)/48) h^2
        # (Omega_1 Delta_2 - Omega_2 Delta_1), at most (sqrt(3)/48) h^2 pi/4
        assert omega.shape == delta.shape == y.shape == (s.size - 1,)
        h = np.diff(s)
        assert np.all(np.hypot(omega, delta) <= math.sqrt(math.pi) / 2 * h / 4
                      * (1 + 1e-15))
        assert np.all(np.abs(y) <= math.sqrt(3) / 48 * h ** 2 * math.pi / 4
                      * (1 + 1e-15))
        assert np.all(omega < 0)  # -Omega dt/4, and Omega dt/ds > 0
        # the fields as the docstring states them, from the nodes' fields
        nodes = (s[:-1, None] + designer._GAUSS * h[:, None]).ravel()
        tau, _, x = _dense(solution, *_locate(solution.ss, nodes))
        (o1, o2), (d1, d2) = ((designer._theta_dot(tau) * f(x)).reshape(-1, 2).T
                              for f in (np.sin, np.cos))
        np.testing.assert_allclose(omega, -(o1 + o2) * h / 8, rtol=1e-15, atol=0)
        np.testing.assert_allclose(delta, (d1 + d2) * h / 8, rtol=1e-15, atol=0)
        np.testing.assert_allclose(y, math.sqrt(3) / 48 * h ** 2
                                   * (o1 * d2 - o2 * d1), rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize("c", [0.04, 0.073])
    def test_fourth_order(self, c):
        # each halving of the interval divides the gap to the m = 32 scan by
        # about 2^4 = 16 (15.8 to 16.0 measured)
        pulse, trajectory = design_pulse(DesignParams(c=c, n_samples=401))
        d = np.linspace(-0.5, 0.5, 21)
        scales = (np.r_[1 + d, np.ones(21)], np.r_[np.ones(21), 1 + d])
        target = TargetState(pulse.beta_final)
        reference = self.scan(trajectory, 32, target, scales)
        gap = [np.max(np.abs(self.scan(trajectory, m, target, scales)
                             - reference)) for m in (0.5, 1, 2, 4)]
        assert 12 <= gap[0] / gap[1] <= 20
        assert 12 <= gap[1] / gap[2] <= 20
        assert 12 <= gap[2] / gap[3] <= 20
