import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import qiepulse.designer as designer
from qiepulse import (
    DegeneracyError,
    DesignError,
    DesignParams,
    ParameterError,
    Pulse,
    analytic_diagnostics,
    design_pulse,
    pi_half_baseline,
)
from qiepulse.designer import _area, _constraint, _dopri5, beta_acceleration
from qiepulse.profiles import ThetaSample, theta_profile

# regression pins for the shipped default configuration
# (branch_sign=-1, consistency init); see README for the endpoint discussion
EXPECTED_AREAS_PI = {0.073: 1.9595, 0.060: 2.9706, 0.050: 3.1706, 0.040: 4.2877}
EXPECTED_ABS_BETA_FINAL_PI = {0.073: 0.0797, 0.060: 0.0398, 0.050: 0.0634,
                              0.040: 0.0317}
# right-hand-side evaluations scipy's RK45 (solve_ivp) took on these designs
RK45_NFEV = {0.073: 6710, 0.060: 11042, 0.050: 11024, 0.040: 15410}
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
    """The field inversion: the first two outputs of designer._constraint,
    on floats (the design ODE) and on arrays (the refinement and the
    diagnostics)."""

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
        # the array view the refinement calls gives the same fields
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
        # theta_dot = beta_dot = 0 at beta = pi/2: Omega = Delta = 0
        with pytest.raises(DegeneracyError):
            analytic_diagnostics(sample(np.pi / 4, 0.0, 1.0), np.pi / 2, 0.0,
                                 0.073, -1)

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

    def test_stiffness_floor(self):
        # below the Omega floor there is no acceleration to return; the
        # integrator holds its last value there
        assert beta_acceleration(sample(np.pi / 4, 1e-12), np.pi / 2, 0.0,
                                 0.073, -1) is None

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
        # the ascending start designs on the mirrored branch
        _, up = design_pulse(DesignParams(c=0.073, n_samples=401,
                                          consistency_sign=1, branch_sign=1))
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
        dict(c=0.073, branch_sign=0),
        dict(c=0.073, beta_rate_init="random"),
        dict(c=0.073, ode_rel_tol=0.0),
        dict(c=np.inf),
        dict(c=0.073, T=np.inf),
        dict(c=0.073, kappa=np.inf),
        dict(c=np.nan),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            DesignParams(**kwargs)


class TestDesignPulse:
    def test_boundary_condition_exact(self, designs4):
        for _, trajectory in designs4.values():
            assert trajectory.beta[0] == np.pi / 2

    def test_array_lengths_consistent(self, designs4):
        pulse, trajectory = designs4[0.073]
        n = pulse.t.size
        for arr in (trajectory.t, pulse.omega, pulse.delta, trajectory.beta,
                    trajectory.beta_dot, trajectory.theta.theta):
            assert arr.shape == (n,)

    def test_constraint_residual_small(self, designs4):
        # the defining property: the analytic adiabaticity parameter stays
        # within 1e-3 * c over the interior 95% of the window
        for c, (pulse, _) in designs4.items():
            assert pulse.adiabaticity_residual <= 1e-3 * c

    def test_regression_endpoints(self, designs4):
        for c, (pulse, _) in designs4.items():
            assert pulse.area / np.pi == pytest.approx(
                EXPECTED_AREAS_PI[c], abs=2e-4)
            assert abs(pulse.beta_final) / np.pi == pytest.approx(
                EXPECTED_ABS_BETA_FINAL_PI[c], abs=2e-4)
            assert pulse.beta_final < 0  # reached azimuth is negative

    def test_area_independent_of_sampling(self, designs4):
        # the area is integrated with the ODE, not read off the samples
        area = designs4[0.073][0].area
        for n in (401, 16001):
            pulse, _ = design_pulse(DesignParams(c=0.073, n_samples=n))
            assert pulse.area == pytest.approx(area, rel=1e-9)

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
        # T -> 2T leaves the dimensionless outputs unchanged
        a = design_pulse(DesignParams(c=0.05, n_samples=801))[0]
        b = design_pulse(DesignParams(c=0.05, T=2.0, n_samples=801))[0]
        assert abs(a.area - b.area) <= 1e-6
        assert abs(a.beta_final - b.beta_final) <= 1e-6

    def test_bit_reproducible(self):
        p1, _ = design_pulse(DesignParams(c=0.06, n_samples=801))
        p2, _ = design_pulse(DesignParams(c=0.06, n_samples=801))
        assert np.array_equal(p1.omega, p2.omega)
        assert np.array_equal(p1.delta, p2.delta)


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
        assert trajectory != "trajectory"
        beta[3] = np.nan  # NaN equals NaN
        assert replace(trajectory, beta=beta) == replace(trajectory,
                                                         beta=beta.copy())


def smooth(t, y):
    return (y[1], -y[0] - 0.1 * y[1] * y[2], math.cos(t) * y[0] - 0.3 * y[2])


class TestDormandPrince:
    """The in-repo Dormand-Prince 5(4) stepper behind design_pulse, with
    scipy's RK45 as the oracle."""

    @pytest.mark.parametrize("rtol, atol", [(1e-9, 1e-11), (1e-6, 1e-8)])
    def test_matches_scipy_rk45(self, rtol, atol):
        calls = []

        def f(t, y):
            calls.append(t)
            return smooth(t, y)

        ts, ys, dense = _dopri5(f, 0.0, 10.0, (1.0, 0.0, 0.5), rtol, atol)
        sol = solve_ivp(smooth, (0.0, 10.0), (1.0, 0.0, 0.5), method="RK45",
                        rtol=rtol, atol=atol, dense_output=True)
        # the same controller takes the same steps; the error estimate's
        # cancellation lets the summation order move them by round-off
        assert len(calls) == sol.nfev
        assert ts.shape == sol.t.shape and ts[-1] == 10.0
        np.testing.assert_allclose(ts, sol.t, rtol=0, atol=1e-9)
        assert ys.shape == sol.y.shape
        x = np.concatenate((np.linspace(0.0, 10.0, 1001), sol.t))
        np.testing.assert_allclose(dense(x), sol.sol(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense(ts), ys, rtol=0, atol=1e-15)

    def test_reference_designs_take_rk45_steps(self, monkeypatch):
        # beta_acceleration runs once per right-hand-side evaluation (the
        # benchmark's designer.rhs.calls); allow one rejected step (6 calls)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return acceleration(*args)

        acceleration = designer.beta_acceleration
        monkeypatch.setattr(designer, "beta_acceleration", counted)
        for c, nfev in RK45_NFEV.items():
            calls[0] = 0
            design_pulse(DesignParams(c=c, n_samples=401))
            assert abs(calls[0] - nfev) <= 6, c

    def test_failure_names_c_and_time(self):
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=1.0, n_samples=401))
        message = str(info.value)
        assert message.startswith("c = 1 (T = 1): constrained integration "
                                  "failed at t = 0.2395: ")
        assert "Required step size is less than spacing between numbers" \
            in message
        assert info.value.t_fail == pytest.approx(0.2395, abs=1e-4)

    @pytest.mark.parametrize("c, kappa", [(0.073, 10.0), (100.0, 20.0)])
    def test_wide_window_is_design_error(self, c, kappa):
        # erf(-kappa) rounds to -1, so theta = 0 and the math right-hand
        # side divides by zero (and later takes sin(inf)); that must reject
        # steps, as numpy's inf and nan did, never escape the designer
        with pytest.raises(DesignError, match="Required step size"):
            design_pulse(DesignParams(c=c, kappa=kappa, n_samples=101))

    def test_non_finite_field_is_design_error(self):
        # erf(-6) rounds to -1: theta(-6) = 0 and cot(theta) is inf, so the
        # design integrates but Delta(-6) is -inf; that is named, and no
        # RuntimeWarning (an error under pytest) escapes the refinement
        params = DesignParams(c=0.01, kappa=6, beta_rate_init="zero",
                              ode_rel_tol=1e-3, ode_abs_tol=1e-5,
                              n_samples=101)
        with pytest.raises(DesignError) as info:
            design_pulse(params)
        assert str(info.value) == ("c = 0.01 (T = 1): the fields are not "
                                   "finite at t = -6")
        assert info.value.t_fail == -6.0

    def test_non_finite_start_is_design_error(self):
        # theta_ddot overflows at T = 1e-200, and with it the initial rate
        with pytest.raises(DesignError, match="initial state is not finite"):
            design_pulse(DesignParams(c=0.073, T=1e-200, n_samples=401))

    def test_import_leaves_scipy_out(self):
        src = str(Path(designer.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = ("import sys, qiepulse, qiepulse.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"
