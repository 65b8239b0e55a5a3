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


def stiff(t, y):
    # the third state relaxes onto cos(t) at rate 300, so steps get rejected
    return (y[1], -y[0] - 0.1 * y[1] * y[2], -300.0 * (y[2] - math.cos(t)))


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


def dopri5_lists(f, t0, t1, y0, rtol, atol):
    """The stepper with its state and stages as lists, one comprehension
    per stage: the oracle that _dopri5, which holds them as float locals,
    must match to the bit.  Same controller; every sum left to right."""
    n = len(y0)
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = DP_A

    def rms(v):
        total = 0.0
        for x in v:
            total += x * x
        return math.sqrt(total / n)

    t, t1, y = float(t0), float(t1), [float(v) for v in y0]
    k1 = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = rms([v / s for v, s in zip(y, scale)])
    d1 = rms([v / s for v, s in zip(k1, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    f1 = f(t + h0, [v + h0 * a for v, a in zip(y, k1)])
    d2 = rms([(a - b) / s for a, b, s in zip(f1, k1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t)
    ts, ys, ks = [t], [y], []
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            k2 = f(t + DP_C2 * h, [v + (a21 * a) * h for v, a in zip(y, k1)])
            k3 = f(t + DP_C3 * h, [v + (a31 * a + a32 * b) * h
                                   for v, a, b in zip(y, k1, k2)])
            k4 = f(t + DP_C4 * h, [v + (a41 * a + a42 * b + a43 * c) * h
                                   for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f(t + DP_C5 * h, [v + (a51 * a + a52 * b + a53 * c
                                        + a54 * d) * h
                                   for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [v + (a61 * a + a62 * b + a63 * c + a64 * d
                                + a65 * e) * h
                           for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (DP_B1 * a + DP_B3 * c + DP_B4 * d + DP_B5 * e
                              + DP_B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y_new)
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
        ks.append((k1, k2, k3, k4, k5, k6, k7))
        t, y, k1 = t_new, y_new, k7
        ts.append(t)
        ys.append(y)

    ts, ys = np.array(ts), np.array(ys).T
    widths = np.diff(ts)
    q = np.einsum("skn,kp->snp", np.array(ks), DP_P)

    def dense(times):
        seg = np.clip(np.searchsorted(ts, times, side="left") - 1, 0,
                      widths.size - 1)
        x = (times - ts[seg]) / widths[seg]
        powers = np.cumprod(np.broadcast_to(x, (4, x.size)), axis=0)
        return (widths[seg] * np.einsum("snp,ps->ns", q[seg], powers)
                + ys[:, seg])

    return ts, ys, dense


class TestDormandPrince:
    """The in-repo Dormand-Prince 5(4) stepper behind design_pulse, with
    scipy's RK45 and a list-form transcription of the tableau as oracles."""

    @pytest.mark.parametrize("rhs, rtol, atol", [(smooth, 1e-9, 1e-11),
                                                 (smooth, 1e-6, 1e-8),
                                                 (stiff, 1e-6, 1e-8)])
    def test_bit_identical_to_list_form(self, rhs, rtol, atol):
        runs = []
        for stepper in (_dopri5, dopri5_lists):
            calls = []

            def f(t, y):
                calls.append((t, *y))
                return rhs(t, y)

            runs.append((stepper(f, 0.0, 10.0, (1.0, 0.0, 0.5), rtol, atol),
                         np.array(calls)))
        ((ts, ys, dense), calls), ((ts_ref, ys_ref, dense_ref), ref) = runs
        np.testing.assert_array_equal(calls, ref)  # every (t, y) f was given
        np.testing.assert_array_equal(ts, ts_ref)
        np.testing.assert_array_equal(ys, ys_ref)
        x = np.concatenate((np.linspace(0.0, 10.0, 1001), ts,
                            0.5 * (ts[1:] + ts[:-1])))
        np.testing.assert_array_equal(dense(x), dense_ref(x))
        if rhs is stiff:  # the rejection branch of the controller ran
            assert len(calls) > 2 + 6 * (ts.size - 1)

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

    def test_rhs_spans_count_nfev(self, monkeypatch):
        # the benchmark's spans wrap designer.beta_acceleration and
        # designer.theta_profile, and bench/layers.json reads the first as
        # nfev: one call of each per evaluation, plus the scalar
        # theta_profile call of the consistency rate
        counts = {"f": 0, "acceleration": 0, "theta": 0}

        def counted(key, fn, scalar_only=False):
            def wrapper(*args):
                counts[key] += not scalar_only or np.ndim(args[0]) == 0
                return fn(*args)
            return wrapper

        dopri5 = designer._dopri5
        monkeypatch.setattr(designer, "_dopri5",
                            lambda f, *args: dopri5(counted("f", f), *args))
        monkeypatch.setattr(designer, "beta_acceleration", counted(
            "acceleration", designer.beta_acceleration))
        monkeypatch.setattr(designer, "theta_profile", counted(
            "theta", designer.theta_profile, scalar_only=True))
        design_pulse(DesignParams(c=0.073, n_samples=401))
        assert counts["f"] == RK45_NFEV[0.073]
        assert counts["acceleration"] == counts["f"]
        assert counts["theta"] == counts["f"] + 1

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
        # erf(-6) rounds to -1: theta(-6) = 0 and cot(theta) is inf, so every
        # step from t = -6 is rejected
        params = DesignParams(c=0.01, kappa=6, beta_rate_init="zero",
                              n_samples=101)
        with pytest.raises(DesignError, match="Required step size") as info:
            design_pulse(params)
        assert str(info.value).startswith("c = 0.01 (T = 1): constrained "
                                          "integration failed at t = -6: ")
        assert info.value.t_fail == -6.0

    def test_non_finite_diagnostic_field_is_design_error(self, monkeypatch):
        # a Delta sample that is not finite is named at its time
        def inf_at_sample_7(*args):
            omega, delta, mu = diagnostics(*args)
            delta[7] = -np.inf
            return omega, delta, mu

        diagnostics = designer.analytic_diagnostics
        monkeypatch.setattr(designer, "analytic_diagnostics", inf_at_sample_7)
        with pytest.raises(DesignError) as info:
            design_pulse(DesignParams(c=0.073, n_samples=101))
        assert str(info.value) == ("c = 0.073 (T = 1): the fields are not "
                                   "finite at t = -3.44")
        assert info.value.t_fail == np.linspace(-4, 4, 101)[7]

    @pytest.mark.parametrize("c", [0.04, 0.073, 0.10])
    def test_kappa_5_designs(self, c):
        # the window tails are stiff but never floored: kappa = 5 designs the
        # kappa = 4 pulse, whose area does not depend on the window
        wide, _ = design_pulse(DesignParams(c=c, kappa=5.0, n_samples=401))
        narrow, _ = design_pulse(DesignParams(c=c, n_samples=401))
        assert wide.area == pytest.approx(narrow.area, rel=1e-7)
        assert wide.adiabaticity_residual <= 1e-3 * c

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
