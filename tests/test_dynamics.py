import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qiepulse import (
    DesignParams,
    ErrorGrid,
    ParameterError,
    Pulse,
    TargetState,
    bloch_from_state,
    design_pulse,
    fidelity,
    ket1,
    pi_half_baseline,
    propagate,
    scan_1d,
    target_state,
)
from qiepulse.dynamics import (
    _BLOCK, _REV, _WIDTH, _Steps, _bounded, _fields, _fields_at, _magnus6,
    _monomials, _su2, _zeros, final_states_over_errors,
)

from conftest import bloch_from_angles


def angle_state(theta, beta):
    """State (cos(theta/2) e^{-i beta/2}, sin(theta/2) e^{i beta/2})."""
    return np.array([np.cos(0.5 * theta) * np.exp(-0.5j * beta),
                     np.sin(0.5 * theta) * np.exp(0.5j * beta)])


def axis_pulse(t, omega, delta):
    """Pulse with the given field samples at the times t."""
    return Pulse(t=t, omega=omega, delta=delta, area=float("nan"),
                 beta_final=float("nan"), adiabaticity_residual=0.0)


def field_pulse(omega, delta, duration=1.0):
    """Pulse with the given field samples on a uniform axis over duration."""
    return axis_pulse(np.linspace(0.0, duration, np.size(omega)), omega, delta)


def m4_steps(om, de, y):
    """_Steps of one monomial per field whose fields are the M4 step fields
    om, de and y (as _fields gives them) on so, sd and so sd, each kept
    where one of its fields is not 0."""
    coef = np.array([[om], [de], [y]], dtype=float)
    return _Steps(coef, coef.any(axis=(0, 1)))


def m6_steps(coef):
    """_Steps of three monomials per field, coef (3, 3, steps), each kept
    where one of its coefficients is not 0, as _magnus6 keeps them."""
    return _Steps(coef, coef.any(axis=(0, 1)))


def flat_pulse(omega, delta, n=11):
    """Constant fields over [0, 1]; the steps of a constant Hamiltonian (no
    sigma_y field) are exact, so closed forms hold at any step count."""
    return field_pulse(np.full(n, float(omega)), np.full(n, float(delta)))


class TestStates:
    def test_target_state_along_u(self):
        np.testing.assert_allclose(target_state(0.0),
                                   np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_target_state_opposite(self):
        np.testing.assert_allclose(target_state(np.pi),
                                   np.array([-1j, 1j]) / np.sqrt(2),
                                   atol=1e-15)

    def test_target_state_accepts_wrapper(self):
        np.testing.assert_array_equal(target_state(TargetState(0.3)),
                                      target_state(0.3))

    @pytest.mark.parametrize("beta_final", [
        "a", None, [1, 2], True, 0.3j, TargetState(None)])
    def test_target_state_needs_one_real_number(self, beta_final):
        with pytest.raises(ParameterError, match="beta_final must be one real"):
            target_state(beta_final)

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for beta in rng.uniform(-2 * np.pi, 2 * np.pi, 50):
            psi = target_state(beta)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)
        for theta, beta in rng.uniform(0, np.pi, (50, 2)):
            psi = angle_state(theta, beta)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)


class TestStepEvolve:
    """The exact exponential of each M4 step, through propagate and the
    batched final_states_over_errors."""

    def test_free_evolution_is_identity(self):
        psi = angle_state(0.7, 0.3)
        traj = propagate(flat_pulse(0.0, 0.0), initial=psi)
        np.testing.assert_array_equal(traj.states, np.tile(psi, (11, 1)))
        finals = final_states_over_errors(flat_pulse(0.0, 0.0), psi,
                                          [1.0, 1.3], [1.0, 0.6])
        np.testing.assert_array_equal(finals, np.tile(psi, (2, 1)))

    def test_resonant_pi_pulse_inverts(self):
        traj = propagate(flat_pulse(np.pi, 0.0))
        assert traj.pop1[-1] == pytest.approx(0.0, abs=1e-14)
        assert traj.pop2[-1] == pytest.approx(1.0, abs=1e-14)
        final = final_states_over_errors(flat_pulse(np.pi, 0.0), ket1(),
                                         [1.0], [1.0])[0]
        assert abs(final[1]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_resonant_half_pulse_hits_equator(self):
        # (1, -i)/sqrt(2) up to global phase, i.e. azimuth -pi/2
        pulse = flat_pulse(0.5 * np.pi, 0.0)
        final = propagate(pulse).states[-1]
        assert fidelity(final, target_state(-0.5 * np.pi)) == pytest.approx(
            1.0, abs=1e-14)
        batch = final_states_over_errors(pulse, ket1(), [1.0], [1.0])[0]
        np.testing.assert_array_equal(batch, final)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        pulse = field_pulse(rng.uniform(-3.0, 3.0, 101),
                            rng.uniform(-3.0, 3.0, 101), duration=5.0)
        psi = angle_state(1.1, 0.4)
        traj = propagate(pulse, initial=psi)
        np.testing.assert_allclose(np.sum(np.abs(traj.states) ** 2, axis=1),
                                   1.0, atol=1e-12)
        scale_om, scale_de = rng.uniform(0.5, 1.5, (2, 20))
        finals = final_states_over_errors(pulse, psi, scale_om, scale_de)
        np.testing.assert_allclose(np.sum(np.abs(finals) ** 2, axis=1), 1.0,
                                   atol=1e-12)

    def test_explicit_axis_steps_each_interval_by_its_width(self):
        # resonant drive: every step commutes, has no sigma_y field, and
        # rotates by exactly the linear interpolant's trapezoid area
        t = np.array([0.0, 0.1, 0.5, 1.0])
        omega = np.array([1.0, 3.0, 2.0, 0.5])
        pulse = Pulse(t=t, omega=omega, delta=np.zeros(4), area=float("nan"),
                      beta_final=float("nan"), adiabaticity_residual=0.0)
        area = float(np.sum(0.5 * (omega[1:] + omega[:-1]) * np.diff(t)))
        expected = np.array([np.cos(0.5 * area), -1j * np.sin(0.5 * area)])
        np.testing.assert_allclose(propagate(pulse).states[-1], expected,
                                   atol=1e-14)
        batch = final_states_over_errors(pulse, ket1(), [1.0], [1.0])[0]
        np.testing.assert_allclose(batch, expected, atol=1e-14)

    def test_batch_rejects_non_finite_input(self):
        delta = np.zeros(11)
        delta[7] = -np.inf
        with pytest.raises(ParameterError,
                           match="delta is not finite at index 7"):
            final_states_over_errors(field_pulse(np.ones(11), delta), ket1(),
                                     [1.0], [1.0])
        with pytest.raises(ParameterError,
                           match="scale_omega is not finite at index 1"):
            final_states_over_errors(flat_pulse(1.0, 0.0), ket1(),
                                     [1.0, np.nan], [1.0, 1.0])


    def test_overflowing_field_rejected(self):
        # the kernel squares each step's scaled fields, -Omega dt/4, Delta
        # dt/4 and y, so they are bounded by 1e150; here, at 2 steps per
        # interval, dt/4 = 0.0125 and the steps next to omega[4] take 0.75
        # of it: 9.4e149
        omega = np.ones(11)
        omega[4] = 1e152
        assert np.all(np.isfinite(propagate(field_pulse(omega, np.zeros(11)),
                                            substeps=2).states))
        bound = "exceeds 1e150 per step"
        with pytest.raises(ParameterError, match=f"scaled omega {bound}"):
            final_states_over_errors(field_pulse(omega, np.zeros(11)), ket1(),
                                     [1.0, 1.1], [1.0, 1.0], 2)
        with pytest.raises(ParameterError, match=f"scaled delta {bound}"):
            propagate(field_pulse(np.ones(11), np.full(11, 1e153)))
        # small fields over spacings whose step fields, or whose widths,
        # overflow; 0 x an infinite width is nan, which is rejected too
        for t, omega in (([0.0, 1e200, 2e200], 1e140),
                         ([-1.7e308, 0.0, 1.7e308], 1.0),
                         ([-1e308, 1e308, 1.5e308], 1.0),
                         ([-1e308, 1e308, 1.5e308], 0.0)):
            with pytest.raises(ParameterError, match=f"scaled omega {bound}"):
                propagate(axis_pulse(t, np.full(3, omega), np.full(3, 1.0)))
        # _Steps given to the batch take the same tail: the bound, nan and
        # the scales' finiteness alike; 1e150 itself passes
        steps = m4_steps([0.0, 1e150, -1.0], [0.0, 1.0, 0.0], np.zeros(3))
        assert np.all(np.isfinite(
            final_states_over_errors(steps, ket1(), [1.0], [1.0], 1)))
        with pytest.raises(ParameterError, match=f"scaled omega {bound}"):
            final_states_over_errors(steps, ket1(), [1.0, 1.1], [1.0, 1.0], 1)
        with pytest.raises(ParameterError, match=f"scaled delta {bound}"):
            final_states_over_errors(m4_steps(np.zeros(3), [0.0, 1.0, np.nan],
                                              np.zeros(3)),
                                     ket1(), [1.0], [1.0], 1)
        with pytest.raises(ParameterError,
                           match="scale_delta is not finite at index 0"):
            final_states_over_errors(steps, ket1(), [1.0], [np.inf], 1)
        for substeps in (2, True):
            with pytest.raises(ParameterError, match="_Steps take substeps = 1"):
                final_states_over_errors(steps, ket1(), [1.0], [1.0], substeps)
        # each term of a step's fields is bounded by its coefficient
        # times its monomial of the scales: |y so sd| of 1e150 passes, of
        # 1e150 x 1.1 x 0.95 = 1.045e150 does not, nor a sixth-order term's
        # 1e150 x 1.1^3; scales whose so sd^2 overflows are nan against the
        # coefficient 0
        crossed = m4_steps([0.0, 1.0], [0.0, 1.0], [0.0, -1e150])
        assert np.all(np.isfinite(
            final_states_over_errors(crossed, ket1(), [1.0, -1.0], [1.0, -1.0])))
        tiny = m4_steps([0.0, 1e-300], [0.0, 1e-300], np.zeros(2))
        cubic, tiny6 = np.zeros((2, 3, 3, 2))
        cubic[2, 2, 1] = 1e150
        tiny6[:, 0] = tiny.coef[:, 0]
        for steps, so, sd, name in ((crossed, [1.0, 1.1], [1.0, 0.95],
                                     r"omega x delta"),
                                    (m6_steps(cubic), [1.0, 1.1], [1.0, 1.0],
                                     r"omega\^3 x delta"),
                                    (tiny, [1e300], [1e10], r"omega x delta"),
                                    (m6_steps(tiny6), [1e300], [1e10],
                                     r"omega x delta\^2")):
            with pytest.raises(ParameterError, match=f"scaled {name} {bound}"):
                final_states_over_errors(steps, ket1(), so, sd)
        # a pulse whose folded Omega and Delta are 1.25e139 but whose y,
        # (dt/4)^2 Omega_0 Delta_1 / 3, is 2.1e278
        with pytest.raises(ParameterError, match=f"scaled omega x delta {bound}"):
            propagate(axis_pulse([0.0, 1e100, 2e100], [1e40, 0.0, 0.0],
                                 [0.0, 1e40, 0.0]))

    def test_branch_populations_of_overflowing_scaled_fields(self):
        # steps of 1e-300 keep the kernel's fields within its bound,
        # but 3 x 1.7e308 and 2 x 1.7e308 overflow: the first sample's mixing
        # angle is still atan2(3, 2), the others' as computed directly, and
        # nothing overflows (RuntimeWarnings are errors here)
        omega = np.array([1.7e308, 2.0, 1e-300])
        delta = np.array([1.7e308, -1.0, 1e-300])
        traj = propagate(axis_pulse([0.0, 1e-300, 2e-300], omega, delta),
                         error=(2.0, 1.0))
        x = np.unwrap([np.arctan2(3.0, 2.0), *np.arctan2(3.0 * omega[1:],
                                                          2.0 * delta[1:])])
        p, q = traj.states.T
        np.testing.assert_allclose(
            traj.adiab_pop_minus, np.abs(np.cos(x / 2) * p - np.sin(x / 2) * q) ** 2,
            rtol=1e-14)
        np.testing.assert_allclose(
            traj.adiab_pop_plus, np.abs(np.sin(x / 2) * p + np.cos(x / 2) * q) ** 2,
            rtol=1e-14)

    # fields from 0 to 1e150 (within 30 decades of a top drawn per pulse)
    # over spacings from 1e-300 to 1e300, rows scaled by [-3, 3] and by 0:
    # what the bound accepts propagates to finite unit states, so nothing
    # downstream needs to look for nan
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_accepted_input_gives_finite_states(self, data):
        n = data.draw(st.integers(3, 8))
        spacing = 10.0 ** data.draw(st.floats(-300.0, 300.0))
        top = data.draw(st.one_of(st.just(150.0), st.floats(-300.0, 150.0)))
        fields = st.lists(st.one_of(
            st.just(0.0), st.sampled_from([-1.0, 1.0]).map(lambda s: s * 10.0 ** top),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 30.0)).map(
                lambda x: x[0] * 10.0 ** (top - x[1]))), min_size=n, max_size=n)
        widths = data.draw(st.lists(st.floats(1.0, 10.0), min_size=n - 1,
                                    max_size=n - 1))
        t = np.concatenate(([0.0], np.cumsum(np.multiply(widths, spacing))))
        pulse = axis_pulse(t, data.draw(fields), data.draw(fields))
        scale = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
        so, sd = np.array(data.draw(st.lists(st.tuples(scale, scale),
                                             min_size=1, max_size=3))).T
        substeps = data.draw(st.integers(1, 4))
        target = data.draw(st.floats(-10.0, 10.0))
        runs = [lambda: final_states_over_errors(pulse, ket1(), so, sd, substeps)]
        runs += [lambda e=e: propagate(pulse, error=e, substeps=substeps).states
                 for e in zip(so - 1.0, sd - 1.0)]
        for run in runs:
            try:
                states = run()
            except ParameterError as exc:
                assert "exceeds 1e150" in str(exc)
                continue
            assert np.all(np.isfinite(states))
            np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0,
                                       rtol=0, atol=1e-12)
            assert np.all(np.isfinite(fidelity(states, target)))


class TestPropagate:
    def test_list_built_pulse(self):
        # Pulse holds its samples as float arrays, whatever it was given
        listed = axis_pulse([0, 1, 2], [1, 2, 1], [0, 0, 0])
        arrays = axis_pulse(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]),
                            np.zeros(3))
        assert listed.omega.dtype == listed.delta.dtype == float
        a, b = propagate(listed), propagate(arrays)
        assert np.array_equal(a.states, b.states)
        assert a == b

    def test_trajectory_equality(self, design_zero):
        pulse = design_zero[0]
        a = propagate(pulse)
        assert a == propagate(pulse)
        assert not a != propagate(pulse)
        assert a != propagate(pulse, error=(0.01, 0.0))
        assert a != "trajectory"
        # NaN populations at a degenerate sample compare equal
        gap = axis_pulse([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.isnan(propagate(gap).adiab_pop_minus[-1])
        assert propagate(gap) == propagate(gap)

    def test_zero_pulse_leaves_state_fixed(self):
        traj = propagate(flat_pulse(0.0, 0.0))
        np.testing.assert_array_equal(traj.states,
                                      np.tile(ket1(), (11, 1)))
        # branch populations are undefined at a degenerate Hamiltonian
        assert np.all(np.isnan(traj.adiab_pop_minus))
        assert np.all(np.isnan(traj.adiab_pop_plus))

    def test_substeps_floor(self):
        # counts are integers of at least 1, of Python or numpy, in every
        # entry point; a bool is none, though operator.index takes True
        pulse = flat_pulse(1.0, 0.0)
        for substeps in (2.5, 2.0, "2", None, 0, -1, True, False, np.True_):
            for run in (lambda: propagate(pulse, substeps=substeps),
                        lambda: final_states_over_errors(pulse, ket1(), [1.0], [1.0],
                                                         substeps),
                        lambda: scan_1d(pulse, 0.3, ErrorGrid("rabi", -0.1, 0.1, 3),
                                        substeps)):
                with pytest.raises(ParameterError, match="substeps must be >= 1"):
                    run()
        np.testing.assert_array_equal(propagate(pulse, substeps=np.int64(3)).states,
                                      propagate(pulse, substeps=3).states)

    def test_initial_state_must_be_normalized(self):
        with pytest.raises(ParameterError):
            propagate(flat_pulse(0.0, 0.0), initial=np.array([1.0, 1.0]))

    def test_non_finite_initial_state_rejected(self):
        for initial in ([np.nan, 0.0], [1.0, np.inf], [np.nan * 1j, 1.0]):
            with pytest.raises(ParameterError, match="finite and normalized"):
                propagate(flat_pulse(1.0, 0.0), initial=initial)

    def test_non_finite_error_rejected(self):
        for error in ((np.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(ParameterError, match="error must be finite"):
                propagate(flat_pulse(1.0, 0.0), error=error)

    @pytest.mark.parametrize("initial, shape", [
        ([1.0, 0.0, 0.0], "(3,)"),  # normalized, one component too many
        ([[1.0, 0.0]], "(1, 2)"),
        (1.0, "()"),
        ([[1], 0], "ragged"),
        (["a", 0], "(2,) of str"),
    ])
    def test_initial_state_shape_rejected(self, initial, shape):
        with pytest.raises(ParameterError, match=re.escape(
                f"initial state must be a 2-vector, got shape {shape}")):
            propagate(flat_pulse(1.0, 0.0), initial=initial)

    @pytest.mark.parametrize("error, shape", [
        ((0.1,), "(1,)"),
        (0.1, "()"),
        ((0.1, 0.2, 0.3), "(3,)"),  # the third value is not dropped
        ([[0.1, 0.2]], "(1, 2)"),
        (((0.1,), 0.2), "ragged"),
        (("a", "b"), "(2,) of str"),
        ((None, 0.1), "(2,) of object"),
        ((0.1j, 0.2), "(2,) of complex128"),
    ])
    def test_error_shape_rejected(self, error, shape):
        with pytest.raises(ParameterError, match=re.escape(
                f"error must be a pair (delta_omega, delta_delta), "
                f"got shape {shape}")):
            propagate(flat_pulse(1.0, 0.0), error=error)

    def test_non_finite_field_rejected(self):
        omega = np.ones(11)
        omega[3] = np.nan
        with pytest.raises(ParameterError,
                           match="omega is not finite at index 3"):
            propagate(field_pulse(omega, np.zeros(11)))

    def test_final_state_matches_scan_batch(self, designs4):
        # both entry points run the same sweep, so a scan point at error e
        # is bit-identical to a direct propagation at e
        pulse, _ = designs4[0.073]
        e = (0.13, -0.07)
        final = propagate(pulse, error=e).states[-1]
        batch = final_states_over_errors(pulse, ket1(), [1 + e[0]],
                                         [1 + e[1]])[0]
        np.testing.assert_array_equal(final, batch)

    def test_population_conservation(self, designs4):
        pulse, _ = designs4[0.073]
        traj = propagate(pulse)
        np.testing.assert_allclose(traj.pop1 + traj.pop2, 1.0, atol=1e-9)
        radius = traj.bloch_u**2 + traj.bloch_v**2 + traj.bloch_w**2
        np.testing.assert_allclose(radius, 1.0, atol=1e-9)

    def test_final_populations_near_half(self, designs4):
        # the designed transfer ends on the equator
        pulse, _ = designs4[0.073]
        traj = propagate(pulse)
        assert traj.pop1[-1] == pytest.approx(0.5, abs=2e-3)
        assert traj.pop2[-1] == pytest.approx(0.5, abs=2e-3)

    def test_bloch_v_stays_moderate(self, designs4):
        # the trajectory bulges off the u-w meridian but stays well inside
        pulse, _ = designs4[0.073]
        traj = propagate(pulse)
        assert np.max(np.abs(traj.bloch_v)) < 0.45

    def test_design_angles_reproduced(self, design_zero):
        # propagating the synthesized fields must retrace the design angles;
        # the Hamiltonian's precession sense maps the design azimuth beta to
        # the Bloch azimuth -beta, so v is compared with flipped sign
        pulse, trajectory = design_zero
        traj = propagate(pulse)
        u_d, v_d, w_d = bloch_from_angles(trajectory.theta.theta,
                                          trajectory.beta)
        dev = max(
            np.max(np.abs(traj.bloch_u - u_d)),
            np.max(np.abs(traj.bloch_v + v_d)),
            np.max(np.abs(traj.bloch_w - w_d)),
        )
        assert dev <= 1e-3

    def test_substep_convergence_order(self):
        # M4 steps of the linear interpolant are fourth order in the step
        # (16.0 measured); at the default 4001 samples one step per interval
        # is already within round-off (1.3e-13) of 16
        pulse, _ = design_pulse(DesignParams(c=0.073, beta_rate_init="zero",
                                             n_samples=201))
        ref = propagate(pulse, substeps=16).states[-1]
        e1 = np.linalg.norm(propagate(pulse, substeps=1).states[-1] - ref)
        e2 = np.linalg.norm(propagate(pulse, substeps=2).states[-1] - ref)
        assert e1 / e2 >= 12.0

    def test_followed_branch_stays_populated(self, designs4):
        pulse, _ = designs4[0.073]
        traj = propagate(pulse)
        t = pulse.t
        interior = np.abs(t) <= 0.95 * 4.0
        p_followed = traj.adiab_pop_plus[interior]
        assert np.all(np.isfinite(p_followed))
        assert np.min(p_followed) > 0.95


class TestFidelity:
    def test_identical_states(self):
        psi = angle_state(0.9, 1.7)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-15)

    def test_pole_against_any_equator_target(self):
        for beta in (0.0, 0.4, -2.0):
            assert fidelity(ket1(), target_state(beta)) == pytest.approx(
                0.5, abs=1e-15)

    def test_orthogonal_states(self):
        assert fidelity(target_state(0.0), target_state(np.pi)) == (
            pytest.approx(0.0, abs=1e-15))

    def test_accepts_target_wrapper(self):
        psi = target_state(0.25)
        assert fidelity(psi, TargetState(0.25)) == pytest.approx(1.0,
                                                                 abs=1e-14)

    def test_accepts_bare_azimuth(self):
        psi = angle_state(1.2, 0.4)
        assert fidelity(psi, 0.25) == fidelity(psi, TargetState(0.25))
        assert fidelity(psi, np.float64(0.25)) == fidelity(psi, 0.25)

    def test_batch_matches_single_states(self):
        # one formula for one state and for rows: the same bits either way,
        # within 1e-15 of |vdot|^2, clipped to [0, 1], nan kept
        rng = np.random.default_rng(3)
        states = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
        states /= np.linalg.norm(states, axis=1)[:, None]
        states[:3] = [ket1(), 1.5 * target_state(0.3), [np.nan, 0.0]]
        for target in (0.3, TargetState(-1.2), angle_state(0.8, 2.0)):
            batch = fidelity(states, target)
            single = [fidelity(psi, target) for psi in states]
            assert all(type(f) is float for f in single)
            np.testing.assert_array_equal(batch, single)
            tgt = target if np.ndim(target) else target_state(target)
            vdot = [abs(np.vdot(tgt, psi)) ** 2 for psi in states[3:]]
            np.testing.assert_allclose(batch[3:], vdot, rtol=0, atol=1e-15)
        assert fidelity(states[1], 0.3) == 1.0
        assert np.isnan(fidelity(states[2], 0.3))

    @pytest.mark.parametrize("final, target", [
        (np.ones(3), 0.3), (np.ones((2, 2, 2)), 0.3), (np.ones(2), np.ones(3)),
        (np.ones((2, 2)), np.ones((2, 2))), ([1, 0], True)])
    def test_shapes_checked(self, final, target):
        with pytest.raises(ParameterError, match="2-component target"):
            fidelity(final, target)

    @pytest.mark.parametrize("target", [np.nan, -np.inf, TargetState(np.nan)])
    def test_non_finite_beta_final_rejected(self, target):
        with pytest.raises(ParameterError, match="beta_final must be finite"):
            fidelity(ket1(), target)
        with pytest.raises(ParameterError, match="beta_final must be finite"):
            target_state(target)

    def test_non_finite_target_state_rejected(self):
        for target in ([np.nan, 1.0], [1.0, np.inf * 1j]):
            with pytest.raises(ParameterError, match="target state must be finite"):
                fidelity(ket1(), target)

    @pytest.mark.parametrize("final, target, shapes", [
        ([1, 0], "a", "() of str and (2,)"),
        ([1, 0], None, "() of object and (2,)"),
        ([1, 0], ((1,), 0), "ragged and (2,)"),
        ([1, 0], TargetState("a"), "() of str and (2,)"),
        (["a", 0], 0.3, "() and (2,) of str"),
        ([[1, 0], [1]], 0.3, "() and ragged"),
    ])
    def test_malformed_arguments_named(self, final, target, shapes):
        with pytest.raises(ParameterError, match=re.escape(f"got shapes {shapes}")):
            fidelity(final, target)

    def test_scan_nominal_is_propagate_fidelity(self, designs4):
        pulse = designs4[0.073][0]
        grid = ErrorGrid("rabi", -0.5, 0.5, 101)
        scan = scan_1d(pulse, pulse.beta_final, grid)
        final = propagate(pulse).states[-1]
        assert scan.fidelities[grid.values() == 0.0][0] == fidelity(
            final, pulse.beta_final)


class TestEigenbasis:
    """Branch labels of StateTrajectory.adiab_pop_minus/plus: a state on one
    branch of a constant Hamiltonian has population 1 there, 0 on the other."""

    def test_pure_detuning(self):
        # Omega = 0 < Delta: |1> is the lower branch
        traj = propagate(flat_pulse(0.0, 2.0))
        np.testing.assert_allclose(traj.adiab_pop_minus, 1.0, atol=1e-15)
        np.testing.assert_allclose(traj.adiab_pop_plus, 0.0, atol=1e-15)

    def test_pure_drive(self):
        # Delta = 0: the branches are (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        lower = propagate(flat_pulse(2.0, 0.0),
                          initial=np.array([1.0, -1.0]) / np.sqrt(2))
        np.testing.assert_allclose(lower.adiab_pop_minus, 1.0, atol=1e-14)
        np.testing.assert_allclose(lower.adiab_pop_plus, 0.0, atol=1e-14)
        upper = propagate(flat_pulse(2.0, 0.0),
                          initial=np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(upper.adiab_pop_minus, 0.0, atol=1e-14)
        np.testing.assert_allclose(upper.adiab_pop_plus, 1.0, atol=1e-14)

    def test_eigen_equation_and_orthonormality(self):
        # an eigenvector of H stays on its own branch, fully, and only picks
        # up the phase exp(-i E t) of its eigenvalue E = -+ gap/2
        rng = np.random.default_rng(19)
        for om, de in rng.uniform(-3, 3, (20, 2)):
            H = 0.5 * np.array([[-de, om], [om, de]])
            energies, vectors = np.linalg.eigh(H)
            assert energies == pytest.approx(
                [-0.5 * np.hypot(om, de), 0.5 * np.hypot(om, de)], abs=1e-12)
            for k, (on, off) in enumerate(
                    (("adiab_pop_minus", "adiab_pop_plus"),
                     ("adiab_pop_plus", "adiab_pop_minus"))):
                vec = vectors[:, k].astype(complex)
                traj = propagate(flat_pulse(om, de), initial=vec)
                np.testing.assert_allclose(getattr(traj, on), 1.0,
                                           atol=1e-12)
                np.testing.assert_allclose(getattr(traj, off), 0.0,
                                           atol=1e-12)
                np.testing.assert_allclose(
                    traj.states[-1], np.exp(-1j * energies[k]) * vec,
                    atol=1e-12)

    def test_degenerate_point_rejected(self):
        # Omega and Delta cross 0 together at the middle sample: the branch
        # populations are NaN there and only there
        s = np.linspace(-1.0, 1.0, 11)
        traj = propagate(field_pulse(np.abs(s), s))
        degenerate = np.arange(11) == 5
        np.testing.assert_array_equal(np.isnan(traj.adiab_pop_minus),
                                      degenerate)
        np.testing.assert_array_equal(np.isnan(traj.adiab_pop_plus),
                                      degenerate)


class TestAdiabaticPopulations:
    def test_eigenstate_is_pure_branch(self):
        # the lower branch from the documented mixing angle x = atan2(O, D)
        x = np.arctan2(1.3, -0.4)
        vec_minus = np.array([np.cos(0.5 * x), -np.sin(0.5 * x)])
        traj = propagate(flat_pulse(1.3, -0.4), initial=vec_minus)
        np.testing.assert_allclose(traj.adiab_pop_minus, 1.0, atol=1e-14)
        np.testing.assert_allclose(traj.adiab_pop_plus, 0.0, atol=1e-14)

    def test_populations_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pulse = field_pulse(rng.uniform(-2, 2, 51),
                                rng.uniform(-2, 2, 51), duration=2.0)
            psi = angle_state(*rng.uniform(0.1, 3.0, 2))
            traj = propagate(pulse, initial=psi)
            np.testing.assert_allclose(
                traj.adiab_pop_minus + traj.adiab_pop_plus, 1.0, atol=1e-13)

    def test_degeneracy_propagates(self):
        # fields switched off mid-pulse: the state holds still through the
        # gap, the NaN branch populations stay on the gap's samples, and
        # the states stay finite and normalized
        t = np.linspace(0.0, 1.0, 21)
        gap = np.abs(t - 0.5) < 0.12
        traj = propagate(field_pulse(np.where(gap, 0.0, 2.0),
                                     np.where(gap, 0.0, 0.7)))
        first = np.argmax(gap)
        np.testing.assert_array_equal(
            traj.states[gap], np.tile(traj.states[first], (gap.sum(), 1)))
        np.testing.assert_array_equal(np.isnan(traj.adiab_pop_minus), gap)
        np.testing.assert_array_equal(np.isnan(traj.adiab_pop_plus), gap)
        np.testing.assert_allclose(np.sum(np.abs(traj.states) ** 2, axis=1),
                                   1.0, atol=1e-12)


class TestBloch:
    def test_pole(self):
        assert bloch_from_angles(0.0, 0.0) == (0.0, 0.0, 1.0)
        np.testing.assert_allclose(bloch_from_state(ket1()), (0.0, 0.0, 1.0),
                                   atol=1e-15)

    def test_equator_point(self):
        u, v, w = bloch_from_angles(0.5 * np.pi, 0.0)
        assert (u, v, w) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_angle_state_agreement(self):
        rng = np.random.default_rng(31)
        pairs = [(np.pi / 3, np.pi / 5)] + list(rng.uniform(0.05, 3.0, (50, 2)))
        for theta, beta in pairs:
            from_angles = bloch_from_angles(theta, beta)
            from_state = bloch_from_state(angle_state(theta, beta))
            np.testing.assert_allclose(from_state, from_angles, atol=1e-12)

    def test_batch_matches_single(self):
        states = np.array([ket1(), target_state(0.7), angle_state(1.0, 2.0)])
        u, v, w = bloch_from_state(states)
        for k, psi in enumerate(states):
            np.testing.assert_allclose((u[k], v[k], w[k]),
                                       bloch_from_state(psi), atol=1e-15)


# fields with exact zeros mixed in, so zero-field steps occur at random
FIELDS = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
ERRORS = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3)
# step counts (at substeps = 1) below, at and between block multiples
STEP_COUNTS = [4, _BLOCK - 2, _BLOCK, _BLOCK + 6, 2 * _BLOCK, 2 * _BLOCK + 34,
               3 * _BLOCK]


def random_axis_pulse(draw, n, fields=FIELDS):
    widths = draw(st.lists(st.floats(0.01, 0.2), min_size=n - 1, max_size=n - 1))
    t = np.concatenate(([0.0], np.cumsum(widths)))
    samples = st.lists(fields, min_size=n, max_size=n)
    return axis_pulse(t, draw(samples), draw(samples))


def stepwise_states(pulse, initial, error, substeps=1):
    """State at every sample, by a plain product of the steps' exponentials
    applied one at a time: each step of width h is expm of the fourth-order
    Magnus exponent of the linearly interpolated (scaled) Hamiltonian,
    -i h (H_a + H_b) / 2 + (h^2 / 12) [H_a, H_b] with H_a and H_b at its
    ends, as matrices."""
    w = np.arange(substeps + 1) / substeps
    om = (1.0 + error[0]) * (np.outer(pulse.omega[:-1], 1 - w) + np.outer(pulse.omega[1:], w))
    de = (1.0 + error[1]) * (np.outer(pulse.delta[:-1], 1 - w) + np.outer(pulse.delta[1:], w))
    ham = 0.5 * np.stack([np.stack([-de, om], -1), np.stack([om, de], -1)], -2)
    ha, hb = ham[:, :-1], ham[:, 1:]
    h = (np.diff(pulse.t) / substeps)[:, None, None, None]
    steps = expm(-0.5j * h * (ha + hb) + h ** 2 / 12 * (ha @ hb - hb @ ha))
    states = [np.asarray(initial, dtype=complex)]
    for interval in steps:
        psi = states[-1]
        for u in interval:
            psi = u @ psi
        states.append(psi)
    return np.array(states)


def step_lists(pulse, substeps=1):
    """(-Omega dt/4, Delta dt/4, y) of every step that is not exactly the
    identity, one float at a time: midpoint fields by linear interpolation,
    each times a quarter q of the step's width dt, and y = (q Omega_i)
    (q Delta_i+1) - (q Omega_i+1) (q Delta_i) over 3 substeps, the sigma_y
    field (dt^2/48) (Omega_a Delta_b - Omega_b Delta_a) of the step's ends
    a and b.  A step is kept where a midpoint field or Omega_i Delta_i+1 -
    Omega_i+1 Delta_i is not 0."""
    w = [(k + 0.5) / substeps for k in range(substeps)]
    steps = []
    for i in range(pulse.t.size - 1):
        o0, o1, d0, d1 = (float(v) for v in (*pulse.omega[i:i + 2],
                                              *pulse.delta[i:i + 2]))
        q = (float(pulse.t[i + 1]) - float(pulse.t[i])) / (4 * substeps)
        y = (q * o0 * (q * d1) - q * o1 * (q * d0)) / (3 * substeps)
        for wk in w:
            om, de = o0 * (1.0 - wk) + o1 * wk, d0 * (1.0 - wk) + d1 * wk
            if om != 0.0 or de != 0.0 or o0 * d1 != o1 * d0:
                steps.append((om * -q, de * q, y))
    return steps


def assert_factors_match(steps, so, sd, ref_a, ref_b):
    """The kernel's factors of a pulse's steps (_fields) at the scales so
    and sd, kept and blocked by _bounded, their fields at the monomials
    (_fields_at) and their factors by _su2, are (ref_a, ref_b), each
    (kept steps, rows), to the bit."""
    mono = _monomials(so, sd)[:, :1]
    blocks = _bounded(steps, mono)[:, :, np.argsort(_REV)]  # in step order
    kept = np.count_nonzero(steps.keep)
    coef = blocks.transpose(1, 0, 2, 3).reshape(3, -1, 1)[:, blocks.size // 3 - kept:]
    wev = _fields_at(coef, mono, np.empty((3, kept, so.size)))
    a, b = np.zeros((2, kept, so.size), dtype=complex)
    _su2(*wev, a, b, *np.empty((4, kept, so.size)))
    for got, ref in ((a, ref_a), (b, ref_b)):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def factors_lists(pulse, scale_omega, scale_delta, substeps=1):
    """(a, b) of every step that is not exactly the identity, for each
    (scale_omega, scale_delta) row, one float at a time: the oracle that
    _fields, _bounded and _su2 must match to the bit.  The step fields
    of step_lists, then scaled, w and e by their scales and v = y (so sd),
    p = max(sqrt((w^2 + e^2) + v^2), 1e-300) the half angle, u = tan(p),
    cos(phi) = 1 - u^2 (2 / (1 + u^2)), f = u (2 / (1 + u^2)) / p,
    a = cos(phi) + i f e, b = f v + i f w; tan is numpy's, on an array of
    the arguments, as the kernel's is."""
    steps = step_lists(pulse, substeps)
    a, b = [], []
    for so, sd in zip(scale_omega, scale_delta):
        fields = [(om * so, de * sd, y * (so * sd)) for om, de, y in steps]
        p = [max(math.sqrt(om * om + de * de + y * y), 1e-300)
             for om, de, y in fields]
        u = np.tan(p)
        row_a, row_b = [], []
        for (om, de, y), pk, uk in zip(fields, p, u.tolist()):
            s = 2.0 / (uk * uk + 1.0)
            f = uk * s / pk
            row_a.append(complex(1.0 - uk * uk * s, f * de))
            row_b.append(complex(f * y, f * om))
        a.append(row_a)
        b.append(row_b)
    return (np.array(x, dtype=complex).reshape(len(x), len(steps)).T.copy()
            for x in (a, b))


class TestBlockProductKernel:
    """The block-product propagator against plain step-by-step products and
    closed forms, on random pulses; `propagate` and the batch share it."""

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_stepwise_product(self, steps, data):
        pulse = random_axis_pulse(data.draw, steps + 1)
        errors = data.draw(ERRORS)
        psi0 = angle_state(*data.draw(st.tuples(st.floats(0, np.pi),
                                                st.floats(-np.pi, np.pi))))
        finals = final_states_over_errors(pulse, psi0,
                                          [1.0 + e for e in errors],
                                          np.ones(len(errors)))
        for e, final in zip(errors, finals):
            ref = stepwise_states(pulse, psi0, (e, 0.0))
            np.testing.assert_allclose(final, ref[-1], rtol=0, atol=1e-13)
            states = propagate(pulse, initial=psi0, error=(e, 0.0)).states
            np.testing.assert_allclose(states, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_products_are_unitary(self, steps, data):
        # the columns U|1>, U|2> of the propagator up to every sample; a
        # pulse of one block is a single block product
        pulse = random_axis_pulse(data.draw, steps + 1)
        error = data.draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
        col1 = propagate(pulse, initial=ket1(), error=error).states
        col2 = propagate(pulse, initial=[0.0, 1.0], error=error).states
        for a, b in ((col1, col1), (col2, col2), (col1, col2)):
            gram = np.sum(np.conj(a) * b, axis=1)
            np.testing.assert_allclose(gram, 1.0 if a is b else 0.0, rtol=0,
                                       atol=1e-13)
        so, sd = [1.0 + error[0]], [1.0 + error[1]]
        rows = np.array([final_states_over_errors(pulse, psi, so, sd)[0]
                         for psi in (ket1(), [0.0, 1.0])])  # the transpose of U
        np.testing.assert_allclose(rows @ rows.conj().T, np.eye(2), rtol=0,
                                   atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(omega=st.floats(0.1, 10.0), delta=st.floats(-10.0, 10.0),
           rabi_error=st.floats(-0.5, 0.5), n=st.integers(3, 3 * _BLOCK))
    def test_flat_pulse_matches_rabi_formula(self, omega, delta, rabi_error, n):
        # constant fields: P2(t) = (O^2 / g^2) sin^2(g t / 2), g^2 = O^2 + D^2
        pulse = field_pulse(np.full(n, omega), np.full(n, delta), duration=2.0)
        om = (1.0 + rabi_error) * omega
        g = np.hypot(om, delta)
        p2 = (om / g) ** 2 * np.sin(0.5 * g * pulse.t) ** 2
        traj = propagate(pulse, error=(rabi_error, 0.0))
        np.testing.assert_allclose(traj.pop2, p2, rtol=0, atol=1e-13)
        final = final_states_over_errors(pulse, ket1(), [1.0 + rabi_error],
                                         [1.0])[0]
        assert abs(final[1]) ** 2 == pytest.approx(p2[-1], rel=0, abs=1e-13)

    # zero-field gaps as [first, last] sample: at substeps = 2 the first
    # spans step _BLOCK, a block boundary; the second runs to the end
    @pytest.mark.parametrize("gap", [(_BLOCK // 2 - 5, _BLOCK // 2 + 7),
                                     (_BLOCK // 2 + 40, 3 * _BLOCK // 2)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_zero_field_gap_holds_state(self, gap, data):
        first, last = gap
        n = 3 * _BLOCK // 2 + 1
        substeps = data.draw(st.sampled_from([1, 2]))
        pulse = random_axis_pulse(data.draw, n, fields=st.floats(0.1, 3.0))
        zero = (np.arange(n) >= first) & (np.arange(n) <= last)
        pulse.omega[zero] = pulse.delta[zero] = 0.0
        states = propagate(pulse, substeps=substeps).states
        np.testing.assert_array_equal(states[zero],
                                      np.tile(states[first], (zero.sum(), 1)))
        if last == n - 1:  # the gap runs to the end: the batch ends there too
            final = final_states_over_errors(pulse, ket1(), [1.0], [1.0],
                                             substeps)[0]
            np.testing.assert_array_equal(final, states[first])

    def test_several_passes(self):
        # propagate takes _WIDTH blocks per pass; on a pulse of three passes
        # that starts with zero fields and has a zero-field gap, it matches
        # the plain product, holds the state bit-for-bit where the fields
        # vanish, and ends on the batch's bits at any length
        n = _WIDTH * _BLOCK + 800  # 2 (n - 1) steps: about 2.1 passes
        rng = np.random.default_rng(7)
        pulse = axis_pulse(np.cumsum(rng.uniform(5e-4, 1.5e-3, n)),
                           rng.uniform(-4.0, 4.0, n), rng.uniform(-4.0, 4.0, n))
        zero = np.r_[:10, 4000:4300]
        pulse.omega[zero] = pulse.delta[zero] = 0.0
        psi0 = angle_state(1.1, -0.4)
        states = propagate(pulse, initial=psi0, error=(0.13, -0.07),
                           substeps=2).states
        np.testing.assert_allclose(
            states, stepwise_states(pulse, psi0, (0.13, -0.07), 2), rtol=0,
            atol=1e-12)
        np.testing.assert_array_equal(states[:10], np.tile(psi0, (10, 1)))
        np.testing.assert_array_equal(states[4000:4300],
                                      np.tile(states[4000], (300, 1)))
        final = final_states_over_errors(pulse, psi0, [1 + 0.13], [1 - 0.07], 2)[0]
        np.testing.assert_array_equal(final, states[-1])

    def test_rows_independent_of_width_and_passes(self):
        # 2 _WIDTH + 37 rows run as three passes of _WIDTH rows or fewer;
        # a batch of one is one pass of one row: the same products
        pulse, _ = design_pulse(DesignParams(c=0.073, n_samples=101))
        errors = np.random.default_rng(11).uniform(-0.5, 0.5, (2 * _WIDTH + 37, 2))
        finals = final_states_over_errors(pulse, ket1(), 1 + errors[:, 0],
                                          1 + errors[:, 1])
        for e, final in zip(errors, finals):
            np.testing.assert_array_equal(
                final, final_states_over_errors(pulse, ket1(), [1 + e[0]], [1 + e[1]])[0])
        for row in (0, _WIDTH - 1, _WIDTH, len(errors) - 1):
            np.testing.assert_array_equal(
                finals[row], propagate(pulse, error=tuple(errors[row])).states[-1])

    def test_zero_scale_row_holds_state(self):
        # a row scaled by 0 has g = 0 at every step: f must come out 0, not
        # 0 / 0, and the row must keep the initial state bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = final_states_over_errors(pi_half_baseline(1.0), ket1(),
                                            [0.0, 1.0], [1.0, 1.0])
            pulse, _ = design_pulse(DesignParams(c=0.073, n_samples=101))
            psi0 = angle_state(1.1, -0.4)
            rows = final_states_over_errors(pulse, psi0, [1.2, 0.0], [0.9, 0.0])
            held = propagate(pulse, initial=psi0, error=(-1.0, -1.0)).states
        np.testing.assert_array_equal(flat[0], ket1())
        np.testing.assert_array_equal(rows[1], psi0)
        np.testing.assert_array_equal(held, np.tile(rows[1], (pulse.t.size, 1)))

    # fields from 1e-170 ((field dt/4)^2 underflows to 0: the step is its
    # first-order rotation), through 1e-160 and 3e-155 (a subnormal square)
    # to O(1), exact zeros, and rows scaled by 0
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_factors_match_list_form(self, substeps, data):
        tiny = st.sampled_from([1e-170, -1e-165, 1e-160, 3e-155, 1e-150])
        fields = st.one_of(st.just(0.0), tiny, st.floats(-4.0, 4.0))
        pulse = random_axis_pulse(data.draw, data.draw(st.integers(3, 40)),
                                  fields=fields)
        scales = st.lists(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
                          min_size=3, max_size=3)
        so = np.array([0.0, 1.0, 0.0] + data.draw(scales))
        sd = np.array([0.0, 0.0, 1.0] + data.draw(scales))
        ref_a, ref_b = factors_lists(pulse, so, sd, substeps)
        assert_factors_match(_fields(pulse, substeps), so, sd, ref_a, ref_b)

    # the first intervals are 1e-30 wide and their fields at most 1e-300,
    # the first sample's 1e-300: their folded fields underflow to 0 or -0.0
    # though the fields are not 0, and such a step is kept, as
    # factors_lists keeps it; it is the identity
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_underflowing_steps_are_kept(self, substeps, data):
        front, n = data.draw(st.integers(1, 20)), data.draw(st.integers(2, 2 * _BLOCK))
        tiny = st.one_of(st.just(0.0), st.floats(1e-305, 1e-300),
                         st.floats(-1e-300, -1e-305))
        widths = data.draw(st.lists(st.floats(0.01, 0.2), min_size=n, max_size=n))
        omega, delta = (np.array(data.draw(st.lists(tiny, min_size=front + 1,
                                                    max_size=front + 1))
                                 + data.draw(st.lists(FIELDS, min_size=n, max_size=n)))
                        for _ in range(2))
        omega[0] = 1e-300
        pulse = axis_pulse(np.cumsum(np.r_[0.0, np.full(front, 1e-30), widths]),
                           omega, delta)
        steps = _fields(pulse, substeps)
        assert steps.keep.sum() == len(step_lists(pulse, substeps))
        assert steps.keep[:substeps].all() and not steps.coef[..., :substeps].any()
        so, sd = np.array([1.0, 1.2, 0.0]), np.array([1.0, 0.9, 1.0])
        assert_factors_match(steps, so, sd, *factors_lists(pulse, so, sd, substeps))
        psi0 = angle_state(1.1, -0.4)
        finals = final_states_over_errors(pulse, psi0, so, sd, substeps)
        for row, e in zip(finals, zip(so - 1.0, sd - 1.0)):
            states = propagate(pulse, initial=psi0, error=e, substeps=substeps).states
            np.testing.assert_allclose(states, stepwise_states(pulse, psi0, e, substeps),
                                       rtol=0, atol=1e-13)
            assert states[-1].tobytes() == row.tobytes()

    # random pulses with Omega = 0 stretches and Delta = 0 samples, whose
    # steps have o = -0.0; compared by bytes, which tell -0.0 from 0.0
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_signed_zeros_agree_by_bytes(self, substeps, data):
        n = data.draw(st.integers(3, 3 * _BLOCK))
        pulse = random_axis_pulse(data.draw, n)
        start = data.draw(st.integers(0, n - 1))
        pulse.omega[start:start + data.draw(st.integers(1, n))] = 0.0
        pulse.delta[data.draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
        width = 2 * _WIDTH + 5
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        so, sd = 1.0 + rng.uniform(-0.5, 0.5, (2, width))
        so[:3], sd[:3] = 0.0, (1.0, 0.0, -1.0)
        psi0 = angle_state(1.1, -0.4)
        rows = final_states_over_errors(pulse, psi0, so, sd, substeps)
        for w in (1, 2, 37):
            batch = final_states_over_errors(pulse, psi0, so[:w], sd[:w], substeps)
            assert batch.tobytes() == rows[:w].tobytes()
        for k in (0, 1, 2, width - 1):
            one = final_states_over_errors(pulse, psi0, so[k:k + 1], sd[k:k + 1],
                                           substeps)
            assert one.tobytes() == rows[k:k + 1].tobytes()
            final = propagate(pulse, initial=psi0, error=(so[k] - 1.0, sd[k] - 1.0),
                              substeps=substeps).states[-1]
            assert final.tobytes() == rows[k].tobytes()

    @pytest.mark.parametrize("width", [1, 37, 245, 256])
    def test_pass_buffers_start_on_cache_lines(self, width, monkeypatch):
        # where a fresh buffer lands depends on what the process allocated
        # before; the heap, its halves and leaves and the scratch of every
        # pass must start on a 64-byte line whatever the heap's history, for
        # the scan's columns (error rows) and propagate's (blocks)
        made = []

        def recorded(*args, **kwargs):
            made.append(_zeros(*args, **kwargs))
            assert not made[-1].any()
            return made[-1]

        monkeypatch.setattr("qiepulse.dynamics._zeros", recorded)
        clutter = [np.empty(k) for k in (3, 17, 1001, 40001, 5)]  # noqa: F841
        rng = np.random.default_rng(width)
        n = _BLOCK * width + 1  # n - 1 steps: width blocks
        pulse = axis_pulse(np.linspace(0.0, 1.0, n), rng.uniform(0.1, 4.0, n),
                           rng.uniform(-4.0, 4.0, n))
        scale = 1.0 + np.linspace(-0.5, 0.5, width)
        final_states_over_errors(pulse, ket1(), scale, np.ones(width))
        propagate(pulse)
        # M6 steps, short of whole blocks, padded as a pulse's are: every
        # pass takes the heap and the buffer of its fields w, e and v
        steps = m6_steps(rng.uniform(-0.1, 0.1, (3, 3, _BLOCK * width - 5)))
        final_states_over_errors(steps, ket1(), scale, np.ones(width), 1)
        assert [b.shape for b in made] == [(2, 2 * _BLOCK, width),
                                           (3, _BLOCK, width)] * 3
        views = []
        for ab, wev in zip(made[::2], made[1::2]):
            views += [ab, *ab, ab[:, _BLOCK:], *ab[:, _BLOCK:], wev, *wev]
        assert [v.ctypes.data % 64 for v in views] == [0] * len(views)

    def test_bounded_working_set(self):
        # the former per-block batch peaked at 1.97 MB on 501 rows of a
        # 16001-sample design (tracemalloc; the sub-steps' fields and widths
        # alone hold 0.77 MB); the pass buffers may add at most 0.6 MB
        def peak(pulse, rows):
            scale = 1.0 + np.linspace(-0.5, 0.5, rows)
            tracemalloc.start()
            try:
                final_states_over_errors(pulse, ket1(), scale, np.ones(rows))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(design_pulse(DesignParams(c=0.073, n_samples=16001))[0], 501) <= 2.57e6
        # more passes reuse the room of the first: no second set of buffers
        small, _ = design_pulse(DesignParams(c=0.073, n_samples=101))
        assert peak(small, 2 * _WIDTH + 37) <= peak(small, _WIDTH) + 0.1e6
        # propagate holds one pass's tree at a time: building a pass's tree
        # while the last pass's was still held peaked at 6.86 MB
        pulse, _ = design_pulse(DesignParams(c=0.073, n_samples=16001))
        tracemalloc.start()
        try:
            propagate(pulse)
            assert tracemalloc.get_traced_memory()[1] <= 4.9e6
        finally:
            tracemalloc.stop()


def magnus6_matrix(h, omega, delta, so, sd):
    """The sixth-order Magnus exponent of one interval, from its three Gauss
    nodes' fields, as 2x2 matrices: A_i = -i H_i of the scaled fields, the
    alphas and nested commutators as Blanes, Casas, Oteo & Ros (2009) give
    them."""
    a = [-0.5j * np.array([[-sd * d, so * o], [so * o, sd * d]])
         for o, d in zip(omega, delta)]

    def com(x, y):
        return x @ y - y @ x

    a1 = h * a[1]
    a2 = math.sqrt(15) * h / 3 * (a[2] - a[0])
    a3 = 10 * h / 3 * (a[2] - 2 * a[1] + a[0])
    c1 = com(a1, a2)
    c2 = -com(a1, 2 * a3 + c1) / 60
    return a1 + a3 / 12 + com(-20 * a1 - a3 + c1, a2 + c2) / 240


class TestMagnus6:
    """Ready steps of the sixth-order Magnus step (_magnus6): one exponential
    each, whose fields are coefficients times monomials of the scales."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_step_is_the_commutator_expansion(self, data):
        # the kernel's exponential of each step against scipy's expm of the
        # exponent built from matrices, for both basis states and scaled rows
        n = data.draw(st.integers(1, 5))
        h = np.array(data.draw(st.lists(st.floats(0.01, 0.5), min_size=n,
                                        max_size=n)))
        omega, delta = (np.array(data.draw(st.lists(
            st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
            min_size=3, max_size=3))) for _ in range(2))
        so, sd = (np.array(data.draw(st.lists(st.floats(0.5, 1.5), min_size=3,
                                              max_size=3))) for _ in range(2))
        steps = _magnus6(h, omega, delta)
        assert steps.coef.shape == (3, 3, n + 1) and steps.omega.size == n + 1
        assert not steps.coef[..., 0].any()  # the identity's slot
        for k in range(3):
            u = np.eye(2, dtype=complex)
            for j in range(n):
                u = expm(magnus6_matrix(h[j], omega[:, j], delta[:, j],
                                        so[k], sd[k])) @ u
            for col in range(2):
                final = final_states_over_errors(steps, np.eye(2)[col],
                                                 so[k:k + 1], sd[k:k + 1])[0]
                np.testing.assert_allclose(final, u[:, col], rtol=0, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(omega=st.floats(0.1, 10.0), delta=st.floats(-10.0, 10.0),
           errors=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           n=st.integers(1, 3 * _BLOCK))
    def test_constant_fields_match_rabi_formula(self, omega, delta, errors, n):
        # constant fields: every commutator is 0 and each step is exact, so
        # P2(T) = (O^2 / g^2) sin^2(g T / 2), g^2 = O^2 + D^2, at any n
        duration = 2.0
        steps = _magnus6(np.full(n, duration / n), np.full((3, n), omega),
                         np.full((3, n), delta))
        so, sd = 1.0 + np.array(errors)
        om, de = so * omega, sd * delta
        g = np.hypot(om, de)
        p2 = (om / g) ** 2 * np.sin(0.5 * g * duration) ** 2
        final = final_states_over_errors(steps, ket1(), [so], [sd])[0]
        assert abs(final[1]) ** 2 == pytest.approx(p2, rel=0, abs=1e-13)

    def test_rows_match_a_batch_of_one(self):
        # each row's fields come from one matmul of the pass: a row agrees
        # by bytes with the same row in any batch of two rows or more, and
        # with its batch of one, whose matmul numpy runs by another BLAS
        # kernel, to the rounding of those three-term sums
        rng = np.random.default_rng(5)
        n = 3 * _BLOCK + 11
        steps = _magnus6(rng.uniform(0.01, 0.1, n),
                         *rng.uniform(-3.0, 3.0, (2, 3, n)))
        errors = rng.uniform(-0.5, 0.5, (2 * _WIDTH + 5, 2))
        finals = final_states_over_errors(steps, ket1(), *(1 + errors.T))
        for w in (2, 37, _WIDTH + 37):
            batch = final_states_over_errors(steps, ket1(), *(1 + errors[:w].T))
            assert batch.tobytes() == finals[:w].tobytes()
        for k in range(0, len(errors), 7):
            pair = final_states_over_errors(steps, ket1(), *(1 + errors[[k, k - 1]].T))
            assert pair[0].tobytes() == finals[k].tobytes()
        for e, final in zip(errors, finals):
            one = final_states_over_errors(steps, ket1(), [1 + e[0]], [1 + e[1]])
            np.testing.assert_allclose(final, one[0], rtol=0, atol=4e-15)
