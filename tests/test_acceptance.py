"""End-to-end scorecard against the documented performance contract.

One test per criterion; each records a single PASS/FAIL line that the
conftest terminal hook prints after the run.  Failing criteria fail their
assertion honestly with the measured values in the message; README's
verification table discusses the known gaps.
"""

import numpy as np
import pytest

from qiepulse import (
    DesignParams,
    ErrorGrid,
    TargetState,
    design_pulse,
    pi_half_baseline,
    propagate,
    scan_1d,
    theta_profile,
)
from qiepulse.cli import main

from conftest import C_VALUES, bloch_from_angles

# reference endpoint values (area/pi, |beta_final|/pi) for the four
# standard adiabaticity settings, duplicated here on purpose so the
# acceptance gate cannot drift with the code
REFERENCE_ENDPOINTS = {
    0.073: (1.970, 0.051),
    0.060: (2.470, 0.034),
    0.050: (3.076, 0.033),
    0.040: (3.839, 0.023),
}
AREA_RTOL = 0.02
BETA_ATOL_PI = 0.01


def test_criterion_1_reference_endpoint_table(designs4, record_criterion):
    rows = []
    ok = True
    for c in C_VALUES:
        pulse, _ = designs4[c]
        area_pi = pulse.area / np.pi
        beta_pi = abs(pulse.beta_final) / np.pi
        area_ref, beta_ref = REFERENCE_ENDPOINTS[c]
        area_ok = abs(area_pi - area_ref) <= AREA_RTOL * area_ref
        beta_ok = abs(beta_pi - beta_ref) <= BETA_ATOL_PI
        ok = ok and area_ok and beta_ok
        rows.append(
            f"c={c:g}: area/pi {area_pi:.4f} vs {area_ref:.3f} "
            f"({'ok' if area_ok else 'off'}), |bf|/pi {beta_pi:.4f} vs "
            f"{beta_ref:.3f} ({'ok' if beta_ok else 'off'})"
        )
    worst = max(
        abs(designs4[c][0].area / np.pi - REFERENCE_ENDPOINTS[c][0])
        / REFERENCE_ENDPOINTS[c][0]
        for c in C_VALUES
    )
    record_criterion(
        1, ok,
        f"endpoint table; worst area deviation {worst:.1%} "
        f"(bound {AREA_RTOL:.0%}); nearest-achieved values recorded"
    )
    assert ok, (
        "endpoint table not reproduced within tolerance "
        "(nearest achieved under the shipped defaults):\n  "
        + "\n  ".join(rows)
    )


def test_criterion_2_constraint_residual(designs4, record_criterion):
    worst_ratio = 0.0
    for c in C_VALUES:
        pulse, _ = designs4[c]
        worst_ratio = max(worst_ratio, pulse.adiabaticity_residual / c)
    ok = worst_ratio <= 1e-3
    record_criterion(
        2, ok,
        f"analytic adiabaticity residual <= 1e-3*c; worst "
        f"{worst_ratio:.1e} of c"
    )
    assert ok, f"constraint residual {worst_ratio:.3e} of c exceeds 1e-3"


def test_criterion_3_nominal_fidelity(band_scans, record_criterion):
    f0 = {}
    for c in C_VALUES:
        scan = band_scans[(c, "rabi")]
        deltas = scan.grid.values()
        f0[c] = float(scan.fidelities[deltas == 0.0][0])
    ok = all(v >= 0.9999 for v in f0.values())
    worst = min(f0.values())
    record_criterion(3, ok, f"error-free fidelity >= 0.9999; worst {worst:.7f}")
    assert ok, f"nominal fidelities {f0} below 0.9999"


def test_criterion_4_adiabatic_following(designs4, record_criterion):
    # the populated branch is detected at t_start rather than assumed:
    # with the shipped sign conventions Delta < 0 over the bulk, and the
    # state tracks the upper branch of the applied Hamiltonian
    worst = 1.0
    for c in C_VALUES:
        pulse, _ = designs4[c]
        traj = propagate(pulse)
        p0_plus = traj.adiab_pop_plus[0]
        followed = (traj.adiab_pop_plus if p0_plus > 0.5
                    else traj.adiab_pop_minus)
        t = pulse.t
        interior = np.abs(t) <= 0.95 * pulse.params.kappa * pulse.params.T
        worst = min(worst, float(np.min(followed[interior])))
    ok = worst >= 0.95
    record_criterion(
        4, ok,
        f"followed-branch population >= 0.95 over interior; min {worst:.4f}"
    )
    assert ok, f"followed-branch population dropped to {worst:.4f}"


def test_criterion_5_rabi_robustness_ordering(band_scans, baseline_band_scan,
                                              record_criterion):
    mins = [band_scans[(c, "rabi")].min_fidelity_in_band for c in C_VALUES]
    base = baseline_band_scan.min_fidelity_in_band
    beats_baseline = mins[0] > base
    ordered = all(a < b for a, b in zip(mins, mins[1:]))
    ok = beats_baseline and ordered
    seq = ", ".join(f"{m:.4f}" for m in mins)
    record_criterion(
        5, ok,
        f"rabi band mins (c=0.073..0.040): {seq}; baseline {base:.4f}; "
        f"beats baseline: {'yes' if beats_baseline else 'no'}; "
        f"monotone in c: {'yes' if ordered else 'no'}"
    )
    assert beats_baseline, (
        f"flagship band min {mins[0]:.4f} does not beat baseline {base:.4f}"
    )
    assert ordered, (
        f"band minima not monotone as c decreases: {seq} "
        f"(the order is set at second order in the error; see README)"
    )


def test_criterion_6_baseline_closed_form(record_criterion):
    pulse = pi_half_baseline(1.0)
    grid = ErrorGrid(parameter="rabi", lo=-0.5, hi=0.5, n_points=101)
    result = scan_1d(pulse, TargetState(pulse.beta_final), grid)
    expected = 0.5 * (1.0 + np.cos(grid.values() * 0.5 * np.pi))
    worst = float(np.max(np.abs(result.fidelities - expected)))
    ok = worst <= 1e-6
    record_criterion(
        6, ok, f"pi/2 comparator matches closed form; worst {worst:.1e}"
    )
    assert ok, f"baseline scan deviates from closed form by {worst:.3e}"


def test_criterion_7_propagation_invariants(designs4, record_criterion):
    pulse, trajectory = designs4[0.073]
    traj = propagate(pulse)

    norms = np.einsum("ij,ij->i", traj.states.conj(), traj.states).real
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    radius = traj.bloch_u**2 + traj.bloch_v**2 + traj.bloch_w**2
    bloch_norm = float(np.max(np.abs(radius - 1.0)))

    rng = np.random.default_rng(20240817)
    ts = rng.uniform(-4.0, 4.0, 1000)
    h = 1e-5
    fd = (theta_profile(ts + h, 1.0).theta
          - theta_profile(ts - h, 1.0).theta) / (2 * h)
    theta_fd = float(np.max(np.abs(fd - theta_profile(ts, 1.0).theta_dot)))

    # propagated Bloch path against the design angles; the Hamiltonian's
    # precession sense maps the design azimuth to -beta, so v flips sign
    u_d, v_d, w_d = bloch_from_angles(trajectory.theta.theta, trajectory.beta)
    bloch_dev = float(max(
        np.max(np.abs(traj.bloch_u - u_d)),
        np.max(np.abs(traj.bloch_v + v_d)),
        np.max(np.abs(traj.bloch_w - w_d)),
    ))

    rescaled, _ = design_pulse(DesignParams(c=0.073, T=2.0))
    rescale_dev = float(max(abs(rescaled.area - pulse.area),
                            abs(rescaled.beta_final - pulse.beta_final)))

    checks = [
        ("state norm drift", norm_drift, 1e-9),
        ("bloch norm drift", bloch_norm, 1e-9),
        ("theta fd residual", theta_fd, 1e-6),
        ("field/angle bloch deviation", bloch_dev, 1e-3),
        ("T-rescale endpoint deviation", rescale_dev, 1e-6),
    ]
    failed = [name for name, value, bound in checks if value > bound]
    detail = "; ".join(
        f"{name} {value:.1e}{' FAIL' if value > bound else ''}"
        for name, value, bound in checks
    )
    record_criterion(7, not failed, detail)
    assert not failed, (
        "propagation invariants violated: "
        + "; ".join(f"{name} {value:.3e} > {bound:.0e}"
                    for name, value, bound in checks if value > bound)
        + " (the sampled-grid deviation tracks the drive spike resolution, "
          "not the integrator; see README)"
    )


def test_criterion_8_external_pulse_pipeline(tmp_path, record_criterion):
    # a bare 3-column file must flow through import -> scan -> CSV without
    # design metadata; the target azimuth comes from the command line
    t = np.linspace(0.0, 1.0, 201)
    omega = 0.5 * np.pi * np.sin(np.pi * t) ** 2 / 0.5  # area pi/2
    ext = tmp_path / "external.csv"
    lines = ["t,omega,delta"] + [
        f"{t[k]:.12e},{omega[k]:.12e},0.0" for k in range(t.size)
    ]
    ext.write_text("\n".join(lines) + "\n")

    out = tmp_path / "scan.csv"
    rc = main(["scan", "--pulse", str(ext), "--param", "rabi",
               "--range=-0.2:0.2:9", "--beta-final", "-1.5707963267948966",
               "--out", str(out)])
    ok = rc == 0 and out.exists()
    fids = []
    if ok:
        rows = out.read_text().splitlines()
        data = rows[rows.index("delta,fidelity") + 1:]
        fids = [float(r.split(",")[1]) for r in data]
        ok = len(fids) == 9 and all(0.0 <= f <= 1.0 for f in fids)
        ok = ok and max(fids) > 0.999  # resonant pi/2 area: high at delta=0
    record_criterion(
        8, ok,
        "external 3-column pulse imported, scanned, and serialized "
        f"(exit {rc}, {len(fids)} rows)"
    )
    assert ok, "external pulse pipeline failed"
