"""End-to-end acceptance gate.

Each test checks one release criterion at a fixed tolerance and prints one
PASS line (run pytest with -s to see them; a failure reports through the
assertion message regardless).
"""

import math
import time

import numpy as np
import pytest

from trenq import (
    Lenz,
    QuantumNumbers,
    Settings,
    Tietz,
    action_profile,
    count_bound_states,
    critical_coupling,
    delta1_integral,
    delta1_matched,
    exact_critical_coupling,
    fit_phi,
    lenz_exact_threshold,
    resum_delta,
    t_effective,
    t_of,
    t_ren,
    t_ren_expansion,
    to_log_well,
)

S = Settings()


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {detail}")


def test_criterion_1_lenz_end_to_end_exactness() -> None:
    # warm the node-counting kernel so the timing reflects the sweep itself
    count_bound_states(to_log_well(Lenz(a=1.0, Z=4.0), S), 0.5, S)
    t0 = time.perf_counter()
    worst = 0.0
    spot = {}
    for a in (0.5, 1.0, 2.0):
        well = to_log_well(Lenz(a=a, Z=1.0), S)
        phi = fit_phi(action_profile(well, S))
        for n in range(4):
            for l in range(4):
                q = QuantumNumbers(n, l, 3)
                z_pred = critical_coupling(well, q, S, t_source=phi, renormalized=True)
                z_oracle = exact_critical_coupling(well, q.lam, q.n, S)
                worst = max(worst, abs(z_pred - z_oracle) / z_oracle)
                if (a, n, l) == (1.0, 0, 0):
                    spot["lenz"] = z_pred
    tietz_well = to_log_well(Tietz(1.0), S)
    tietz_phi = fit_phi(action_profile(tietz_well, S))
    spot["tietz"] = critical_coupling(
        tietz_well, QuantumNumbers(0, 0, 3), S, t_source=tietz_phi
    )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst relative error {worst:.3e} exceeds 1e-6"
    assert spot["lenz"] == pytest.approx(1.5, rel=1e-6)
    assert spot["tietz"] == pytest.approx(1.0, rel=1e-6)
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"
    _ok(1, f"48 thresholds match the oracle, worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_phi_recovery() -> None:
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        well = to_log_well(Lenz(a=a, Z=8.0), S)
        worst = max(worst, abs(fit_phi(action_profile(well, S)) - 1.0 / a))
    assert worst <= 1e-8
    tietz_phi = fit_phi(action_profile(to_log_well(Tietz(1.0), S), S))
    assert abs(tietz_phi - 2.0) <= 1e-8
    _ok(2, f"phi = 1/a within {worst:.2e}; Tietz phi = 2 within {abs(tietz_phi - 2.0):.2e}")


def test_criterion_3_deficit_linearity() -> None:
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        well = to_log_well(Lenz(a=a, Z=8.0), S)
        prof = action_profile(well, S)
        for lam in prof.lambda_grid:
            worst = max(worst, abs(t_of(prof, float(lam)) - lam / a))
    assert worst <= 1e-8
    _ok(3, f"deficit is linear with slope 1/a to {worst:.2e}")


def test_criterion_4_spectrum_solver_exactness() -> None:
    from trenq import solve_spectrum

    well = to_log_well(Lenz(a=1.0, Z=8.0), S)
    s_exact = 0.5 * (math.sqrt(17.0) - 1.0)
    lam0 = solve_spectrum(well, 0, S)
    lam1 = solve_spectrum(well, 1, S)
    assert abs(lam0 - s_exact) <= 1e-8
    assert abs(lam1 - (s_exact - 1.0)) <= 1e-8
    _ok(4, f"lambda_0, lambda_1 = {lam0:.9f}, {lam1:.9f} match the exact spectrum")


def test_criterion_5_resummation_identity_and_limits() -> None:
    worst = 0.0
    for phi_m in (0.3, 1.0, 2.5, 10.0):
        lhs = resum_delta(delta1_matched(phi_m))
        rhs = phi_m - math.hypot(phi_m, 0.5)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    for d1 in np.linspace(-0.05, 0.05, 101):
        assert abs(resum_delta(float(d1)) - d1) <= 8.0 * abs(d1) ** 3 + 1e-16
    assert abs(resum_delta(10.0) - (0.5 - 1.0 / 80.0)) <= 1e-3
    _ok(5, f"threshold identity holds to {worst:.2e}; both limiting forms verified")


def test_criterion_6_delta1_energy_independence() -> None:
    well = to_log_well(Lenz(a=1.0, Z=8.0), S)
    vals = [delta1_integral(well, eps, S) for eps in (0.4, 1.0, 1.6)]
    mean = sum(vals) / len(vals)
    spread = max(vals) - min(vals)
    assert spread <= 0.05 * abs(mean), f"spread {spread:.3e} vs mean {mean:.6f}"
    ratio = mean / delta1_matched(2.0)
    _ok(
        6,
        f"delta1 spread/mean = {spread / abs(mean):.2e}; "
        f"integral/matched ratio = {ratio:.6f} (logged, not asserted)",
    )


def test_criterion_7_ordering_invariance() -> None:
    rng = np.random.default_rng(2026)
    checked = 0
    for phi in (1.0, 1.75, 2.0):
        nu = rng.uniform(0.5, 10.0, size=(10_000, 2))
        lam = rng.uniform(0.5, 10.0, size=(10_000, 2))
        T1 = nu[:, 0] + phi * lam[:, 0]
        T2 = nu[:, 1] + phi * lam[:, 1]
        r1 = np.sqrt(T1 * T1 - 0.25)
        r2 = np.sqrt(T2 * T2 - 0.25)
        mismatches = np.sum(np.sign(T1 - T2) != np.sign(r1 - r2))
        assert mismatches == 0
        checked += len(T1)
    _ok(7, f"{checked} random pairs ordered identically by T and T_ren")


def test_criterion_8_expansion_bound() -> None:
    worst_rel = 0.0
    for T in np.linspace(1.0, 100.0, 1000):
        gap = t_ren_expansion(float(T)) - t_ren(float(T))
        bound = 1.0 / (64.0 * T**3)
        assert 0.0 <= gap <= bound
        worst_rel = max(worst_rel, gap / bound)
    _ok(8, f"expansion bound holds on [1, 100]; tightest margin {worst_rel:.3f} of bound")


def test_criterion_9_renormalization_lowers_thresholds() -> None:
    well = to_log_well(Lenz(a=1.0, Z=1.0), S)
    states = [QuantumNumbers(n, l, 3) for n in range(4) for l in range(4)]
    rows = []
    for q in states:
        z_ren = critical_coupling(well, q, S, t_source=1.0)
        z_unren = critical_coupling(well, q, S, t_source=1.0, renormalized=False)
        T = t_effective(q.nu, q.lam, 1.0)
        reduction = (z_unren - z_ren) / z_unren
        assert abs(reduction - 1.0 / (4.0 * T * T)) <= 1e-10
        rows.append((T, reduction))
    rows.sort()
    for (t1, r1), (t2, r2) in zip(rows, rows[1:]):
        if t2 > t1:
            assert r2 < r1
    _ok(9, "reduction equals 1/(4 T^2) to 1e-10 and decreases along the state grid")


def test_criterion_10_transform_discrimination() -> None:
    states = [QuantumNumbers(0, 0, 3), QuantumNumbers(0, 1, 3), QuantumNumbers(1, 0, 3)]
    # corrected transform: oracle reproduces the closed-form thresholds
    well2 = to_log_well(Lenz(a=1.0, Z=1.0), S, transform_exponent=2)
    worst2 = 0.0
    for q in states:
        z_closed, _ = lenz_exact_threshold(1.0, q)
        z_oracle = exact_critical_coupling(well2, q.lam, q.n, S)
        worst2 = max(worst2, abs(z_oracle - z_closed) / z_closed)
    assert worst2 <= 1e-6
    # printed variant: both the oracle-vs-closed-form comparison and the
    # end-to-end prediction-vs-oracle comparison are far outside tolerance
    well1 = to_log_well(Lenz(a=1.0, Z=1.0), S, transform_exponent=1)
    phi1 = fit_phi(action_profile(well1, S))
    worst1_closed = 0.0
    worst1_e2e = 0.0
    for q in states:
        z_closed, _ = lenz_exact_threshold(1.0, q)
        z_oracle = exact_critical_coupling(well1, q.lam, q.n, S)
        z_pred = critical_coupling(well1, q, S, t_source=phi1)
        worst1_closed = max(worst1_closed, abs(z_oracle - z_closed) / z_closed)
        worst1_e2e = max(worst1_e2e, abs(z_pred - z_oracle) / z_oracle)
    assert worst1_closed > 1e-3
    assert worst1_e2e > 1e-4
    _ok(
        10,
        f"corrected transform matches to {worst2:.2e}; printed variant is off by "
        f"{worst1_closed:.2e} (vs closed form) and {worst1_e2e:.2e} (end to end)",
    )
