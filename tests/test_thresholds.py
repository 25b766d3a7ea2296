import math

import numpy as np
import pytest

from trenq import (
    InputError,
    Lenz,
    QuantumNumbers,
    Tietz,
    action_profile,
    base_action_integral,
    critical_coupling,
    fit_phi,
    lenz_exact_threshold,
    renormalization_effect,
    t_effective,
    t_ren,
    threshold_reports,
    to_log_well,
)


def test_base_action_integral_closed_form(settings) -> None:
    # integral of sqrt(sech^2(a x)/2) is pi/(a sqrt(2))
    for a in (0.5, 1.0, 2.0):
        w = to_log_well(Lenz(a=a, Z=8.0), settings)
        assert base_action_integral(w, settings) == pytest.approx(
            math.pi / (a * math.sqrt(2.0)), rel=1e-9
        )


def test_critical_coupling_reference_values(settings, lenz18_well) -> None:
    q = QuantumNumbers(0, 0, 3)
    z_ren = critical_coupling(lenz18_well, q, settings, t_source=1.0)
    z_unren = critical_coupling(lenz18_well, q, settings, t_source=1.0, renormalized=False)
    assert z_ren == pytest.approx(1.5, rel=1e-9)
    assert z_unren == pytest.approx(2.0, rel=1e-9)
    wt = to_log_well(Tietz(1.0), settings)
    assert critical_coupling(wt, q, settings, t_source=2.0) == pytest.approx(1.0, rel=1e-9)


def test_critical_coupling_profile_source(settings, lenz18_well, lenz18_profile) -> None:
    q = QuantumNumbers(0, 1, 3)
    z_phi = critical_coupling(lenz18_well, q, settings, t_source=1.0)
    z_exact_t = critical_coupling(lenz18_well, q, settings, t_source=lenz18_profile)
    assert z_phi == pytest.approx(z_exact_t, rel=1e-8)


def test_critical_coupling_quadratic_in_target(settings, lenz18_well) -> None:
    # doubling T doubles the matching target, so Z must scale by four
    z1 = critical_coupling(
        lenz18_well, QuantumNumbers(0, 0, 3), settings, t_source=1.0, renormalized=False
    )
    z2 = critical_coupling(
        lenz18_well, QuantumNumbers(0, 1, 3), settings, t_source=1.0, renormalized=False
    )
    assert z2 == pytest.approx(4.0 * z1, rel=1e-12)


def test_critical_coupling_bisection_route(settings, lenz18_well) -> None:
    def factory(Z: float):
        return to_log_well(Lenz(a=1.0, Z=Z), settings)

    q = QuantumNumbers(1, 1, 3)
    closed = critical_coupling(lenz18_well, q, settings, t_source=1.0)
    bisected = critical_coupling(
        lenz18_well, q, settings, t_source=1.0, well_factory=factory
    )
    assert bisected == pytest.approx(closed, rel=1e-9)
    # refactoring gate: with the fitted slope both routes reproduce the
    # closed form on the criterion-1 grid far below the acceptance tolerance
    for a in (0.5, 1.0, 2.0):
        w = to_log_well(Lenz(a=a, Z=1.0), settings)
        phi = fit_phi(action_profile(w, settings))
        for n in range(4):
            for l in range(4):
                q = QuantumNumbers(n, l, 3)
                exact, _ = lenz_exact_threshold(a, q)
                z = critical_coupling(w, q, settings, t_source=phi)
                assert z == pytest.approx(exact, rel=1e-11)
                if (n, l) in ((0, 0), (3, 3)):
                    z = critical_coupling(
                        w, q, settings, t_source=phi,
                        well_factory=lambda Z, a=a: to_log_well(Lenz(a=a, Z=Z), settings),
                    )
                    assert z == pytest.approx(exact, rel=1e-11)


def test_lenz_exact_threshold_values() -> None:
    z, z_printed = lenz_exact_threshold(1.0, QuantumNumbers(0, 0, 3))
    assert z == pytest.approx(1.5, abs=1e-14)
    assert z_printed == pytest.approx(math.sqrt(3.0), abs=1e-14)
    z_half, _ = lenz_exact_threshold(0.5, QuantumNumbers(0, 0, 3))
    assert z_half == pytest.approx(1.0, abs=1e-14)
    z_two, _ = lenz_exact_threshold(2.0, QuantumNumbers(0, 1, 3))
    assert z_two == pytest.approx(10.5, abs=1e-13)
    with pytest.raises(InputError):
        lenz_exact_threshold(0.0, QuantumNumbers(0, 0, 3))


def test_renormalization_effect_rows() -> None:
    states = [QuantumNumbers(n, l, 3) for n in range(3) for l in range(3)]
    rows = renormalization_effect(states, phi=1.0)
    by_state = {(r.state.n, r.state.l): r.reduction for r in rows}
    assert by_state[(0, 0)] == pytest.approx(0.25, abs=1e-15)  # T = 1
    assert by_state[(0, 1)] == pytest.approx(0.0625, abs=1e-15)  # T = 2
    ts = [r.T for r in rows]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    reductions = [r.reduction for r in rows]
    # strictly decreasing wherever T strictly increases
    for (t1, r1), (t2, r2) in zip(zip(ts, reductions), zip(ts[1:], reductions[1:])):
        if t2 > t1:
            assert r2 < r1
        else:
            assert r2 == r1


def test_reduction_matches_coupling_ratio(settings, lenz18_well) -> None:
    for q in (QuantumNumbers(0, 0, 3), QuantumNumbers(1, 2, 3), QuantumNumbers(3, 3, 3)):
        z_ren = critical_coupling(lenz18_well, q, settings, t_source=1.0)
        z_unren = critical_coupling(
            lenz18_well, q, settings, t_source=1.0, renormalized=False
        )
        T = t_effective(q.nu, q.lam, 1.0)
        assert (z_unren - z_ren) / z_unren == pytest.approx(1.0 / (4.0 * T * T), abs=1e-10)
        assert z_ren < z_unren


def test_threshold_reports_order_and_oracle(settings, lenz18_well) -> None:
    states = [QuantumNumbers(n, l, 3) for n in range(2) for l in range(2)]
    reports = threshold_reports(lenz18_well, states, settings, t_source=1.0, with_oracle=True)
    assert [(r.state.n, r.state.l) for r in reports] == [(n, l) for n in range(2) for l in range(2)]
    for r in reports:
        assert r.Z_exact is not None
        assert r.rel_err_ren <= 1e-6
        assert r.Z_pred_ren < r.Z_pred_unren
        assert r.rel_err_unren > r.rel_err_ren
    # predicted couplings sort exactly like the renormalized numbers
    by_z = sorted(reports, key=lambda r: r.Z_pred_ren)
    by_t = sorted(reports, key=lambda r: r.T_ren)
    assert [(r.state.n, r.state.l) for r in by_z] == [(r.state.n, r.state.l) for r in by_t]


def test_threshold_reports_planar_marginal_state(settings, lenz18_well) -> None:
    # d = 2, l = 0 has lambda = 0: the renormalized route predicts appearance
    # at zero depth (the lowest state of an equal-asymptote well always
    # exists) while the plain route does not; the oracle cannot be consulted
    # there and its fields stay empty
    states = [QuantumNumbers(0, 0, 2), QuantumNumbers(0, 1, 2)]
    reports = threshold_reports(lenz18_well, states, settings, t_source=1.0, with_oracle=True)
    marginal, regular = reports
    assert marginal.T == 0.5 and marginal.T_ren == 0.0
    assert marginal.Z_pred_ren == 0.0
    assert marginal.Z_pred_unren > 0.0
    assert marginal.Z_exact is None
    assert regular.Z_exact is not None and regular.rel_err_ren <= 1e-6


def test_hbar_scaling_consistency() -> None:
    # every route must agree at hbar != 1: solver vs analytic spectrum,
    # predicted threshold vs oracle vs closed form
    from trenq import (
        Settings,
        action_profile,
        count_bound_states,
        exact_critical_coupling,
        fit_phi,
        lenz_analytic_spectrum,
        solve_spectrum,
    )

    s2 = Settings(hbar=2.0)
    w = to_log_well(Lenz(a=1.0, Z=32.0), s2)
    analytic = lenz_analytic_spectrum(1.0, 32.0, hbar=2.0)
    solved = [solve_spectrum(w, n, s2) for n in range(len(analytic))]
    np.testing.assert_allclose(solved, analytic, atol=1e-8)
    assert count_bound_states(w, 1.0, s2).count == sum(1 for v in analytic if v > 1.0)
    q = QuantumNumbers(0, 0, 3)
    phi = fit_phi(action_profile(w, s2))
    z_pred = critical_coupling(w, q, s2, t_source=phi)
    z_oracle = exact_critical_coupling(w, q.lam, q.n, s2)
    z_closed, _ = lenz_exact_threshold(1.0, q, hbar=2.0)
    assert z_closed == pytest.approx(2.5, abs=1e-14)
    assert z_pred == pytest.approx(z_closed, rel=1e-8)
    assert z_oracle == pytest.approx(z_closed, rel=1e-6)


def test_threshold_reports_without_oracle(settings, lenz18_well) -> None:
    reports = threshold_reports(
        lenz18_well, [QuantumNumbers(0, 0, 3)], settings, t_source=1.0
    )
    r = reports[0]
    assert r.Z_exact is None and r.rel_err_ren is None and r.rel_err_unren is None
    assert r.T == 1.0
    assert r.T_ren == pytest.approx(t_ren(1.0), abs=1e-15)
