import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from trenq import (
    InputError,
    Lenz,
    LogWell,
    QuantumNumbers,
    Settings,
    Tabulated,
    Tietz,
    action,
    action_profile,
    critical_coupling,
    exact_critical_coupling,
    fit_phi,
    lenz_exact_threshold,
    t_effective,
    t_ren,
    threshold_reports,
    to_log_well,
)


def test_critical_coupling_reference_values(settings, lenz18_well) -> None:
    q = QuantumNumbers(0, 0, 3)
    z_ren = critical_coupling(lenz18_well, q, settings, t_source=1.0)
    z_unren = critical_coupling(lenz18_well, q, settings, t_source=1.0, renormalized=False)
    assert z_ren == pytest.approx(1.5, rel=1e-9)
    assert z_unren == pytest.approx(2.0, rel=1e-9)
    wt = to_log_well(Tietz(1.0), settings)
    assert critical_coupling(wt, q, settings, t_source=2.0) == pytest.approx(1.0, rel=1e-9)
    # a linear well whose base profile is zero has no action to match
    def zero(rho):
        return np.zeros_like(np.asarray(rho, dtype=float))

    flat = LogWell(
        base=zero,
        base_curv=zero,
        Z=1.0,
        V_m=1.0,
        rho_star=0.0,
        rho_left=-1.0,
        rho_right=1.0,
        decay_left=1.0,
        decay_right=1.0,
    )
    with pytest.raises(InputError, match="no finite critical coupling"):
        critical_coupling(flat, q, settings, t_source=1.0)
    with pytest.raises(InputError, match="no finite critical coupling"):
        threshold_reports(flat, [q], settings, t_source=1.0)


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


def test_critical_coupling_factory_route(settings, lenz18_well) -> None:
    def factory(Z: float):
        return to_log_well(Lenz(a=1.0, Z=Z), settings)

    q = QuantumNumbers(1, 1, 3)
    closed = critical_coupling(lenz18_well, q, settings, t_source=1.0)
    solved = critical_coupling(
        lenz18_well, q, settings, t_source=1.0, well_factory=factory
    )
    assert solved == pytest.approx(closed, rel=1e-9)
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


WORK_COUNT_WELLS = [(1.0, 8.0), (0.5, 1e4), (2.0, 30.0)]


@pytest.mark.parametrize("a,Z", WORK_COUNT_WELLS)
def test_factory_route_work_count(a: float, Z: float, settings) -> None:
    # work-count guard, no timing: the sqrt(Z) guess from the Z = 1 build is
    # right to rounding for a linear family, so the route builds the wells
    # at 1, at the guess and one step beyond it (doubling from Z = 1 built 3-11)
    w = to_log_well(Lenz(a=a, Z=Z), settings)
    phi = fit_phi(action_profile(w, settings))
    for q in (QuantumNumbers(0, 0, 3), QuantumNumbers(3, 3, 3)):
        builds = []

        def factory(z: float):
            builds.append(z)
            return to_log_well(Lenz(a=a, Z=z), settings)

        z = critical_coupling(w, q, settings, t_source=phi, well_factory=factory)
        assert z == pytest.approx(lenz_exact_threshold(a, q)[0], rel=1e-11)
        assert len(builds) <= 3, builds


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_factory_route_off_sqrt_scaling(a: float, settings) -> None:
    # Z -> Lenz(a, sqrt(Z)) has an action growing like Z^(1/4), so the sqrt(Z)
    # guess misses by a factor of up to ~220 and the bracket has to grow from
    # it: 3-21 builds here, where doubling from Z = 1 built 3-22
    w = to_log_well(Lenz(a=a, Z=1.0), settings)
    for q in (QuantumNumbers(0, 0, 3), QuantumNumbers(3, 3, 3)):
        builds = []

        def factory(z: float):
            builds.append(z)
            return to_log_well(Lenz(a=a, Z=math.sqrt(z)), settings)

        z = critical_coupling(w, q, settings, t_source=1.0 / a, well_factory=factory)
        target = t_ren(t_effective(q.nu, q.lam, 1.0 / a))

        def overshoot(z: float) -> float:
            return action(to_log_well(Lenz(a=a, Z=math.sqrt(z)), settings), 0.0, settings) - target

        reference = brentq(overshoot, 1e-3, 1e6, xtol=1e-300, rtol=1e-14)
        assert z == pytest.approx(reference, rel=1e-11)
        assert len(builds) <= 22, builds


@pytest.mark.parametrize("bad_action", [0.0, -1.0, math.nan])
def test_factory_route_falls_back_to_walk(bad_action: float, settings, monkeypatch) -> None:
    # when the Z = 1 build gives no usable action there is no sqrt(Z) guess,
    # and the route doubles from Z = 1 as before; Z_c = 7.5 > 4, so the
    # bracket is [4, 8] and the bad value at Z = 1 never reaches Brent
    import trenq.thresholds as thresholds_mod

    true_action = thresholds_mod.action

    def patched(w, lam, s):
        return bad_action if w.Z == 1.0 else true_action(w, lam, s)

    monkeypatch.setattr(thresholds_mod, "action", patched)
    builds = []

    def factory(z: float):
        builds.append(z)
        return to_log_well(Lenz(a=1.0, Z=z), settings)

    q = QuantumNumbers(1, 1, 3)
    w = to_log_well(Lenz(a=1.0, Z=8.0), settings)
    z = critical_coupling(w, q, settings, t_source=1.0, well_factory=factory)
    assert z == pytest.approx(lenz_exact_threshold(1.0, q)[0], rel=1e-11)
    assert builds[:4] == [1.0, 2.0, 4.0, 8.0]


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
    for a in (math.nan, math.inf):
        with pytest.raises(InputError):
            lenz_exact_threshold(a, QuantumNumbers(0, 0, 3))
    for hbar in (0.0, -1.0, math.inf):
        with pytest.raises(InputError, match="hbar"):
            lenz_exact_threshold(1.0, QuantumNumbers(0, 0, 3), hbar=hbar)


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


@hypothesis_settings(max_examples=10, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    hbar=st.floats(0.25, 4.0),
    lam1=st.floats(0.25, 3.0),
    n=st.integers(0, 1),
)
def test_hbar_rescaling_oracle(a: float, hbar: float, lam1: float, n: int) -> None:
    # dividing the equation by hbar^2 gives Z_c(hbar, lambda) = hbar^2 Z_c(1, lambda / hbar);
    # the oracle takes lambda directly and each side is held to its error
    # bound, ode_tol / 10 on a smooth well (60 random draws: at most 1.3e-12)
    s1 = Settings()
    w = to_log_well(Lenz(a=a, Z=1.0), s1)
    z_hbar = exact_critical_coupling(w, hbar * lam1, n, Settings(hbar=hbar))
    z_one = exact_critical_coupling(w, lam1, n, s1)
    assert z_hbar == pytest.approx(hbar * hbar * z_one, rel=0.2 * s1.ode_tol)


def _state_of(n: int, lam: float) -> QuantumNumbers:
    """The state (n, l, d) with lambda = l + (d - 2)/2, for lambda a multiple of 1/2."""
    l = int(lam)
    return QuantumNumbers(n, l, 2 + round(2.0 * (lam - l)))


@hypothesis_settings(max_examples=10, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    hbar=st.sampled_from([0.5, 2.0, 3.0, 5.0]),
    lam1=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    n=st.integers(0, 3),
)
def test_hbar_rescaling_prediction(a: float, hbar: float, lam1: float, n: int) -> None:
    # the same identity on the prediction route, with phi fitted under each
    # Settings: the action carries 1/(pi hbar), so phi scales as 1/hbar and
    # T = nu + phi lambda is unchanged
    assume((2.0 * hbar * lam1).is_integer())
    w = to_log_well(Lenz(a=a, Z=1.0), Settings())
    z = []
    for s, lam in ((Settings(hbar=hbar), hbar * lam1), (Settings(), lam1)):
        phi = fit_phi(action_profile(w, s))
        z.append(critical_coupling(w, _state_of(n, lam), s, t_source=phi))
    assert z[0] == pytest.approx(hbar * hbar * z[1], rel=Settings().quad_tol)


def test_threshold_reports_without_oracle(settings, lenz18_well) -> None:
    reports = threshold_reports(
        lenz18_well, [QuantumNumbers(0, 0, 3)], settings, t_source=1.0
    )
    r = reports[0]
    assert r.Z_exact is None and r.rel_err_ren is None and r.rel_err_unren is None
    assert r.T == 1.0
    assert r.T_ren == pytest.approx(t_ren(1.0), abs=1e-15)


@hypothesis_settings(max_examples=6, deadline=None)
@given(a=st.floats(0.5, 2.0))
def test_thresholds_rise_in_n_and_l(a: float) -> None:
    # a deeper well is needed for each further node and for each further unit
    # of angular momentum: both the oracle and the renormalized prediction
    # rise strictly in n at fixed l and in l at fixed n
    s = Settings()
    w = to_log_well(Lenz(a=a, Z=1.0), s)
    phi = fit_phi(action_profile(w, s))
    states = [[QuantumNumbers(n, l, 3) for l in range(3)] for n in range(3)]
    oracle = np.array([[exact_critical_coupling(w, q.lam, q.n, s) for q in row] for row in states])
    predicted = np.array([[critical_coupling(w, q, s, t_source=phi) for q in row] for row in states])
    for z in (oracle, predicted):
        assert np.all(np.diff(z, axis=0) > 0.0) and np.all(np.diff(z, axis=1) > 0.0), z


@hypothesis_settings(max_examples=5, deadline=None)
@given(a=st.floats(0.5, 2.0))
def test_tabulated_lenz_agrees_with_analytic(a: float) -> None:
    # 400 samples of Lenz(a, 1), evenly spaced in ln r where W > 1e-14 of its
    # peak: phi and the renormalized Z_c(0, 0) follow the analytic well to
    # the sampling bound (1.1e-6 and 2.4e-6 relative)
    s = Settings()
    rho = np.linspace(-16.8 / a, 16.8 / a, 400)
    u = -0.25 / np.cosh(a * rho) ** 2 * np.exp(-2.0 * rho)
    tab = Tabulated(r_grid=np.exp(rho), U_values=u, q0=2.0 - 2.0 * a, qinf=2.0 + 2.0 * a)
    q = QuantumNumbers(0, 0, 3)
    results = []
    for p in (tab, Lenz(a=a, Z=1.0)):
        w = to_log_well(p, s)
        phi = fit_phi(action_profile(w, s))
        results.append((phi, critical_coupling(w, q, s, t_source=phi)))
    (phi_tab, z_tab), (phi_lenz, z_lenz) = results
    assert phi_tab == pytest.approx(phi_lenz, rel=1e-5)
    assert z_tab == pytest.approx(z_lenz, rel=1e-5)
