import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trenq import (
    InputError,
    Lenz,
    NoSuchLevelError,
    Tabulated,
    count_bound_states,
    delta1_integral,
    delta1_matched,
    ground_state_threshold,
    lenz_analytic_spectrum,
    resum_delta,
    solve_spectrum,
    to_log_well,
)

S_LENZ18 = 1.5615528128088303  # (sqrt(17) - 1)/2


def _tabulated_lenz18(settings):
    """400 samples of Lenz(1, 8) over rho in [-30, 30]: W = 4 sech^2(rho)."""
    rho = np.linspace(-30.0, 30.0, 400)
    u = -2.0 / np.cosh(rho) ** 2 * np.exp(-2.0 * rho)
    return to_log_well(Tabulated(r_grid=np.exp(rho), U_values=u, q0=0.0, qinf=4.0), settings)


def test_delta1_matched_values() -> None:
    assert delta1_matched(2.0) == -0.0625
    assert delta1_matched(0.5) == -0.25
    # vanishes from below as the well action grows
    assert -2e-11 < delta1_matched(1e10) < 0.0
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            delta1_matched(bad)


def test_resum_delta_point_values() -> None:
    assert resum_delta(0.0) == 0.0
    assert resum_delta(0.25) == pytest.approx(0.20710678118654754, abs=1e-15)
    assert resum_delta(10.0) == pytest.approx(0.487656225593564, abs=1e-14)
    # saturation limit: sgn/2 - 1/(8 delta1)
    assert abs(resum_delta(10.0) - (0.5 - 1.0 / 80.0)) <= 1e-3
    assert resum_delta(1e200) == pytest.approx(0.5, abs=1e-15)
    # the saturation limits are values; nan is bad input
    assert resum_delta(math.inf) == 0.5 and resum_delta(-math.inf) == -0.5
    with pytest.raises(InputError):
        resum_delta(math.nan)


def test_resum_delta_second_form_crosscheck() -> None:
    # the equivalent form (sqrt(1+16 d^2)-1)/(8d) cancels catastrophically
    # near zero, so the crosscheck runs where it is itself well conditioned
    for d1 in np.logspace(-2, 2, 33):
        for sign in (1.0, -1.0):
            x = sign * d1
            second = (math.sqrt(1.0 + 16.0 * x * x) - 1.0) / (8.0 * x)
            assert resum_delta(x) == pytest.approx(second, rel=1e-12)


def test_resum_delta_small_argument_bound() -> None:
    for d1 in np.linspace(-0.05, 0.05, 41):
        assert abs(resum_delta(d1) - d1) <= 8.0 * abs(d1) ** 3 + 1e-16


def test_resum_delta_shape() -> None:
    grid = np.linspace(-30.0, 30.0, 1001)
    vals = np.array([resum_delta(float(x)) for x in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(np.abs(vals) < 0.5)
    mirrored = np.array([resum_delta(float(-x)) for x in grid])
    assert np.array_equal(vals, -mirrored)


@given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
def test_resum_delta_odd_increasing_bounded(x: float, y: float) -> None:
    lo, hi = sorted((x, y))
    assert resum_delta(-x) == -resum_delta(x)
    assert -0.5 < resum_delta(x) < 0.5
    assert resum_delta(lo) <= resum_delta(hi)


def test_resum_threshold_identity() -> None:
    # resummed matched correction equals Phi - sqrt(Phi^2 + 1/4) exactly
    for phi_m in (0.3, 1.0, 2.5, 10.0):
        lhs = resum_delta(delta1_matched(phi_m))
        rhs = phi_m - math.hypot(phi_m, 0.5)
        assert abs(lhs - rhs) <= 1e-12


def test_resum_matches_exact_sech2_defect() -> None:
    # for the sech^2 family the exact quantization defect is
    # sqrt(s(s+1)) - s - 1/2, reproduced identically by the resummation
    for s_pt in (0.3, 1.0, 2.5, 10.0):
        phi_m = math.sqrt(s_pt * (s_pt + 1.0))
        exact_defect = phi_m - s_pt - 0.5
        assert abs(resum_delta(delta1_matched(phi_m)) - exact_defect) <= 1e-12


def test_delta1_integral_harmonic_is_zero(settings, quadratic_well) -> None:
    for eps in (0.3, 1.0, 1.7):
        assert abs(delta1_integral(quadratic_well, eps, settings)) <= 5e-8


def test_delta1_integral_energy_independent(settings, lenz18_well) -> None:
    vals = [delta1_integral(lenz18_well, eps, settings) for eps in (0.4, 1.0, 1.6)]
    mean = sum(vals) / 3.0
    assert (max(vals) - min(vals)) <= 0.05 * abs(mean)
    # closed form for this well: -a / (8 sqrt(V_m / 2))
    assert mean == pytest.approx(-1.0 / (8.0 * math.sqrt(2.0)), rel=1e-4)
    # moving the domain cuts by one ulp only reshuffles the ~1e-11 quadrature
    # noise, which the stencil amplifies; the result must not depend on it
    for sign in (-1.0, 1.0):
        nudged = replace(
            lenz18_well,
            rho_left=np.nextafter(lenz18_well.rho_left, sign * np.inf),
            rho_right=np.nextafter(lenz18_well.rho_right, -sign * np.inf),
        )
        for eps in (0.4, 1.0, 1.6):
            assert delta1_integral(nudged, eps, settings) == pytest.approx(
                -1.0 / (8.0 * math.sqrt(2.0)), rel=1e-4
            )
    ratio = mean / delta1_matched(2.0)
    print(f"delta1 integral/matched ratio on sech^2 well: {ratio:.9f}")
    assert 0.3 < ratio < 3.0  # order-of-magnitude agreement only


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_delta1_integral_closed_form_probes(a: float, settings) -> None:
    # delta1 by parts needs only a first difference of F', and the well
    # states its W'' exactly, so neither the quadrature noise nor a one-ulp
    # move of the domain cuts shows at 5e-10 (worst of these 27 probes
    # 3.98e-10, median 2.80e-10; 1.14e-9 with a finite-difference W'')
    w = to_log_well(Lenz(a=a, Z=8.0), settings)
    exact = -a / (8.0 * math.sqrt(2.0))  # -a / (8 sqrt(V_m / 2))
    for sign in (0.0, -1.0, 1.0):
        probe = w if sign == 0.0 else replace(
            w,
            rho_left=np.nextafter(w.rho_left, sign * np.inf),
            rho_right=np.nextafter(w.rho_right, -sign * np.inf),
        )
        for eps in (0.4, 1.0, 1.6):
            assert delta1_integral(probe, eps, settings) == pytest.approx(exact, rel=5e-10)


def test_delta1_integral_tabulated_first_order(settings) -> None:
    # PCHIP is only C^1, so on a tabulated well W'' jumps at the samples and
    # delta1 does not converge with them: on 400 samples of Lenz(1, 8) the
    # errors are +135 %, +12.5 % and -6.9 % at these energies
    w = _tabulated_lenz18(settings)
    exact = -1.0 / (8.0 * math.sqrt(2.0))
    vals = {eps: delta1_integral(w, eps, settings) for eps in (0.4, 1.0, 1.6)}
    assert all(math.isfinite(v) and v < 0.0 for v in vals.values())
    for eps in (1.0, 1.6):
        assert vals[eps] == pytest.approx(exact, rel=0.2)


def test_delta1_integral_range_errors(settings, lenz18_well) -> None:
    with pytest.raises(InputError):
        delta1_integral(lenz18_well, 0.0, settings)
    with pytest.raises(InputError):
        delta1_integral(lenz18_well, 2.0, settings)
    # inside the range, but a subnormal epsilon leaves a step of 0
    with pytest.raises(InputError, match="no room for the difference stencil"):
        delta1_integral(lenz18_well, 5e-324, settings)


def test_ground_state_threshold_values() -> None:
    assert ground_state_threshold(0) == 0.0
    assert ground_state_threshold(1) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert ground_state_threshold(2) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    with pytest.raises(InputError):
        ground_state_threshold(-1)
    with pytest.raises(InputError):
        ground_state_threshold(1.5)
    assert ground_state_threshold(np.int64(1)) == ground_state_threshold(1)


def test_solve_spectrum_lenz18(settings, lenz18_well) -> None:
    lam0 = solve_spectrum(lenz18_well, 0, settings)
    lam1 = solve_spectrum(lenz18_well, 1, settings)
    assert abs(lam0 - S_LENZ18) <= 1e-8
    assert abs(lam1 - (S_LENZ18 - 1.0)) <= 1e-8
    assert lam0 > lam1
    with pytest.raises(NoSuchLevelError):
        solve_spectrum(lenz18_well, 2, settings)
    with pytest.raises(InputError):
        solve_spectrum(lenz18_well, 1.5, settings)


def test_solve_spectrum_exact_integer_case(settings) -> None:
    # depth Z = 4 puts the ground state exactly at lambda = 1
    w = to_log_well(Lenz(a=1.0, Z=4.0), settings)
    assert solve_spectrum(w, 0, settings) == pytest.approx(1.0, abs=1e-8)
    # Z = 3 sits below the n = 1 appearance depth (Z = 4 at lambda -> 0)
    w3 = to_log_well(Lenz(a=1.0, Z=3.0), settings)
    with pytest.raises(NoSuchLevelError):
        solve_spectrum(w3, 1, settings)
    # Lenz(a, 4 a^2) has sigma = 1, so level 1 sits exactly at threshold
    for a in (0.5, 1.0, 2.0):
        w = to_log_well(Lenz(a=a, Z=4.0 * a * a), settings)
        assert abs(solve_spectrum(w, 1, settings)) <= 1e-12 * math.sqrt(w.V_m)


def _counted_actions(monkeypatch) -> list:
    """Record the lambda^2 of every _actions call that solve_spectrum makes."""
    import trenq.corrections as corrections

    calls = []
    actions = corrections._actions

    def counted(w, lambda2, *args, **kwargs):
        calls.append(float(lambda2[0]))
        return actions(w, lambda2, *args, **kwargs)

    monkeypatch.setattr(corrections, "_actions", counted)
    return calls


@pytest.mark.parametrize("a,Z", [(1.0, 8.0), (0.5, 1e4), (2.0, 30.0), (0.7, 1e6)])
def test_solve_spectrum_action_count(a: float, Z: float, settings, monkeypatch) -> None:
    # work-count guard, no timing: the action of a sech^2 well is linear in
    # lambda, so the secant root of [0, sqrt(V_m)] is the level and its one
    # action call predicts a step below Brent's stop (2.2 calls per level
    # when Brent confirmed it, 50-51 bisecting); I(0) comes from action
    calls = _counted_actions(monkeypatch)
    w = to_log_well(Lenz(a=a, Z=Z), settings)
    analytic = lenz_analytic_spectrum(a, Z)
    for n in range(min(len(analytic), 4)):
        calls.clear()
        lam = solve_spectrum(w, n, settings)
        assert lam == pytest.approx(analytic[n], abs=1e-14 * math.sqrt(w.V_m))
        assert len(calls) == 1


@pytest.mark.parametrize(
    "kind,roots",
    [
        # the levels as Brent alone found them, on the weights of numpy's leggauss
        ("printed", (1.8884334434125638, 1.0619141189181345, 0.28083534251608017)),
        ("tabulated", (1.5615666249694933, 0.5615451659539629)),
    ],
)
def test_solve_spectrum_brent_hand_over(kind: str, roots, settings, monkeypatch) -> None:
    # off the sech^2 wells the action is not linear in lambda: the first
    # point's predicted step exceeds the stop, and Brent goes on from it
    # without evaluating it again (4-6 calls per level)
    if kind == "printed":
        w = to_log_well(Lenz(a=1.0, Z=8.0), settings, transform_exponent=1)
    else:
        w = _tabulated_lenz18(settings)
    calls = _counted_actions(monkeypatch)
    for n, root in enumerate(roots):
        calls.clear()
        assert solve_spectrum(w, n, settings) == pytest.approx(root, rel=1e-13)
        assert 1 < len(calls) <= 8 and len(set(calls)) == len(calls), calls
    with pytest.raises(NoSuchLevelError):
        solve_spectrum(w, len(roots), settings)


@pytest.mark.parametrize(
    "a,Z,levels",
    [
        (0.5, 1e14, (0,)),
        (1.0, 1e16, (0, 1)),
        (0.5, 1e16, (0, 1, 3)),
        (2.0, 1e16, (0, 1, 3)),
        (1.0, 1e18, (0, 1, 3)),
        (0.5, 1e20, (0, 1, 3)),
        (0.5, 10**28.5, (0, 1, 2, 3)),
        (0.5, 1.849e32, (0, 1, 2, 3)),
        (0.5, 1e30, (0, 1, 2, 3)),
    ],
)
def test_solve_spectrum_deep_wells_match_closed_form(a: float, Z: float, levels, settings) -> None:
    # near the top of a deep well W - lambda^2 is rounding noise of V_m, so the
    # action's quadrature cannot meet quad_tol and saturates; the level is
    # still the closed form a (sigma - n) (0 ulp on the Lenz wells, at most
    # 4e-15 on the three Tietz wells), where a strict action raised
    # ConvergenceError
    w = to_log_well(Lenz(a, Z), settings)
    sigma = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / (a * a)))
    rel = 1e-15 if Z < 1e21 else 1e-14
    for n in levels:
        assert solve_spectrum(w, n, settings) == pytest.approx(a * (sigma - n), rel=rel)


@pytest.mark.parametrize("Z", [2.0, 8.0, 20.0])
def test_spectrum_count_matches_oracle(Z: float, settings) -> None:
    w = to_log_well(Lenz(a=1.0, Z=Z), settings)
    solved = []
    for n in range(12):
        try:
            solved.append(solve_spectrum(w, n, settings))
        except NoSuchLevelError:
            break
    analytic = lenz_analytic_spectrum(1.0, Z)
    assert len(solved) == len(analytic)
    np.testing.assert_allclose(solved, analytic, atol=1e-8)
    # appearance rule: level n exists iff total action >= sqrt(n(n+1))
    phi_m = math.sqrt(0.5 * Z)
    count_rule = sum(1 for n in range(12) if phi_m >= ground_state_threshold(n))
    assert len(solved) == count_rule
    # quantum-mechanical node count at a probe below every level
    probe = 0.2
    assert all(abs(v - probe) > 1e-3 for v in analytic)
    counted = count_bound_states(w, probe, settings).count
    assert counted == sum(1 for v in analytic if v > probe)
