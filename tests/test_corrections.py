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
    action,
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


def test_delta1_matched_values() -> None:
    assert delta1_matched(2.0) == -0.0625
    assert delta1_matched(0.5) == -0.25
    # vanishes from below as the well action grows
    assert -2e-11 < delta1_matched(1e10) < 0.0
    with pytest.raises(InputError):
        delta1_matched(0.0)


def test_resum_delta_point_values() -> None:
    assert resum_delta(0.0) == 0.0
    assert resum_delta(0.25) == pytest.approx(0.20710678118654754, abs=1e-15)
    assert resum_delta(10.0) == pytest.approx(0.487656225593564, abs=1e-14)
    # saturation limit: sgn/2 - 1/(8 delta1)
    assert abs(resum_delta(10.0) - (0.5 - 1.0 / 80.0)) <= 1e-3
    assert resum_delta(1e200) == pytest.approx(0.5, abs=1e-15)


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
    # delta1 by parts needs only a first difference of F', so neither the
    # quadrature noise nor a one-ulp move of the domain cuts shows at 1e-8
    w = to_log_well(Lenz(a=a, Z=8.0), settings)
    exact = -a / (8.0 * math.sqrt(2.0))  # -a / (8 sqrt(V_m / 2))
    for sign in (0.0, -1.0, 1.0):
        probe = w if sign == 0.0 else replace(
            w,
            rho_left=np.nextafter(w.rho_left, sign * np.inf),
            rho_right=np.nextafter(w.rho_right, -sign * np.inf),
        )
        for eps in (0.4, 1.0, 1.6):
            assert delta1_integral(probe, eps, settings) == pytest.approx(exact, rel=1e-8)


def test_delta1_integral_range_errors(settings, lenz18_well) -> None:
    with pytest.raises(InputError):
        delta1_integral(lenz18_well, 0.0, settings)
    with pytest.raises(InputError):
        delta1_integral(lenz18_well, 2.0, settings)


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


@pytest.mark.parametrize("a,Z", [(1.0, 8.0), (0.5, 1e4), (2.0, 30.0)])
def test_solve_spectrum_action_count(a: float, Z: float, settings, monkeypatch) -> None:
    # work-count guard, no timing: each level is a smooth root-find on the
    # action (bisecting it took 50-51 action calls per level)
    import trenq.corrections as corrections

    calls = []

    def counted(*args):
        calls.append(args[1])
        return action(*args)

    monkeypatch.setattr(corrections, "action", counted)
    w = to_log_well(Lenz(a=a, Z=Z), settings)
    analytic = lenz_analytic_spectrum(a, Z)
    for n in range(min(len(analytic), 4)):
        calls.clear()
        assert solve_spectrum(w, n, settings) == pytest.approx(analytic[n], abs=1e-8)
        assert len(calls) <= 12


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
