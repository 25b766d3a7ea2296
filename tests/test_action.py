import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import trenq.potentials as potentials
from trenq import (
    InputError,
    Lenz,
    Settings,
    Tabulated,
    action,
    action_profile,
    correction_inner_integral,
    fit_phi,
    scale_log_well,
    t_of,
    to_log_well,
    turning_points,
)
from trenq.action import _action_with_error, _turning_pairs
from trenq.numerics import gauss_nodes

ARCCOSH_2 = 1.3169578969248166  # ln(2 + sqrt(3))


def lenz_action_closed(a: float, Z: float, lam: float) -> float:
    """Exact action of the sech^2 well: (sqrt(Z/2) - lambda)/a."""
    return (math.sqrt(0.5 * Z) - lam) / a


def test_turning_points_interior(settings, lenz18_well) -> None:
    pair = turning_points(lenz18_well, 1.0)
    assert pair.rho1 == pytest.approx(-ARCCOSH_2, abs=1e-12)
    assert pair.rho2 == pytest.approx(ARCCOSH_2, abs=1e-12)
    assert not pair.degenerate
    w_at = float(lenz18_well.profile(pair.rho2))
    assert abs(w_at - 1.0) <= settings.quad_tol * lenz18_well.V_m


def test_turning_points_edges(settings, lenz18_well) -> None:
    top = turning_points(lenz18_well, 4.0)
    assert top.degenerate and top.rho1 == top.rho2 == lenz18_well.rho_star
    ends = turning_points(lenz18_well, 0.0)
    assert (ends.rho1, ends.rho2) == (lenz18_well.rho_left, lenz18_well.rho_right)
    with pytest.raises(InputError):
        turning_points(lenz18_well, 4.1)
    with pytest.raises(InputError):
        turning_points(lenz18_well, -0.1)
    # nan is bad input, not a failed root bracket
    with pytest.raises(InputError):
        turning_points(lenz18_well, math.nan)
    with pytest.raises(InputError):
        action(lenz18_well, math.nan, settings)
    with pytest.raises(InputError):
        correction_inner_integral(lenz18_well, math.nan, settings)


def test_action_values_lenz18(settings, lenz18_well) -> None:
    assert action(lenz18_well, 0.0, settings) == pytest.approx(2.0, abs=1e-9)
    assert action(lenz18_well, 1.0, settings) == pytest.approx(1.0, abs=1e-9)
    assert action(lenz18_well, 2.0, settings) == 0.0


def test_action_against_independent_quadrature(settings, lenz18_well) -> None:
    # oracle: scipy adaptive quadrature of the raw integrand between the
    # analytically known turning points
    lam = 0.7
    rt = math.acosh(math.sqrt(4.0) / lam)
    val, err = quad(
        lambda x: math.sqrt(max(4.0 / math.cosh(x) ** 2 - lam * lam, 0.0)),
        -rt,
        rt,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    oracle = val / math.pi
    assert err < 1e-10
    assert action(lenz18_well, lam, settings) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(lenz_action_closed(1.0, 8.0, lam), abs=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("Z", [1.0, 8.0, 50.0])
def test_action_closed_form_family(a: float, Z: float, settings) -> None:
    w = to_log_well(Lenz(a=a, Z=Z), settings)
    top = math.sqrt(0.5 * Z)
    for frac in (0.0, 0.11, 0.4, 0.77, 0.95):
        lam = frac * top
        assert abs(action(w, lam, settings) - lenz_action_closed(a, Z, lam)) <= 1e-8


def _lenz_resampling(a: float, Z: float) -> Tabulated:
    rho = np.linspace(-30.0 / a, 30.0 / a, 400)
    u = -0.25 * Z / np.cosh(a * rho) ** 2 * np.exp(-2.0 * rho)
    return Tabulated(r_grid=np.exp(rho), U_values=u, q0=2.0 - 2.0 * a, qinf=2.0 + 2.0 * a)


# None stands for the quadratic_well fixture
TURNING_WELLS = pytest.mark.parametrize(
    "make_well",
    [
        lambda s: to_log_well(Lenz(a=0.5, Z=8.0), s),
        lambda s: to_log_well(Lenz(a=1.0, Z=8.0), s),
        lambda s: to_log_well(Lenz(a=2.0, Z=8.0), s),
        lambda s: to_log_well(_lenz_resampling(1.0, 8.0), s),
        None,
    ],
    ids=["lenz0.5", "lenz1", "lenz2", "tabulated", "quadratic"],
)


def _sign_change_within(f, root: float, rtol: float) -> bool:
    """Whether f takes both signs (zero counts as either) on the floats within rtol of root."""
    x, end = root - rtol * abs(root), root + rtol * abs(root)
    vals = []
    while x <= end:
        vals.append(f(x))
        x = float(np.nextafter(x, math.inf))
    return min(vals) <= 0.0 <= max(vals)


@TURNING_WELLS
def test_batched_turning_points_bit_identical(make_well, settings, quadratic_well) -> None:
    # the batched search of action_profile takes the steps of two scalar
    # searches per level, so roots and action samples agree bit for bit
    w = quadratic_well if make_well is None else make_well(settings)
    prof = action_profile(w, settings)
    lambda2 = prof.lambda_grid * prof.lambda_grid
    interior = 0
    for pair, l2 in zip(_turning_pairs(w, lambda2), lambda2):
        ref = turning_points(w, float(l2))
        assert (pair.rho1.hex(), pair.rho2.hex(), pair.degenerate) == (
            ref.rho1.hex(), ref.rho2.hex(), ref.degenerate
        )
        if not ref.degenerate and ref.rho1 != w.rho_left:
            interior += 1

            def f(rho: float, l2: float = float(l2)) -> float:
                return float(w.profile(rho)) - l2

            assert _sign_change_within(f, ref.rho1, 1e-15)
            assert _sign_change_within(f, ref.rho2, 1e-15)
    assert interior >= 60
    for lam, value, err in zip(prof.lambda_grid, prof.I_values, prof.quad_error):
        ref_value, ref_err = _action_with_error(w, float(lam), settings)
        assert (value.hex(), err.hex()) == (ref_value.hex(), ref_err.hex())


@TURNING_WELLS
def test_turning_points_profile_call_count(make_well, settings, quadratic_well) -> None:
    # work-count guard: once the well's scan exists, each root is refined
    # from its scan cell by false position (bisection took ~115 calls a pair)
    w = quadratic_well if make_well is None else make_well(settings)
    profile = w.profile
    calls = [0]

    def counted(rho):
        calls[0] += 1
        return profile(rho)

    w = replace(w, profile=counted)
    turning_points(w, 0.5 * w.V_m)
    assert len(w._turning_scan) == 2
    # the interior levels of an action profile
    lam = 0.5 * math.sqrt(w.V_m) * (1.0 - np.cos(math.pi * np.arange(1, 64) / 64))
    for lambda2 in (lam * lam).tolist():
        calls[0] = 0
        pair = turning_points(w, lambda2)
        assert pair.rho1 != w.rho_left and not pair.degenerate
        assert calls[0] <= 25, (lambda2, calls[0])


def test_action_profile_profile_call_count(settings, monkeypatch) -> None:
    # work-count guard: one batched root search and one batched quadrature
    # per profile, not several profile calls per level
    calls = [0]
    parts = potentials._lenz_well_parts

    def counting(p, exponent):
        profile, *rest = parts(p, exponent)

        def counted(rho):
            calls[0] += 1
            return profile(rho)

        return (counted, *rest)

    monkeypatch.setattr(potentials, "_lenz_well_parts", counting)
    cases = [(Lenz(0.5, 1e4), 2), (Lenz(1.0, 8.0), 2), (Lenz(2.0, 0.01), 2), (Lenz(1.0, 8.0), 1)]
    for p, exponent in cases:
        w = to_log_well(p, settings, transform_exponent=exponent)
        action(w, 0.0, settings)
        calls[0] = 0
        action_profile(w, settings)
        assert 0 < calls[0] <= 100, (p, exponent, calls[0])


def test_fit_phi_matches_t_of_on_each_node(settings, lenz18_profile) -> None:
    # fit_phi interpolates all its nodes at once; t_of node by node is the reference
    x, wts = gauss_nodes(64)
    lam = 0.5 * lenz18_profile.lambda_max * (x + 1.0)
    t_vals = np.array([t_of(lenz18_profile, float(v)) for v in lam])
    ref = float(np.dot(wts, lam * t_vals)) / float(np.dot(wts, lam * lam))
    assert fit_phi(lenz18_profile).hex() == ref.hex()


def test_zero_action_memo_keyed_by_settings(settings) -> None:
    w = to_log_well(Lenz(a=1.0, Z=8.0), settings)
    assert w._zero_action == {}
    full = action(w, 0.0, settings)
    assert action(w, 0.0, settings) == full
    # a memo keyed by the well alone would return `full` again here
    assert action(w, 0.0, Settings(hbar=2.0)) == pytest.approx(0.5 * full, rel=1e-12)
    assert set(w._zero_action) == {settings, Settings(hbar=2.0)}
    # a rescaled well starts afresh
    w4 = scale_log_well(w, 32.0)
    assert w4._zero_action == {}
    assert action(w4, 0.0, settings) == pytest.approx(2.0 * full, rel=1e-12)


def test_action_error_estimate_bounds_change(settings, lenz18_well) -> None:
    tight = Settings(quad_tol=settings.quad_tol / 2)
    for lam in (0.0, 0.5, 1.3):
        v1, e1 = _action_with_error(lenz18_well, lam, settings)
        v2, _ = _action_with_error(lenz18_well, lam, tight)
        assert abs(v1 - v2) <= max(e1, 1e-15)


def test_action_profile_shape(settings, lenz18_profile) -> None:
    prof = lenz18_profile
    assert prof.lambda_grid[0] == 0.0
    assert prof.lambda_grid[-1] == pytest.approx(2.0, rel=1e-12)
    assert prof.Phi_m == pytest.approx(2.0, abs=1e-9)
    assert np.all(np.diff(prof.lambda_grid) > 0.0)
    # I decreases to zero at the top of the well, strictly while positive
    assert np.all(np.diff(prof.I_values) <= 1e-12)
    assert np.all(np.diff(prof.I_values)[prof.I_values[1:] > 0.0] < 0.0)
    assert prof.I_values[-1] == 0.0
    assert np.all(prof.I_values >= 0.0)


def test_deficit_linearity(settings, lenz18_profile) -> None:
    # t(lambda) = lambda for a = 1, exactly linear for this family
    assert t_of(lenz18_profile, 0.0) == 0.0
    lam_probe = np.linspace(0.0, 2.0, 41)
    worst = max(abs(t_of(lenz18_profile, float(v)) - v) for v in lam_probe)
    assert worst <= 1e-8
    assert t_of(lenz18_profile, 2.0) == pytest.approx(lenz18_profile.Phi_m, abs=1e-12)
    with pytest.raises(InputError):
        t_of(lenz18_profile, 2.1)
    with pytest.raises(InputError):
        t_of(lenz18_profile, -0.1)
    with pytest.raises(InputError):
        t_of(lenz18_profile, math.nan)


@pytest.mark.parametrize("a,expected", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)])
def test_fit_phi_recovers_inverse_width(a: float, expected: float, settings) -> None:
    w = to_log_well(Lenz(a=a, Z=8.0), settings)
    assert abs(fit_phi(action_profile(w, settings)) - expected) <= 1e-8


def test_fit_phi_coupling_independent(settings) -> None:
    phis = []
    for Z in (1.0, 50.0):
        w = to_log_well(Lenz(a=1.0, Z=Z), settings)
        phis.append(fit_phi(action_profile(w, settings)))
    assert abs(phis[0] - phis[1]) <= 1e-10


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_action_profile_deep_well(a: float, settings) -> None:
    # the quadrature tolerance is relative to I, so a well with Phi_m ~ 1e6
    # converges as easily as a shallow one
    prof = action_profile(to_log_well(Lenz(a=a, Z=1e12), settings), settings)
    assert abs(fit_phi(prof) - 1.0 / a) <= 1e-10
    assert prof.Phi_m == pytest.approx(math.sqrt(0.5e12) / a, rel=1e-12)


def test_inner_integral_quadratic_well(settings, quadratic_well) -> None:
    # closed form for V = x^2/2: F(eps) = sqrt(2) pi eps
    assert correction_inner_integral(quadratic_well, 1.0, settings) == pytest.approx(
        4.442882938158366, abs=1e-9
    )
    assert correction_inner_integral(quadratic_well, 0.35, settings) == pytest.approx(
        0.35 * 4.442882938158366, abs=1e-9
    )
    assert correction_inner_integral(quadratic_well, 0.0, settings) == 0.0
    with pytest.raises(InputError):
        correction_inner_integral(quadratic_well, -0.1, settings)
    with pytest.raises(InputError):
        correction_inner_integral(quadratic_well, 2.5, settings)


def test_inner_integral_lenz_against_quadrature(settings, lenz18_well) -> None:
    # oracle: scipy quadrature of (dV/dx)^2 / sqrt(eps - V) for the formal
    # well V = 2 tanh^2(rho) at eps = 1
    eps = 1.0
    xt = math.atanh(math.sqrt(eps / 2.0))

    def integrand(x: float) -> float:
        dv = 4.0 * math.tanh(x) / math.cosh(x) ** 2
        gap = eps - 2.0 * math.tanh(x) ** 2
        return dv * dv / math.sqrt(max(gap, 0.0))

    oracle, err = quad(integrand, -xt, xt, limit=800, points=[-xt, xt], epsabs=1e-10)
    mine = correction_inner_integral(lenz18_well, eps, settings)
    assert mine == pytest.approx(oracle, abs=5e-8)
    # refinement stability
    tight = Settings(quad_tol=settings.quad_tol / 10.0)
    assert abs(correction_inner_integral(lenz18_well, eps, tight) - mine) <= 1e-8
