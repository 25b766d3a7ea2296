import gc
import math
import weakref
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
    count_bound_states,
    exact_critical_coupling,
    fit_phi,
    t_of,
    to_log_well,
    turning_points,
)
from trenq.action import (
    TurningPair,
    _actions,
    _turning_pairs,
    _zero_action,
    correction_inner_slopes,
)
from trenq.numerics import gauss_nodes

ARCCOSH_2 = 1.3169578969248166  # ln(2 + sqrt(3))


def lenz_action_closed(a: float, Z: float, lam: float) -> float:
    """Exact action of the sech^2 well: (sqrt(Z/2) - lambda)/a."""
    return (math.sqrt(0.5 * Z) - lam) / a


def _action_and_error(w, lam: float, s: Settings) -> tuple[float, float]:
    """(I(lambda), error estimate) from the kernels that action() calls."""
    if lam == 0.0:
        return _zero_action(w, s)
    values, errors = _actions(w, np.array([lam * lam]), s)
    return float(values[0]), float(errors[0])


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
        correction_inner_slopes(lenz18_well, np.array([math.nan]), 1e-12)
    with pytest.raises(InputError):
        correction_inner_slopes(lenz18_well, math.nan, 1e-12)


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
        ref_value, ref_err = _action_and_error(w, float(lam), settings)
        assert (value.hex(), err.hex()) == (ref_value.hex(), ref_err.hex())
        assert action(w, float(lam), settings).hex() == ref_value.hex()


@TURNING_WELLS
def test_zero_level_skips_the_turning_scan(make_well, settings, quadratic_well) -> None:
    # lambda^2 = 0 lies at or below the domain-cut floor of every well, so its
    # pair is the cuts, found without scanning the well
    w = quadratic_well if make_well is None else make_well(settings)
    w = replace(w, base=lambda rho: pytest.fail("the zero level evaluated the well"))
    for pair in (turning_points(w, 0.0), *_turning_pairs(w, np.zeros(2))):
        assert pair == TurningPair(w.rho_left, w.rho_right)
    assert "turning_scan" not in w._memo


@TURNING_WELLS
def test_turning_points_profile_call_count(make_well, settings, quadratic_well) -> None:
    # work-count guard: once the well's scan exists, each root is refined
    # from its scan cell by false position (bisection took ~115 calls a pair)
    w = quadratic_well if make_well is None else make_well(settings)
    base = w.base
    calls = [0]

    def counted(rho):
        calls[0] += 1
        return base(rho)

    w = replace(w, base=counted)
    turning_points(w, 0.5 * w.V_m)
    assert len(w._memo["turning_scan"]) == 3
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

    def counting(p):
        base, base_curv = parts(p)

        def counted(rho):
            calls[0] += 1
            return base(rho)

        return counted, base_curv

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
    assert w._memo == {}
    full = action(w, 0.0, settings)
    assert action(w, 0.0, settings) == full
    # a memo keyed by the well alone would return `full` again here
    assert action(w, 0.0, Settings(hbar=2.0)) == pytest.approx(0.5 * full, rel=1e-12)
    assert ("zero_action", settings) in w._memo and ("zero_action", Settings(hbar=2.0)) in w._memo
    # the action's and the oracle's entries share the one memo without clashing,
    # and counting at another coupling leaves the well's own entries alone
    turning_points(w, 1.0)
    scan = w._memo["turning_scan"]
    exact_critical_coupling(w, 0.5, 0, settings)
    assert ("coarse_count", 0.5, settings, 1.0) in w._memo
    assert w._memo["turning_scan"] is scan and action(w, 0.0, settings) == full
    # an analytic well never builds a knot table
    action_profile(w, settings)
    assert "knot_table" not in w._memo
    # a tabulated well builds it on its first knot integral, not in
    # to_log_well or for a node count, and reuses it after that
    tab = to_log_well(_lenz_resampling(1.0, 8.0), settings)
    assert tab._memo == {}
    count_bound_states(tab, 0.5, settings)
    exact_critical_coupling(tab, 0.5, 0, settings)
    assert "knot_table" not in tab._memo
    action(tab, 0.5, settings)
    table = tab._memo["knot_table"]
    action_profile(tab, settings)
    assert tab._memo["knot_table"] is table
    # a copy of the well starts with an empty memo of its own
    assert replace(tab, base=tab.base)._memo == {}


def test_action_error_estimate_bounds_change(settings, lenz18_well) -> None:
    tight = Settings(quad_tol=settings.quad_tol / 2)
    for lam in (0.0, 0.5, 1.3):
        v1, e1 = _action_and_error(lenz18_well, lam, settings)
        v2 = action(lenz18_well, lam, tight)
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


def test_action_profile_rejects_bad_point_counts(settings, lenz18_well) -> None:
    for bad in (4, 5.5, math.nan):
        with pytest.raises(InputError):
            action_profile(lenz18_well, settings, n_points=bad)


def test_deficit_linearity(settings, lenz18_profile) -> None:
    # t(lambda) = lambda for a = 1, exactly linear for this family
    assert t_of(lenz18_profile, 0.0) == 0.0
    lam_probe = np.linspace(0.0, 2.0, 41)
    worst = max(abs(t_of(lenz18_profile, float(v)) - v) for v in lam_probe)
    assert worst <= 1e-8
    assert t_of(lenz18_profile, 2.0) == pytest.approx(lenz18_profile.Phi_m, abs=1e-12)
    # up to 1e-12 beyond sqrt(V_m) the interpolant's flat end piece holds I
    # at its value at sqrt(V_m), which is below the rounding of Phi_m
    beyond = t_of(lenz18_profile, 2.0 * (1.0 + 1e-12))
    assert beyond == t_of(lenz18_profile, 2.0) == lenz18_profile.Phi_m
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
    # up to V_m ~ 3e205: beyond, the interpolant's cubic term overflows
    w = to_log_well(Lenz(a=1.0, Z=1e300), settings)
    with pytest.raises(InputError, match="overflows"):
        fit_phi(action_profile(w, settings))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_action_profile_deep_well(a: float, settings) -> None:
    # the quadrature tolerance is relative to I, so a well with Phi_m ~ 1e6
    # converges as easily as a shallow one
    prof = action_profile(to_log_well(Lenz(a=a, Z=1e12), settings), settings)
    assert abs(fit_phi(prof) - 1.0 / a) <= 1e-10
    assert prof.Phi_m == pytest.approx(math.sqrt(0.5e12) / a, rel=1e-12)


def test_inner_slopes_quadratic_well(settings, quadratic_well) -> None:
    # closed form for V = x^2/2: F(eps) = sqrt(2) pi eps, so F' = sqrt(2) pi;
    # the tolerance is the one delta1_integral asks for
    tol = max(1e-12, 1e-3 * settings.quad_tol)
    slopes = correction_inner_slopes(quadratic_well, np.array([0.35, 1.0]), tol)
    assert np.all(np.abs(slopes - math.sqrt(2.0) * math.pi) <= 1e-10)
    for eps in (math.nan, -0.1, 2.5):
        with pytest.raises(InputError):
            correction_inner_slopes(quadratic_well, np.array([eps]), tol)


def test_inner_slopes_lenz_closed_form(settings, lenz18_well) -> None:
    # formal well V = 2 tanh^2(x): F(eps) = (pi / sqrt 2)(4 eps - 3 eps^2 / 2),
    # so F' = (pi / sqrt 2)(4 - 3 eps); with the exact W'' the error left is
    # the quadrature's, 1.7e-11 at most (~4e-10 with a finite-difference W'')
    tol = max(1e-12, 1e-3 * settings.quad_tol)
    eps = np.array([0.4, 1.0, 1.6])
    slopes = correction_inner_slopes(lenz18_well, eps, tol)
    exact = (math.pi / math.sqrt(2.0)) * (4.0 - 3.0 * eps)
    assert np.all(np.abs(slopes - exact) <= 1e-10)
    # a scalar epsilon is one level
    scalar = correction_inner_slopes(lenz18_well, 1.0, tol)
    assert scalar.shape == ()
    assert scalar == correction_inner_slopes(lenz18_well, np.array([1.0]), tol)[0]


def test_knot_table_frees_with_its_well(settings) -> None:
    # the knot table in a well's memo holds no reference back to the well, so
    # dropping the well frees the table's arrays at once: through a cycle they
    # would wait for the cyclic collector (~11 MB more peak RSS in a
    # predict_batch run)
    w = to_log_well(_lenz_resampling(1.0, 8.0), settings)
    action(w, 1.0, settings)
    assert "knot_table" in w._memo
    well = weakref.ref(w)
    gc.disable()
    try:
        del w
        assert well() is None
    finally:
        gc.enable()
