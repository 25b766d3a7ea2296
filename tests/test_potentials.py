import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import trenq.potentials as potentials
from trenq import (
    DegenerateWellError,
    InputError,
    Lenz,
    PotentialConditionError,
    QuantumNumbers,
    Settings,
    Tabulated,
    Tietz,
    action,
    count_bound_states,
    lambda_of,
    load_potential,
    to_log_well,
    turning_points,
)
from trenq.action import _turning_pairs
from trenq.cli import main
from trenq.numerics import Pchip


def make_tabulated(profile, q0: float, qinf: float, rho_span=(-8.0, 8.0), n=400) -> Tabulated:
    """Build a tabulated potential whose transformed well equals `profile`."""
    rho = np.linspace(*rho_span, n)
    r = np.exp(rho)
    w = profile(rho)
    u = -0.5 * w * np.exp(-2.0 * rho)
    return Tabulated(r_grid=r, U_values=u, q0=q0, qinf=qinf)


def lenz_tabulated(rho_span: tuple[float, float]) -> Tabulated:
    """400 log-spaced samples of Lenz(1, 8)."""
    return make_tabulated(lambda rho: 4.0 / np.cosh(rho) ** 2, q0=0.0, qinf=4.0, rho_span=rho_span)


def cut_residual(w) -> float:
    """Worst relative miss of W(cut) = DOMAIN_CUT * V_m over both cuts."""
    target = potentials.DOMAIN_CUT * w.V_m
    return max(abs(float(w.profile(x)) / target - 1.0) for x in (w.rho_left, w.rho_right))


# (potential, transform exponent); the exponent-1 Lenz(0.6, 1) has its left
# cut near -164, the tabulated Lenz sampled on [-17, 17] both cuts in its end
# cells and the one sampled on [-8, 8] both in its power-law continuation
GEOMETRY_CASES = [
    (Lenz(1.0, 8.0), 2),
    (Lenz(0.5, 1e4), 2),
    (Lenz(2.0, 30.0), 2),
    (Lenz(0.6, 1.0), 1),
    (Lenz(1.0, 8.0), 1),
    (lenz_tabulated((-17.0, 17.0)), 2),
    (lenz_tabulated((-8.0, 8.0)), 2),
    (lenz_tabulated((-17.0, 17.0)), 1),
]


def test_lambda_of_values() -> None:
    assert lambda_of(0, 3) == 0.5
    assert lambda_of(0, 2) == 0.0
    assert lambda_of(2, 3) == 2.5
    assert lambda_of(1, 5) == 2.5


def test_lambda_of_rejects_bad_dimension() -> None:
    with pytest.raises(InputError):
        lambda_of(0, 1)
    with pytest.raises(InputError):
        lambda_of(-1, 3)


def test_quantum_numbers_derived_fields() -> None:
    q = QuantumNumbers(n=2, l=1, d=3)
    assert q.nu == 2.5
    assert q.lam == 1.5
    with pytest.raises(InputError):
        QuantumNumbers(n=-1, l=0)
    for n, l, d in ((1.5, 0, 3), (math.nan, 0, 3), (0, 1.5, 3), (0, 0, 3.0)):
        with pytest.raises(InputError):
            QuantumNumbers(n=n, l=l, d=d)
    assert QuantumNumbers(n=np.int64(2), l=np.int32(1), d=np.int8(3)).nu == 2.5


def test_lenz_potential_values() -> None:
    p = Lenz(a=1.0, Z=8.0)
    assert p(1.0) == pytest.approx(-2.0)  # -Z/4 at r = 1
    with pytest.raises(InputError):
        Lenz(a=1.0, Z=0.0)
    for a, Z in ((1.0, math.nan), (1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(InputError):
            Lenz(a=a, Z=Z)


def test_tietz_is_lenz_half() -> None:
    t = Tietz(Z=3.0)
    assert isinstance(t, Lenz)
    assert t.a == 0.5
    # Tietz closed form -Z/(r (1+r)^2)
    for r in (0.3, 1.0, 4.5):
        assert t(r) == pytest.approx(-3.0 / (r * (1.0 + r) ** 2), rel=1e-14)


def test_log_well_point_values(settings) -> None:
    w6 = to_log_well(Lenz(a=1.0, Z=6.0), settings)
    assert float(w6.profile(0.0)) == pytest.approx(3.0, abs=1e-14)
    wt = to_log_well(Tietz(1.0), settings)
    assert float(wt.profile(0.0)) == pytest.approx(0.5, abs=1e-14)


def test_log_well_matches_literal_transform(settings, lenz18_well) -> None:
    # oracle: the literal map W(rho) = -2 e^(2 rho) U(e^rho), with U the
    # potential's own; the tabulated Lenz sampled on [-5, 5] is continued by
    # its power laws beyond
    rho = np.linspace(-6.0, 6.0, 101)
    for p in (Lenz(a=1.0, Z=8.0), lenz_tabulated((-5.0, 5.0))):
        literal = -2.0 * np.exp(2.0 * rho) * p(np.exp(rho))
        direct = to_log_well(p, settings).profile(rho)
        assert np.max(np.abs(direct - literal)) <= 1e-12 * np.max(np.abs(direct))
    # frozen spot value from the same oracle
    assert float(lenz18_well.profile(1.0)) == pytest.approx(1.6798973664561048, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("Z", [1.0, 8.0, 50.0])
def test_lenz_well_sech_closure(a: float, Z: float, settings) -> None:
    w = to_log_well(Lenz(a=a, Z=Z), settings)
    rho = np.linspace(-10.0 / a, 10.0 / a, 100)
    closed = 0.5 * Z / np.cosh(a * rho) ** 2
    assert np.max(np.abs(w.profile(rho) - closed)) <= 1e-12 * Z


def test_tietz_bitwise_equal_to_lenz_half(settings) -> None:
    wt = to_log_well(Tietz(7.0), settings)
    wl = to_log_well(Lenz(a=0.5, Z=7.0), settings)
    rho = np.linspace(-20.0, 20.0, 513)
    assert np.array_equal(wt.profile(rho), wl.profile(rho))
    assert wt.V_m == wl.V_m and wt.rho_star == wl.rho_star


def test_well_max_lenz(settings, lenz18_well) -> None:
    vm, rs = lenz18_well.V_m, lenz18_well.rho_star
    assert vm == pytest.approx(4.0, rel=1e-12)
    assert rs == pytest.approx(0.0, abs=1e-9)
    w = to_log_well(Lenz(a=0.5, Z=1.0), settings)
    assert (w.V_m, w.rho_star) == (pytest.approx(0.5, rel=1e-12), pytest.approx(0.0, abs=1e-9))


def test_well_max_shifted_tabulated_bump(settings) -> None:
    shift = 0.7
    p = make_tabulated(lambda rho: 2.0 / np.cosh(rho - shift) ** 2, q0=0.0, qinf=4.0)
    w = to_log_well(p, settings)
    # independent oracle: dense grid scan of the stored profile
    grid = np.linspace(w.rho_left, w.rho_right, 200001)
    vals = np.asarray(w.profile(grid))
    k = int(np.argmax(vals))
    vm, rs = w.V_m, w.rho_star
    assert vm >= vals[k]
    assert abs(vm - vals[k]) <= 1e-7 * vm
    assert abs(rs - grid[k]) <= 1e-4
    # data sampling limits how well the interpolated bump tracks the true one
    assert rs == pytest.approx(shift, abs=5e-3)


def test_log_well_truncation_and_scaling(settings, lenz18_well) -> None:
    w = lenz18_well
    cut = potentials.DOMAIN_CUT * w.V_m
    assert float(w.profile(w.rho_left)) == pytest.approx(cut, rel=1e-6)
    assert float(w.profile(w.rho_right)) == pytest.approx(cut, rel=1e-6)
    for p, exponent in GEOMETRY_CASES:
        wp = to_log_well(p, settings, transform_exponent=exponent)
        assert cut_residual(wp) <= 1e-12
        assert wp.rho_left < wp.rho_star < wp.rho_right
    # W = Z * base with the coupling-free base (1/2) sech^2(rho)
    assert w.Z == 8.0
    rho = np.linspace(w.rho_left, w.rho_right, 257)
    mismatch = np.abs(w.base(rho) - 0.5 / np.cosh(rho) ** 2)
    assert np.max(mismatch) <= settings.quad_tol


def test_to_log_well_profile_call_count(settings, monkeypatch) -> None:
    # work-count guard: the standard Lenz and Tietz (a = 0.5) wells evaluate
    # their base once, at the closed-form peak, and the printed Lenz well three
    # times (at its peak and its two cuts); a tabulated well evaluates its
    # interpolant once on the samples and a few times in the Brent solve of a
    # cut in a knot cell, and its printed well twice in building the well of
    # U/r (1-4 calls on the wells here)
    calls = [0]
    parts = potentials._lenz_well_parts

    def counting_parts(p):
        base, base_curv = parts(p)

        def counted(rho):
            calls[0] += 1
            return base(rho)

        return counted, base_curv

    pchip_call = Pchip.__call__

    def counting_pchip(self, r):
        calls[0] += 1
        return pchip_call(self, r)

    monkeypatch.setattr(potentials, "_lenz_well_parts", counting_parts)
    monkeypatch.setattr(Pchip, "__call__", counting_pchip)
    for p, exponent in GEOMETRY_CASES:
        calls[0] = 0
        to_log_well(p, settings, transform_exponent=exponent)
        bound = (1 if exponent == 2 else 3) if isinstance(p, Lenz) else 6
        assert 0 < calls[0] <= bound, (p, exponent, calls[0])


@pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 2.0, 1e3])
@pytest.mark.parametrize("Z", [1e-12, 1.0, 8.0, 1e6, 1e300])
def test_closed_form_lenz_geometry_matches_scan(a: float, Z: float, settings) -> None:
    # a = 0.5 is the Tietz family; the scan is a dense grid of the well
    # itself, which never rises above the closed-form peak
    w = to_log_well(Lenz(a, Z), settings)
    assert (w.V_m, w.rho_star, w.split_level) == (0.5 * Z, 0.0, None)
    assert cut_residual(w) <= 1e-12
    assert np.max(w.profile(np.linspace(w.rho_left, w.rho_right, 20001))) <= w.V_m


def test_closed_form_lenz_raises_on_stated_inputs(settings) -> None:
    # DegenerateWellError exactly where V_m = Z/2 is at or below DOMAIN_CUT,
    # and PotentialConditionError exactly where a decay rate 2 -+ 2a is <= 0
    # (a <= 1e-16 rounds 2 - 2a to 2); the decay rule is checked first
    edge = 2.0 * potentials.DOMAIN_CUT
    couplings = [1e-300, 1e-15, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 1e-13]
    widths = [1e-17, 5e-17, 1e-16, 1e-10, 1e-3, 1.0, 1e3, -1.0, 0.0]
    raised = set()
    for a in widths:
        for Z in couplings:
            p = Lenz(a, float(Z))
            if min(2.0 - p.q_origin, p.q_infinity - 2.0) <= 0.0:
                expected = PotentialConditionError
            elif 0.5 * Z <= potentials.DOMAIN_CUT:
                expected = DegenerateWellError
            else:
                w = to_log_well(p, settings)
                assert w.rho_left < w.rho_star < w.rho_right
                continue
            with pytest.raises(expected):
                to_log_well(p, settings)
            raised.add(expected)
    assert raised == {DegenerateWellError, PotentialConditionError}


@pytest.mark.parametrize("a", [1.2e-16, 1e-13, 1e-11])
def test_closed_form_lenz_geometry_at_tiny_width(a: float, settings) -> None:
    # on the flat top sech^2(a rho) = 1 of width ~1e-8 / a a search for the
    # peak would drift away from rho_star = 0; the closed form stays there
    w = to_log_well(Lenz(a, 3.0), settings)
    assert (w.V_m, w.rho_star) == (1.5, 0.0)
    assert w.rho_right == -w.rho_left == pytest.approx(math.acosh(1e7) / a, rel=1e-15)
    assert cut_residual(w) <= 1e-12


def two_hump_tabulated() -> Tabulated:
    """Two separated sech^2 humps of height 2, each holding one state at lambda = 1/2.

    The well dips below the domain cut between them.
    """
    return make_tabulated(
        lambda rho: 2.0 / np.cosh(rho - 20.0) ** 2 + 2.0 / np.cosh(rho + 20.0) ** 2,
        q0=0.0,
        qinf=4.0,
        rho_span=(-30.0, 30.0),
        n=800,
    )


def test_two_hump_well_keeps_both_humps(settings) -> None:
    w = to_log_well(two_hump_tabulated(), settings)
    assert float(w.profile(0.0)) < potentials.DOMAIN_CUT * w.V_m
    assert w.rho_left < -20.0 and w.rho_right > 20.0
    assert cut_residual(w) <= 1e-12
    assert count_bound_states(w, 0.5, settings).count == 2


def test_two_hump_well_rejects_split_action(settings, tmp_path, capsys) -> None:
    # one turning pair around the maximum would see only one hump at lambda = 1/2
    # (I = 0.914 instead of ~1.83), so the action fails fast there
    p = two_hump_tabulated()
    w = to_log_well(p, settings)
    assert w.split_level == pytest.approx(2.0, rel=1e-3)
    assert action(w, 0.0, settings) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)
    with pytest.raises(PotentialConditionError):
        turning_points(w, 0.25)
    with pytest.raises(PotentialConditionError):
        action(w, 0.5, settings)
    for single, exponent in GEOMETRY_CASES:
        assert to_log_well(single, settings, transform_exponent=exponent).split_level is None

    spec = {"family": "tabulated", "r": p.r_grid.tolist(), "U": p.U_values.tolist(),
            "q0": p.q0, "qinf": p.qinf}
    path = tmp_path / "two_hump.json"
    path.write_text(json.dumps(spec))
    assert main(["threshold", "--potential", str(path)]) == 1
    assert "second hump" in capsys.readouterr().err


def test_unequal_two_hump_well_above_split_level(settings) -> None:
    # outer humps of height 1 (left) and 1/2 (right) beside the main one of
    # height 4: above the higher outer hump the allowed region is the one
    # interval around rho_star, and the turning pairs must bound it
    p = make_tabulated(
        lambda rho: 4.0 / np.cosh(rho) ** 2
        + 1.0 / np.cosh(rho + 12.0) ** 2
        + 0.5 / np.cosh(rho - 10.0) ** 2,
        q0=0.0,
        qinf=4.0,
        rho_span=(-35.0, 35.0),
        n=1400,
    )
    w = to_log_well(p, settings)
    assert w.split_level == pytest.approx(1.0, rel=1e-3)
    levels = np.array([1.05, 1.5, 2.0, 3.0, 3.9])
    for pair, level in zip(_turning_pairs(w, levels), levels.tolist()):
        ref = turning_points(w, level)
        assert (pair.rho1, pair.rho2) == (ref.rho1, ref.rho2)
        half_width = math.acosh(2.0 / math.sqrt(level))
        assert ref.rho1 == pytest.approx(-half_width, abs=1e-4)
        assert ref.rho2 == pytest.approx(half_width, abs=1e-4)
    # the action of the main hump alone, (sqrt(Z/2) - lambda)/a with Z = 8, a = 1
    assert action(w, 1.2, settings) == pytest.approx(0.8, abs=1e-5)


def test_to_log_well_rejects_condition_violation(settings) -> None:
    # Lenz with a = 0 has q0 = qinf = 2: r^2 U tends to a constant at both ends
    with pytest.raises(PotentialConditionError) as info:
        to_log_well(Lenz(a=0.0, Z=1.0), settings)
    assert "r -> 0" in str(info.value) and "r -> infinity" in str(info.value)
    # qinf = 2 fails only at infinity, under either transform
    p = make_tabulated(lambda rho: 1.0 / np.cosh(rho) ** 2, q0=0.0, qinf=2.0)
    for exponent in (1, 2):
        with pytest.raises(PotentialConditionError) as info:
            to_log_well(p, settings, transform_exponent=exponent)
        assert "r -> infinity" in str(info.value) and "r -> 0" not in str(info.value)


def test_to_log_well_decay_rule(settings) -> None:
    # the one rule: W = -2 r^e U decays at rate e - q0 as r -> 0 and qinf - e
    # as r -> infinity, and both rates must be positive for e = 2 (r^2 U -> 0)
    # and for the chosen exponent; qinf in (1, 2] passes exponent 1 on its own
    rho = np.linspace(-8.0, 8.0, 60)
    u = -0.5 / np.cosh(rho) ** 2 * np.exp(-2.0 * rho)
    for q0 in (-0.5, 0.5, 0.9, 1.0, 1.5, 2.0, 2.5):
        for qinf in (0.5, 1.0, 1.5, 2.0, 2.5, 4.0):
            p = Tabulated(r_grid=np.exp(rho), U_values=u, q0=q0, qinf=qinf)
            for exponent in (1, 2):
                fails = any(e - q0 <= 0.0 or qinf - e <= 0.0 for e in {2, exponent})
                try:
                    w = to_log_well(p, settings, transform_exponent=exponent)
                except PotentialConditionError:
                    assert fails, (q0, qinf, exponent)
                else:
                    assert not fails, (q0, qinf, exponent)
                    assert (w.decay_left, w.decay_right) == (exponent - q0, qinf - exponent)


def test_printed_transform_variant(settings) -> None:
    # the alternative exponent shifts the maximum off center and skews decay
    w = to_log_well(Lenz(a=1.0, Z=8.0), settings, transform_exponent=1)
    rho = np.linspace(-4.0, 4.0, 41)
    expected = 4.0 * np.exp(-rho) / np.cosh(rho) ** 2
    assert np.max(np.abs(w.profile(rho) - expected)) <= 1e-12 * np.max(expected)
    # the peak, where 2a tanh(a rho) = -1, in closed form
    assert w.rho_star == math.atanh(-0.5)
    assert w.V_m == pytest.approx(8.0 * math.exp(-math.atanh(-0.5)) * 0.75 / 2.0, rel=1e-15)
    assert cut_residual(w) <= 1e-12
    # slow left decay (rate 2a - 1 = 0.2) puts the cut near -164
    w = to_log_well(Lenz(a=0.6, Z=1.0), settings, transform_exponent=1)
    assert w.rho_left < -25.0 / 0.6 - 100.0
    assert cut_residual(w) <= 1e-12
    # rate 0.06 puts the cut at -541.6, where e^(-rho) is still finite
    w = to_log_well(Lenz(0.53, 1.0), settings, transform_exponent=1)
    assert -709.0 < w.rho_left < -500.0
    assert cut_residual(w) <= 1e-12
    # Tietz decays too slowly on the left for this variant, and left rate
    # 2a - 1 = 0.02 puts the Lenz cut where e^(-rho) overflows
    for p in (Tietz(1.0), Lenz(0.51, 1.0)):
        with pytest.raises(PotentialConditionError):
            to_log_well(p, settings, transform_exponent=1)
    # a tabulated well with left rate 1 - q0 = 0.01 is the standard well of
    # U/r with q0 = 1.99, its cut far out in the power-law continuation
    slow = make_tabulated(lambda rho: 1.0 / np.cosh(rho) ** 2, q0=0.99, qinf=4.0)
    w = to_log_well(slow, settings, transform_exponent=1)
    assert -2600.0 < w.rho_left < -2500.0
    assert cut_residual(w) <= 1e-12
    # q0 an ulp below 1: q0 + 1 rounds to 2, so the continuation of U/r would
    # be flat; with the left end sample above the cut (span -8) the closed-form
    # cut divided by zero, and below it (span -40) the well was silently flat
    q0 = math.nextafter(1.0, 0.0)
    for span in ((-8.0, 8.0), (-40.0, 8.0)):
        flat = make_tabulated(lambda rho: 1.0 / np.cosh(rho) ** 2, q0=q0, qinf=4.0, rho_span=span)
        with pytest.raises(PotentialConditionError, match="rounds to 2"):
            to_log_well(flat, settings, transform_exponent=1)
    # samples down to r = e^-368, where W and U are finite floats but U/r is not
    rho = np.linspace(-368.0, 5.0, 400)
    r = np.exp(rho)
    deep = Tabulated(r, -2.0 * np.exp(-1.05 * np.abs(rho)) / r / r, q0=0.95, qinf=3.05)
    assert to_log_well(deep, settings).V_m > 0.0
    with pytest.raises(PotentialConditionError, match="out of float range"):
        to_log_well(deep, settings, transform_exponent=1)


def test_printed_variant_is_standard_well_times_exp(settings) -> None:
    # the Lenz exponent-1 well is its standard well times e^(-rho); Z = 8
    # scales exactly, so the profiles agree bit for bit
    rho = np.linspace(-30.0, 30.0, 241)
    w1 = to_log_well(Lenz(1.0, 8.0), settings, transform_exponent=1)
    w2 = to_log_well(Lenz(1.0, 8.0), settings)
    assert w1.profile(rho).tobytes() == (w2.profile(rho) * np.exp(-rho)).tobytes()
    # a tabulated one is, bit for bit, the standard well of U/r, whose decay
    # exponents are one higher, and equals W e^(-rho) at the samples
    p = lenz_tabulated((-17.0, 17.0))
    w1 = to_log_well(p, settings, transform_exponent=1)
    w_r = to_log_well(Tabulated(p.r_grid, p.U_values / p.r_grid, p.q0 + 1.0, p.qinf + 1.0), settings)
    assert w1.profile(rho).tobytes() == w_r.profile(rho).tobytes()
    assert w1.base_curv(rho).tobytes() == w_r.base_curv(rho).tobytes()
    geometry = ("V_m", "rho_star", "rho_left", "rho_right", "split_level")
    assert [getattr(w1, k) for k in geometry] == [getattr(w_r, k) for k in geometry]
    assert (w1.decay_left, w1.decay_right) == (1.0 - p.q0, p.qinf - 1.0)
    x = np.log(p.r_grid)
    w2 = to_log_well(p, settings)
    assert np.max(np.abs(w1.profile(x) / (w2.profile(x) * np.exp(-x)) - 1.0)) <= 1e-14
    # the printed Lenz well's W'' against its closed form,
    # (Z/2) e^(-rho) sech^2 (2 a^2 (3 tanh^2 - 1) + 4 a tanh + 1)
    a, Z = 0.8, 3.0
    w1 = to_log_well(Lenz(a, Z), settings, transform_exponent=1)
    rho = np.linspace(-10.0, 10.0, 201)
    t = np.tanh(a * rho)
    expected = (
        0.5 * Z * np.exp(-rho) / np.cosh(a * rho) ** 2
        * (2.0 * a * a * (3.0 * t * t - 1.0) + 4.0 * a * t + 1.0)
    )
    assert np.max(np.abs(w1.Z * w1.base_curv(rho) - expected)) <= 1e-13 * np.max(np.abs(expected))


CURVATURE_CASES = [
    (Lenz(1.0, 8.0), 2),
    (Lenz(2.0, 3.0), 2),
    (Tietz(5.0), 2),
    (Lenz(0.8, 3.0), 1),
    (lenz_tabulated((-17.0, 17.0)), 2),
    (lenz_tabulated((-17.0, 17.0)), 1),
]


@pytest.mark.parametrize(
    "p,exponent",
    CURVATURE_CASES,
    ids=["lenz1", "lenz2", "tietz", "printed-lenz", "tabulated", "printed-tabulated"],
)
def test_well_curvature_matches_second_difference(p, exponent, settings) -> None:
    # every family states W'' = Z base_curv exactly; a central second
    # difference of W agrees to its own error, truncation h^2 W''''/12 plus
    # rounding ~eps W / h^2.  A tabulated well is checked at its piece
    # midpoints, where W is one cubic piece on either side, and beyond its
    # data, in the power-law continuations
    w = to_log_well(p, settings, transform_exponent=exponent)
    if isinstance(p, Lenz):
        rho, h, bound = np.linspace(w.rho_left, w.rho_right, 2001), 1e-4, 5e-7
    else:
        x = w.breakpoints
        beyond = np.linspace(1.0, 5.0, 9)
        rho = np.concatenate((x[0] - beyond, 0.5 * (x[1:] + x[:-1]), x[-1] + beyond))
        h, bound = 1e-5, 1e-5
    exact = w.Z * w.base_curv(rho)
    second = (w.profile(rho + h) - 2.0 * w.profile(rho) + w.profile(rho - h)) / (h * h)
    assert np.max(np.abs(second - exact)) <= bound * np.max(np.abs(exact))


@hypothesis_settings(max_examples=10, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    log_height=st.floats(-1.0, 3.0),
    centre=st.floats(-3.0, 3.0),
    n=st.integers(20, 800),
    span=st.floats(0.5, 1.3),
)
def test_single_hump_well_never_splits(a, log_height, centre, n, span) -> None:
    # a sampled sech^2 well keeps one hump: PCHIP puts its extrema at the
    # samples, so split_level stays None and the action exists at every level
    s = Settings()
    half = span * math.acosh(1e7) / a  # the range down to 1e-14 of the peak, times span
    p = make_tabulated(
        lambda rho: 10.0**log_height / np.cosh(a * (rho - centre)) ** 2,
        q0=2.0 - 2.0 * a,
        qinf=2.0 + 2.0 * a,
        rho_span=(centre - half, centre + half),
        n=n,
    )
    w = to_log_well(p, s)
    assert w.split_level is None
    for f in (0.01, 0.3, 0.9, 0.999):
        assert math.isfinite(action(w, math.sqrt(f * w.V_m), s))


@hypothesis_settings(max_examples=40, deadline=None)
@given(
    humps=st.lists(
        st.tuples(st.floats(-2.0, 4.0), st.floats(0.3, 3.0), st.floats(-15.0, 15.0)),
        min_size=1,
        max_size=3,
    ),
    top=st.floats(0.3, 1.0),
    n=st.integers(5, 300),
    span=st.tuples(st.floats(-30.0, -1.0), st.floats(1.0, 30.0)),
    q0=st.floats(-1.0, 1.9),
    qinf=st.floats(2.1, 6.0),
    exponent=st.sampled_from([1, 2]),
)
# two narrow humps with a dip below the cut between them, and a flat top
@example(
    humps=[(0.0, 3.0, -10.0), (-1.0, 3.0, 10.0)], top=1.0, n=200, span=(-20.0, 20.0),
    q0=0.0, qinf=4.0, exponent=2,
)
@example(humps=[(1.0, 1.0, 0.0)], top=0.5, n=41, span=(-8.0, 8.0), q0=0.5, qinf=3.0, exponent=1)
def test_sampled_well_geometry(humps, top, n, span, q0, qinf, exponent) -> None:
    # a well of one to three sech^2 humps (log10 height, width, centre)
    # sampled on n points, scaled so that its top sample is the first hump's
    # height and cut flat at `top` of it (top = 1 keeps the peak), under
    # either transform (the printed one needs q0 < 1): no point of it rises
    # above V_m, and it meets DOMAIN_CUT * V_m at both cuts
    s = Settings()
    rho = np.linspace(*span, n)
    w = sum(10.0**h / np.cosh(a * (rho - c)) ** 2 for h, a, c in humps)
    w = np.minimum(w / w.max(), top) * 10.0 ** humps[0][0]
    if exponent == 1:
        q0 = min(q0, 0.9)
    p = Tabulated(np.exp(rho), -0.5 * w * np.exp(-exponent * rho), q0, qinf)
    well = to_log_well(p, s, transform_exponent=exponent)
    assert well.rho_left < well.rho_star < well.rho_right
    grid = np.concatenate((np.linspace(well.rho_left, well.rho_right, 20001), rho))
    # the slack is for rounding of the cubic in ln W (1.8e-15 at worst in 3000 draws)
    assert np.max(well.profile(grid)) <= well.V_m * (1.0 + 1e-14)
    assert cut_residual(well) <= 1e-12
    # the cuts are the outermost crossings: no sample beyond them is above the cut
    beyond = rho[(rho < well.rho_left) | (rho > well.rho_right)]
    assert np.all(well.profile(beyond) <= potentials.DOMAIN_CUT * well.V_m * (1.0 + 1e-12))


def test_degenerate_well_rejected(settings) -> None:
    p = make_tabulated(lambda rho: 1e-20 / np.cosh(rho) ** 2, q0=0.0, qinf=4.0)
    with pytest.raises(DegenerateWellError):
        to_log_well(p, settings)


def test_tabulated_interpolation_accuracy(settings) -> None:
    # accuracy is limited by the data sampling near the peak, O(h^2)
    p = make_tabulated(lambda rho: 3.0 / np.cosh(rho) ** 2, q0=0.0, qinf=4.0, n=1200)
    w = to_log_well(p, settings)
    rho = np.linspace(-7.0, 7.0, 311)
    exact = 3.0 / np.cosh(rho) ** 2
    assert np.max(np.abs(w.profile(rho) - exact) / exact) <= 1e-4
    # power-law continuation outside the data keeps decaying
    assert float(w.profile(-12.0)) < float(w.profile(-8.0)) < float(w.profile(-7.9))


def _masked_well_value(p: Tabulated, rho):
    """Reference for Tabulated.well_value: masks for the data and each side of
    it, where ln W continues as the line ln W_end + (2 - q)(rho - end)."""
    rho_arr = np.asarray(rho, dtype=float)
    lo, hi = p._log_w.x[0], p._log_w.x[-1]
    out = np.full_like(rho_arr, np.nan)  # nan lies in none of the masks
    inside = (rho_arr >= lo) & (rho_arr <= hi)
    out[inside] = np.exp(p._log_w(rho_arr[inside]))
    left = rho_arr < lo
    right = rho_arr > hi
    out[left] = np.exp(p._log_w(lo) + (2.0 - p.q0) * (rho_arr[left] - lo))
    out[right] = np.exp(p._log_w(hi) + (2.0 - p.qinf) * (rho_arr[right] - hi))
    return out if isinstance(rho, np.ndarray) else float(out)


def test_tabulated_well_value_matches_masked_formula() -> None:
    # scalars, 0-d and n-d arrays, inside the data, straddling both ends or
    # holding nan, which gives nan
    p = make_tabulated(lambda rho: 3.0 / np.cosh(rho) ** 2, q0=0.5, qinf=3.0)
    rng = np.random.default_rng(5)
    inputs = [
        0.3, -8.0, 8.0, -9.5, 11.0, np.float64(-2.0),
        np.array(0.7), np.array(-8.5), np.array(8.0),
        rng.uniform(-7.9, 7.9, 33), rng.uniform(-10.0, 10.0, 33), np.array([-8.0, 8.0]),
        rng.uniform(-7.9, 7.9, (4, 9)), rng.uniform(-10.0, 10.0, (4, 9)), np.array([]),
        math.nan, np.array([np.nan, 0.0, 20.0, np.nan]),
    ]
    for rho in inputs:
        got, ref = p.well_value(rho), _masked_well_value(p, rho)
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        hexes = [[v.hex() for v in np.ravel(x).tolist()] for x in (got, ref)]
        assert hexes[0] == hexes[1]


def test_tabulated_tails_match_power_law_product() -> None:
    # over 40 units beyond the data, exp of the line ln W stays within 1e-14
    # relative of the product form W_end exp((2 - q)(rho - end)); the two
    # differ by the rounding of exp's argument
    p = make_tabulated(lambda rho: 3.0 / np.cosh(rho) ** 2, q0=0.5, qinf=3.0)
    lo, hi = p._log_w.x[0], p._log_w.x[-1]
    for end, q, side in ((lo, p.q0, -1.0), (hi, p.qinf, 1.0)):
        rho = end + side * np.linspace(0.0, 40.0, 4001)[1:]
        product = math.exp(p._log_w(end)) * np.exp((2.0 - q) * (rho - end))
        assert np.max(np.abs(p.well_value(rho) / product - 1.0)) <= 1e-14


def test_tabulated_potential_finite_near_origin() -> None:
    # with q0 = 0, U tends to a constant as r -> 0, though W underflows to 0
    # and e^(-2 rho) overflows there: U stays finite, on the left end piece,
    # without a warning
    r = np.exp(np.linspace(-8.0, 8.0, 40))
    p = Tabulated(r_grid=r, U_values=Lenz(1.0, 4.0)(r), q0=0.0, qinf=4.0)
    for r_small in (1e-200, 1e-300, np.array([1e-300, 1e-200, 1e-100])):
        u = p(r_small)
        assert np.shape(u) == np.shape(r_small)
        assert np.allclose(u, p.U_values[0], rtol=1e-12, atol=0.0)
    assert p.U_values[0] == pytest.approx(-4.0, rel=1e-6)


def test_load_potential_families(tmp_path) -> None:
    p = load_potential({"family": "lenz", "a": 1.0, "Z": 8.0})
    assert isinstance(p, Lenz) and p.a == 1.0 and p.Z == 8.0
    p = load_potential({"family": "tietz", "Z": 1.0})
    assert isinstance(p, Lenz) and p.a == 0.5
    spec = {
        "family": "tabulated",
        "r": [0.1, 0.5, 1.0, 2.0, 10.0],
        "U": [-1.0, -0.9, -0.5, -0.2, -0.001],
        "q0": 1.0,
        "qinf": 4.0,
    }
    p = load_potential(spec)
    assert isinstance(p, Tabulated)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(spec))
    p2 = load_potential(path)
    assert np.array_equal(p2.r_grid, p.r_grid)


def test_load_potential_inline_tabulated_text(tmp_path, capsys) -> None:
    # JSON text far longer than a file name is parsed, never looked up as a path
    r = np.exp(np.linspace(-8.0, 8.0, 40))
    u = -8.0 / (4.0 * r * r * np.cosh(np.log(r)) ** 2)
    spec = {"family": "tabulated", "r": r.tolist(), "U": u.tolist(), "q0": 0.0, "qinf": 4.0}
    text = json.dumps(spec)
    assert len(text) > 1000
    path = tmp_path / "pot.json"
    path.write_text(text)
    from_file = load_potential(path)
    for source in (text, " \n" + text):
        p = load_potential(source)
        assert np.array_equal(p.r_grid, from_file.r_grid)
        assert np.array_equal(p.U_values, from_file.U_values)
    outputs = []
    for source in (text, str(path)):
        assert main(["well", "--potential", source, "--samples", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") >= 7


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: Tabulated(r_grid=[1.0, 2.0, 3.0], U_values=[-1.0] * 3, q0=0.0, qinf=4.0), ">= 4 points"),
        (lambda: to_log_well(Lenz(1.0, 8.0), Settings(), transform_exponent=3), "transform_exponent"),
    ],
    ids=["tabulated-3-points", "transform-exponent-3"],
)
def test_construction_input_errors(build, match) -> None:
    with pytest.raises(InputError, match=match):
        build()


def test_load_potential_rejects_bad_input() -> None:
    with pytest.raises(InputError):
        load_potential({"family": "lenz", "a": 1.0, "Z": 8.0, "extra": 1})
    with pytest.raises(InputError):
        load_potential({"family": "lenz", "a": 1.0})
    with pytest.raises(InputError):
        load_potential({"family": "coulomb", "Z": 1.0})
    with pytest.raises(InputError):
        load_potential({"family": "tabulated", "r": [1.0, 2.0, 3.0, 4.0],
                        "U": [0.1, -0.2, -0.1, -0.05], "q0": 0.0, "qinf": 4.0})
    with pytest.raises(InputError):
        load_potential("not json at all {")
    r = np.exp(np.linspace(-4.0, 4.0, 9))
    for i, bad in ((2, -np.inf), (3, np.nan)):
        u = -1.0 / (4.0 * r * r * np.cosh(np.log(r)) ** 2)
        u[i] = bad
        with pytest.raises(InputError):
            Tabulated(r_grid=r, U_values=u, q0=0.0, qinf=4.0)
    with pytest.raises(InputError):
        Tabulated(r_grid=np.append(r[:-1], np.inf), U_values=-np.ones(9), q0=0.0, qinf=4.0)
    # W = -2 r^2 U overflows at r = 1e300, and underflows to 0 at r = 1e-300
    for r_bad, u_bad in (([1.0, 2.0, 3.0, 1e300], -1e-300), ([1e-300, 1.0, 2.0, 3.0], -1.0)):
        with pytest.raises(InputError, match="positive and finite"):
            Tabulated(r_grid=r_bad, U_values=[u_bad] * 4, q0=1.0, qinf=4.0)
    for q0, qinf in ((np.nan, 4.0), (0.0, np.inf), (-np.inf, 4.0), (0.0, np.nan)):
        with pytest.raises(InputError):
            Tabulated(r_grid=r, U_values=-np.ones(9), q0=q0, qinf=qinf)
    # JSON booleans and numeric strings are not numbers, also inside r and U,
    # where NumPy would turn [1, true] into [1, 1]
    tab = {"family": "tabulated", "r": [1.0, 2.0, 3.0, 4.0], "U": [-1.0] * 4, "q0": 1.0, "qinf": 4.0}
    for key, bad in (("a", True), ("Z", "8"), ("a", None), ("Z", [8.0])):
        with pytest.raises(InputError, match=f"'{key}' must be a JSON number"):
            load_potential({"family": "lenz", "a": 1.0, "Z": 8.0, key: bad})
    with pytest.raises(InputError, match="'Z' must be a JSON number"):
        load_potential('{"family": "tietz", "Z": false}')
    for key, bad in (("q0", True), ("qinf", "4"), ("r", [1.0, True, 3.0, 4.0]), ("U", [-1.0, -1.0, "-1", -1.0])):
        with pytest.raises(InputError, match=f"'{key}' must be a JSON number"):
            load_potential({**tab, key: bad})
    with pytest.raises(InputError, match="'U' must be a JSON array"):
        load_potential({**tab, "U": "-1"})
    with pytest.raises(InputError, match="beyond the double range"):
        load_potential('{"family": "tietz", "Z": 1' + "0" * 400 + "}")
    # NumPy numbers from a dict source still pass
    assert load_potential({"family": "lenz", "a": np.float32(0.5), "Z": np.int64(8)}) == Lenz(a=0.5, Z=8.0)
    loaded = load_potential({**tab, "r": np.array(tab["r"]), "q0": np.float64(1.0)})
    assert np.array_equal(loaded.r_grid, tab["r"])


def test_settings_validation() -> None:
    with pytest.raises(InputError):
        Settings(hbar=0.0)
    with pytest.raises(InputError):
        Settings(quad_tol=-1e-10)
    for name in ("hbar", "quad_tol", "ode_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                Settings(**{name: bad})
    # beyond 1e-7 the oracle's coarse grid leaves the h^4 regime, and its
    # Richardson value the ode_tol / 10 bound
    for bad in (1e4, 1e-2, 1.1e-7):
        with pytest.raises(InputError):
            Settings(ode_tol=bad)
    Settings(ode_tol=1e-7)
