import json
import math

import numpy as np
import pytest

from trenq import (
    DegenerateWellError,
    InputError,
    Lenz,
    PotentialConditionError,
    QuantumNumbers,
    Settings,
    Tabulated,
    Tietz,
    check_conditions,
    lambda_of,
    load_potential,
    scale_log_well,
    to_log_well,
)


def make_tabulated(profile, q0: float, qinf: float, rho_span=(-8.0, 8.0), n=400) -> Tabulated:
    """Build a tabulated potential whose transformed well equals `profile`."""
    rho = np.linspace(*rho_span, n)
    r = np.exp(rho)
    w = profile(rho)
    u = -0.5 * w * np.exp(-2.0 * rho)
    return Tabulated(r_grid=r, U_values=u, q0=q0, qinf=qinf)


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
    # oracle: the literal map W(rho) = -2 e^(2 rho) U(e^rho)
    p = Lenz(a=1.0, Z=8.0)
    rho = np.linspace(-6.0, 6.0, 101)
    literal = -2.0 * np.exp(2.0 * rho) * p(np.exp(rho))
    direct = lenz18_well.profile(rho)
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
    cut = settings.domain_cut * w.V_m
    assert float(w.profile(w.rho_left)) == pytest.approx(cut, rel=1e-6)
    assert float(w.profile(w.rho_right)) == pytest.approx(cut, rel=1e-6)
    assert w.scaling is not None and w.scaling.Z == 8.0
    rho = np.linspace(w.rho_left, w.rho_right, 257)
    mismatch = np.abs(w.profile(rho) - w.scaling.Z * w.scaling.base(rho))
    assert np.max(mismatch) <= settings.quad_tol * w.V_m


def test_check_conditions_lenz() -> None:
    assert check_conditions(Lenz(a=1.0, Z=1.0)).passed
    report = check_conditions(Lenz(a=0.0, Z=1.0))
    assert not report.passed
    assert not report.origin_ok and not report.infinity_ok


def test_check_conditions_tabulated_exponents() -> None:
    p = make_tabulated(lambda rho: 1.0 / np.cosh(rho) ** 2, q0=0.0, qinf=2.0)
    report = check_conditions(p)
    assert report.origin_ok
    assert not report.infinity_ok
    assert any("infinity" in m for m in report.messages)


def test_to_log_well_rejects_condition_violation(settings) -> None:
    with pytest.raises(PotentialConditionError):
        to_log_well(Lenz(a=0.0, Z=1.0), settings)


def test_printed_transform_variant(settings) -> None:
    # the alternative exponent shifts the maximum off center and skews decay
    w = to_log_well(Lenz(a=1.0, Z=8.0), settings, transform_exponent=1)
    rho = np.linspace(-4.0, 4.0, 41)
    expected = 4.0 * np.exp(-rho) / np.cosh(rho) ** 2
    assert np.max(np.abs(w.profile(rho) - expected)) <= 1e-12 * np.max(expected)
    # locating a flat maximum in x is sqrt(eps)-limited; the value is not
    assert w.rho_star == pytest.approx(math.atanh(-0.5), abs=1e-6)
    assert w.V_m == pytest.approx(8.0 * math.exp(-math.atanh(-0.5)) * 0.75 / 2.0, rel=1e-12)
    # Tietz decays too slowly on the left for this variant
    with pytest.raises(PotentialConditionError):
        to_log_well(Tietz(1.0), settings, transform_exponent=1)


def test_degenerate_well_rejected(settings) -> None:
    p = make_tabulated(lambda rho: 1e-20 / np.cosh(rho) ** 2, q0=0.0, qinf=4.0)
    with pytest.raises(DegenerateWellError):
        to_log_well(p, settings)


def test_scale_log_well(settings, lenz18_well) -> None:
    w2 = scale_log_well(lenz18_well, 2.0)
    assert w2.V_m == pytest.approx(1.0, rel=1e-12)
    assert float(w2.profile(0.7)) == pytest.approx(0.25 * float(lenz18_well.profile(0.7)))
    assert w2.scaling.Z == 2.0
    with pytest.raises(InputError):
        scale_log_well(w2, -1.0)


def test_tabulated_interpolation_accuracy(settings) -> None:
    # accuracy is limited by the data sampling near the peak, O(h^2)
    p = make_tabulated(lambda rho: 3.0 / np.cosh(rho) ** 2, q0=0.0, qinf=4.0, n=1200)
    w = to_log_well(p, settings)
    rho = np.linspace(-7.0, 7.0, 311)
    exact = 3.0 / np.cosh(rho) ** 2
    assert np.max(np.abs(w.profile(rho) - exact) / exact) <= 1e-4
    # power-law continuation outside the data keeps decaying
    assert float(w.profile(-12.0)) < float(w.profile(-8.0)) < float(w.profile(-7.9))


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


def test_settings_validation() -> None:
    with pytest.raises(InputError):
        Settings(hbar=0.0)
    with pytest.raises(InputError):
        Settings(domain_cut=1.5)
    with pytest.raises(InputError):
        Settings(quad_tol=-1e-10)
    for name in ("hbar", "quad_tol", "ode_tol", "domain_cut"):
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                Settings(**{name: bad})
