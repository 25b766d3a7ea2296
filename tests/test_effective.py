import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trenq import (
    InputError,
    ordering_table,
    t_effective,
    t_ren,
    t_ren_expansion,
)


def test_t_effective_linear_values() -> None:
    assert t_effective(0.5, 0.5, 1.0) == 1.0
    assert t_effective(1.5, 1.5, 1.75) == 4.125
    assert t_effective(2.5, 0.0, 1.75) == 2.5


def test_t_effective_profile_source(lenz18_profile) -> None:
    # the sampled deficit of the a = 1 well is lambda itself
    assert t_effective(0.5, 0.8, lenz18_profile) == pytest.approx(1.3, abs=1e-8)


def test_t_effective_rejects_bad_arguments() -> None:
    with pytest.raises(InputError):
        t_effective(0.4, 0.5, 1.0)
    with pytest.raises(InputError):
        t_effective(0.5, -0.1, 1.0)
    with pytest.raises(InputError):
        t_effective(0.5, 0.5, -1.0)
    for bad in (math.nan, math.inf):
        for args in ((0.5, 1.0, bad), (bad, 1.0, 1.0), (0.5, bad, 1.0)):
            with pytest.raises(InputError):
                t_effective(*args)
        with pytest.raises(InputError):
            t_ren(bad)


def test_t_ren_values() -> None:
    assert t_ren(0.5) == 0.0
    assert t_ren(1.0) == pytest.approx(0.8660254037844386, abs=1e-15)
    assert t_ren(2.5) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    with pytest.raises(InputError):
        t_ren(0.49)


def test_t_ren_algebraic_identity() -> None:
    for T in np.logspace(math.log10(0.5), 6, 200):
        tr = t_ren(float(T))
        assert abs(tr * tr + 0.25 - T * T) <= 1e-15 * T * T
        assert tr < T


@given(st.floats(0.5, 1e12), st.floats(0.5, 1e12))
def test_t_ren_preserves_order(x: float, y: float) -> None:
    lo, hi = sorted((x, y))
    assert 0.0 <= t_ren(lo) <= t_ren(hi)


def test_t_ren_expansion_values() -> None:
    assert t_ren_expansion(2.0) == 1.9375
    assert t_ren_expansion(2.0) - t_ren(2.0) == pytest.approx(1.0083268962914893e-3, rel=1e-9)
    assert t_ren_expansion(10.0) == 9.9875
    assert t_ren(10.0) == pytest.approx(9.987492177719089, abs=1e-14)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            t_ren_expansion(bad)


def test_t_ren_expansion_bound() -> None:
    for T in np.linspace(1.0, 100.0, 1000):
        gap = t_ren_expansion(float(T)) - t_ren(float(T))
        assert 0.0 <= gap <= 1.0 / (64.0 * T**3)


def test_relative_gap_decreases_with_T() -> None:
    T = np.linspace(0.6, 50.0, 500)
    gaps = np.array([(t - t_ren(float(t))) / t for t in T])
    assert np.all(np.diff(gaps) < 0.0)


def test_ordering_invariance_random_pairs() -> None:
    rng = np.random.default_rng(421)
    for phi in (1.0, 1.75, 2.0):
        nu = rng.uniform(0.5, 10.0, size=(1000, 2))
        lam = rng.uniform(0.5, 10.0, size=(1000, 2))
        for (nu1, nu2), (l1, l2) in zip(nu, lam):
            T1 = t_effective(nu1, l1, phi)
            T2 = t_effective(nu2, l2, phi)
            s_plain = np.sign(T1 - T2)
            s_ren = np.sign(t_ren(T1) - t_ren(T2))
            assert s_plain == s_ren


def test_ordering_table_unit_slope() -> None:
    rows = ordering_table(1, 1, 3, phi=1.0)
    assert [(r.n, r.l) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [r.T for r in rows] == [1.0, 2.0, 2.0, 3.0]
    # tie (0,1)/(1,0) broken lexicographically and identical in T and T_ren
    assert rows[1].T_ren == rows[2].T_ren


def test_ordering_table_atomic_slope() -> None:
    rows = ordering_table(1, 1, 3, phi=1.75)
    order = [(r.n, r.l) for r in rows]
    # (1,0) has T = 2.375 and comes before (0,1) with T = 3.125
    assert order.index((1, 0)) < order.index((0, 1))
    by_T = sorted(rows, key=lambda r: (r.T, r.n, r.l))
    assert [(r.n, r.l) for r in by_T] == order


def test_ordering_table_validates_input() -> None:
    with pytest.raises(InputError):
        ordering_table(-1, 0, 3, 1.0)
    with pytest.raises(InputError):
        ordering_table(1, 1, 1, 1.0)
    # counts must be integers: a float or nan count is bad input, not a TypeError
    for n_max, l_max in ((1.5, 1), (1, math.nan)):
        with pytest.raises(InputError):
            ordering_table(n_max, l_max, 3, 1.0)
