import importlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import trenq
from trenq import (
    ConvergenceError,
    Lenz,
    NoSuchLevelError,
    Settings,
    Tabulated,
    action_profile,
    fit_phi,
    solve_spectrum,
    to_log_well,
)
from trenq.action import correction_inner_slopes
from trenq.corrections import delta1_integral
from trenq.numerics import (
    KnotTable,
    Pchip,
    adaptive_gauss,
    brent,
    false_position,
    false_position_elementwise,
    gauss_nodes,
    gauss_pair_rows,
    gauss_pair_sums,
    geometric_bracket,
)


def test_false_position_elementwise_matches_scalar() -> None:
    # each element takes the scalar steps: same root and the same number of
    # evaluations, for width stops, an exact zero hit at a step, roots at a
    # bracket end and brackets with f decreasing
    rng = np.random.default_rng(3)
    ends = 4.0 * np.tanh([-4.0, 4.0])
    targets = np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0], ends, rng.uniform(-3.0, 3.0, 8)])
    sign = np.where(np.arange(targets.size) < targets.size - 8, 1.0, -1.0)
    lo = np.full(targets.size, -4.0)
    hi = np.full(targets.size, 4.0)
    calls = Counter()

    def f(x, idx):
        calls.update(idx.tolist())
        return sign[idx] * (np.tanh(x) * 4.0 - targets[idx])

    idx = np.arange(targets.size)
    roots = false_position_elementwise(f, lo, hi, f(lo, idx), f(hi, idx))
    batch_calls = calls.copy()
    for i, (t, root) in enumerate(zip(targets, roots)):
        n = [0]

        def g(x: float, i: int = i, t: float = t) -> float:
            n[0] += 1
            return float(sign[i] * (np.tanh(x) * 4.0 - t))

        ref = false_position(g, -4.0, 4.0, g(-4.0), g(4.0))
        assert root.hex() == ref.hex()
        assert batch_calls[i] == n[0]
        assert root == pytest.approx(math.atanh(t / 4.0), rel=1e-14, abs=1e-15)
    assert roots[40] == 0.0 and batch_calls[40] == 3  # the first step lands on the root
    assert (roots[41], roots[42]) == (-4.0, 4.0)  # roots at the bracket ends, no steps
    assert batch_calls[41] == batch_calls[42] == 2
    assert max(batch_calls.values()) <= 18  # with the two end values; bisection takes ~55 steps
    with pytest.raises(ConvergenceError):
        false_position_elementwise(f, lo[:1], hi[:1], np.ones(1), np.ones(1))
    with pytest.raises(ConvergenceError):
        false_position(math.tanh, 1.0, 2.0, math.tanh(1.0), math.tanh(2.0))


def _one_integrand_gauss(f, a: float, b: float, tol: float, *, best_effort: bool) -> tuple:
    """Reference: the adaptive Gauss loop for a single 1-d integrand f(x).

    Same rules as adaptive_gauss (worst active panel split, freeze when a
    split does not halve its estimate, at most 200 panels), with each rule
    evaluated in its own call of f and summed as numpy sums a 1-d array.
    """

    def estimate(lo: float, hi: float) -> tuple[float, float]:
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        v64, v128 = (
            float((f(mid + half * x) * (half * wts)).sum())
            for x, wts in (np.polynomial.legendre.leggauss(n) for n in (64, 128))
        )
        return v128, abs(v128 - v64)

    v, e = estimate(a, b)
    panels = [(e, a, b, v, False)]
    while sum(p[0] for p in panels) > tol:
        active = [i for i, p in enumerate(panels) if not p[4]]
        if not active or len(panels) >= 200:
            if best_effort:
                break
            raise ConvergenceError("no convergence")
        err, lo, hi, val, _ = panels.pop(max(active, key=lambda i: panels[i][0]))
        mid = 0.5 * (lo + hi)
        (vl, el), (vr, er) = estimate(lo, mid), estimate(mid, hi)
        if el + er > 0.5 * err:
            panels.append((err, lo, hi, val, True))
        else:
            panels += [(el, lo, mid, vl, False), (er, mid, hi, vr, False)]
    panels.sort(key=lambda p: p[1])
    return math.fsum(p[3] for p in panels), sum(p[0] for p in panels)


def test_adaptive_gauss_rows_match_batch_of_one() -> None:
    # row 0 converges on its first panel, row 1 (a narrow peak) splits, and
    # row 2 carries an unresolvable ripple, so its first split freezes
    calls = []

    def f(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        calls.extend(rows.tolist())
        r = rows[:, None]
        smooth = 2.0 * np.cos(theta)
        peak = 1.0 / (1e-4 + theta * theta)
        ripple = np.cos(theta) + 1e-6 * np.cos(1e4 * theta)
        return np.where(r == 0, smooth, np.where(r == 1, peak, ripple))

    tol = 1e-10
    values, errors = adaptive_gauss(f, 3, -1.0, 1.0, tol, best_effort=True)
    evaluated = Counter(calls)
    assert evaluated[0] == 1 and evaluated[1] > 3 and evaluated[2] == 3
    assert errors[0] <= tol and errors[1] <= tol and errors[2] > tol
    assert values[0] == pytest.approx(4.0 * math.sin(1.0), rel=1e-14)
    assert values[1] == pytest.approx(200.0 * math.atan(100.0), rel=1e-12)
    for r in range(3):

        def single(theta: np.ndarray, rows: np.ndarray, r: int = r) -> np.ndarray:
            return f(theta, np.full_like(rows, r))

        (v,), (e,) = adaptive_gauss(single, 1, -1.0, 1.0, tol, best_effort=True)
        assert (values[r].hex(), errors[r].hex()) == (v.hex(), e.hex())
        ref = _one_integrand_gauss(
            lambda x: single(x[None, :], np.zeros(1, dtype=int))[0], -1.0, 1.0, tol,
            best_effort=True,
        )
        assert (ref[0].hex(), ref[1].hex()) == (v.hex(), e.hex())
    # without best_effort the frozen row fails the whole batch; the others converge
    with pytest.raises(ConvergenceError):
        adaptive_gauss(f, 3, -1.0, 1.0, tol)
    pair = adaptive_gauss(f, 2, -1.0, 1.0, tol)
    assert [v.hex() for v in pair[0]] == [v.hex() for v in values[:2]]
    assert all(v == 0.0 for v in np.concatenate(adaptive_gauss(f, 3, 1.0, 1.0, tol)))


@pytest.mark.parametrize("sign,where,calls", [(-1.0, "up to", 61), (1.0, "down to", 62)])
def test_geometric_bracket_without_sign_change_raises(sign: float, where: str, calls: int) -> None:
    # a constant f never changes sign: the walk gives up after 60 steps up
    # (or, from f(start) > 0, one step and 60 more down)
    xs = []

    def f(x: float) -> float:
        xs.append(x)
        return sign

    with pytest.raises(ConvergenceError, match=f"no sign change of f {where}"):
        geometric_bracket(f)
    assert len(xs) == calls


def test_brent_converges_fast_on_smooth_roots() -> None:
    calls = []

    def f(x: float) -> float:
        calls.append(x)
        return x**3 - 2.0

    root = brent(f, 0.0, 3.0, f(0.0), f(3.0), xtol=1e-15, rtol=1e-15)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert len(calls) <= 14  # bisection needs ~52
    assert brent(f, 2.0 ** (1.0 / 3.0), 3.0, 0.0, 25.0, xtol=0.0, rtol=1e-12) == 2.0 ** (1.0 / 3.0)
    with pytest.raises(ConvergenceError):
        brent(f, 2.0, 3.0, f(2.0), f(3.0), xtol=0.0, rtol=1e-12)

    def g(x: float) -> float:
        return math.sqrt(x) - 30.0

    z = brent(g, *geometric_bracket(g), xtol=0.0, rtol=1e-12)
    assert z == pytest.approx(900.0, rel=1e-12)

    # values so small that the inverse quadratic step's denominator underflows
    # to 0: that step falls back to bisection instead of dividing by zero
    for scale in (1e-120, 1e-300):

        def tiny(x: float, scale=scale) -> float:
            return scale * (math.exp(x) - 2.0)

        root = brent(tiny, 0.0, 2.0, tiny(0.0), tiny(2.0), xtol=0.0, rtol=1e-12)
        assert root == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("n", [16, 64])
def test_gauss_pair_rows_match_row_alone(n: int) -> None:
    # the row helpers give each row of a batch what that row gets alone, bit
    # for bit, and the fine sum of a row is the 2n-node rule applied directly
    lo = np.array([-1.0, 0.3, 2.0, -7.5])
    hi = np.array([1.0, 0.9, 5.5, -7.25])

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(np.sin(3.0 * x)) + x * x

    points, weights = gauss_pair_rows(lo, hi, n)
    assert points.shape == weights.shape == (4, 3 * n)
    coarse, fine = gauss_pair_sums(f(points), weights)
    x, w = gauss_nodes(2 * n)
    for i in range(4):
        p, wt = gauss_pair_rows(lo[i], hi[i], n)
        c, v = gauss_pair_sums(f(p), wt)
        assert (p.tobytes(), wt.tobytes()) == (points[i].tobytes(), weights[i].tobytes())
        assert (c[0].hex(), v[0].hex()) == (coarse[i].hex(), fine[i].hex())
        half, mid = 0.5 * (hi[i] - lo[i]), 0.5 * (lo[i] + hi[i])
        direct = half * float(np.dot(w, f(mid + half * x)))
        assert fine[i] == pytest.approx(direct, rel=1e-15)


def _segment_samples(
    lo: float, hi: float, n: int, sqrt_lo: bool, sqrt_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Reference: n-node Gauss points and weights of one segment of the composite knot rule.

    An end flagged as sqrt-singular (at most one) gets the substitution
    x = end + L*u^2.
    """
    x, w = gauss_nodes(n)
    length = hi - lo
    if sqrt_lo:
        u = 0.5 * (x + 1.0)
        return lo + length * u * u, length * u * w
    if sqrt_hi:
        u = 0.5 * (x + 1.0)
        return hi - length * u * u, length * u * w
    half = 0.5 * length
    return 0.5 * (lo + hi) + half * x, half * w


def _reference_rule(
    lo: float, hi: float, knots: np.ndarray, sqrt_ends: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the composite knot rule, built segment by segment.

    Each segment is one row: its 16-node points, then its 32-node points.  With
    sqrt_ends and no knot inside, [lo, hi] is split at its midpoint first.
    """
    edges = np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])
    if sqrt_ends and edges.size == 2:
        edges = np.array([lo, 0.5 * (lo + hi), hi])
    last = edges.size - 2
    rows = []
    for i, (a, b) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        sqrt_lo, sqrt_hi = sqrt_ends and i == 0, sqrt_ends and i == last
        rules = [_segment_samples(a, b, n, sqrt_lo, sqrt_hi) for n in (16, 32)]
        rows.append([np.concatenate(part) for part in zip(*rules)])
    points, weights = (np.array(part) for part in zip(*rows))
    return points, weights


def _reference_knot_integral(g, f, lo, hi, table, *, sqrt_ends):
    """composite_knot_integral with every point mapped and f evaluated on every call."""
    if hi <= lo:
        return 0.0, 0.0
    points, weights = _reference_rule(lo, hi, table.knots, sqrt_ends)
    coarse, fine = gauss_pair_sums(np.asarray(g(points, f(points)), dtype=float), weights)
    coarse, fine = float(coarse.sum()), float(fine.sum())
    return fine, abs(fine - coarse)


@pytest.mark.parametrize("sqrt_ends", [False, True])
@pytest.mark.parametrize("n_edges", [2, 3, 9])
def test_knot_samples_match_segment_samples(sqrt_ends: bool, n_edges: int) -> None:
    # the table's samples of [lo, hi] are the rows of _segment_samples of
    # every segment between lo, the n_edges - 2 knots inside and hi, both
    # rules in order, bit for bit, with lo and hi between knots, on knots and
    # beyond them; f's values are f at the points, and f is given the end
    # segments only
    knots = np.sort(np.random.default_rng(n_edges).uniform(-2.0, 3.0, 12))
    seen = []

    def f(x: np.ndarray) -> np.ndarray:
        seen.append(x.size)
        return np.cos(3.0 * x) + x

    table = KnotTable(knots, f)
    assert seen == [11 * (16 + 32)]
    inside = n_edges - 2
    intervals = [
        (0.5 * (knots[2] + knots[3]), 0.3 * knots[2 + inside] + 0.7 * knots[3 + inside]),
        (knots[2], knots[3 + inside]),
        (knots[0] - 0.7, 0.5 * (knots[inside - 1] + knots[inside]) if inside else knots[0] - 0.1),
    ]
    for lo, hi in intervals:
        seen.clear()
        points, values, weights = table.samples(lo, hi, f, sqrt_ends=sqrt_ends)
        assert sum(seen) == (2 if inside or sqrt_ends else 1) * 48
        ref_points, ref_weights = _reference_rule(lo, hi, knots, sqrt_ends)
        assert ref_points.shape == (inside + 1 + (sqrt_ends and not inside), 48)
        assert points.shape == weights.shape == values.shape == ref_points.shape
        assert points.tobytes() == ref_points.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        assert values.tobytes() == f(ref_points).tobytes()


def _tabulated_outputs(w, s: Settings) -> list[str]:
    """float.hex of the action profile, fit_phi, every level, delta1 and the inner slopes."""
    prof = action_profile(w, s)
    out = [*prof.I_values, *prof.quad_error, fit_phi(prof)]
    for n in range(4):
        try:
            out.append(solve_spectrum(w, n, s))
        except NoSuchLevelError:
            out.append(math.nan)
    eps = 0.5 * w.V_m * np.array([0.2, 0.5, 0.8])
    out += [delta1_integral(w, float(e), s) for e in eps]
    out += list(correction_inner_slopes(w, eps, 1e-12))
    return [float(v).hex() for v in out]


@pytest.mark.parametrize("a,Z,span", [(0.5, 8.0, 16.8), (1.0, 30.0, 16.8), (2.0, 1e3, 30.0)])
def test_knot_table_outputs_match_segment_reference(a, Z, span, monkeypatch) -> None:
    # the per-well knot table changes no output of a 400-sample tabulated
    # Lenz resampling, bit for bit, against the integral that maps every
    # segment and evaluates W on every point for each level
    s = Settings()
    rho = np.linspace(-span / a, span / a, 400)
    u = -0.25 * Z / np.cosh(a * rho) ** 2 * np.exp(-2.0 * rho)
    tab = Tabulated(r_grid=np.exp(rho), U_values=u, q0=2.0 - 2.0 * a, qinf=2.0 + 2.0 * a)
    got = _tabulated_outputs(to_log_well(tab, s), s)
    action_module = importlib.import_module("trenq.action")
    monkeypatch.setattr(action_module, "composite_knot_integral", _reference_knot_integral)
    want = _tabulated_outputs(to_log_well(tab, s), s)
    assert got == want
    assert sum(v != "nan" for v in got[-10:-6]) >= 1  # at least one level


def _rough_knots(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-uniform knots with small integer values: flat runs and sign changes of the secants."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.05, 2.0, n)) - 3.0, rng.integers(-3, 4, n).astype(float)


def _pchip_data(well, settings, profile) -> list[tuple[np.ndarray, np.ndarray]]:
    """ln W of Lenz resamplings (400 and the minimum of 4 samples), action
    profiles (65 and the minimum of 5 points) and rough knots with their
    mirror images, so that both ends meet every slope rule."""
    data = []
    for n in (400, 4):
        rho = np.linspace(-16.8, 16.8, n)
        data.append((rho, np.log(4.0 / np.cosh(rho) ** 2)))
    for prof in (profile, action_profile(well, settings, 5)):
        data.append((prof.lambda_grid, prof.I_values))
    # seeds 12 and 22 meet the rarer zeroing end rule
    for seed, n in ((0, 4), (1, 5), (12, 12), (22, 12), (2, 30), (3, 30)):
        x, y = _rough_knots(seed, n)
        data += [(x, y), (-x[::-1], y[::-1])]
    return data


def _pchip_points(x: np.ndarray) -> list:
    """Every knot and its two float neighbours inside [x[0], x[-1]] (also as a
    2-d array), an ascending block of 16384 points and those, the unsorted
    samples of the knot-aligned composite rule and three kinds of scalar."""
    near = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    near = near[(near >= x[0]) & (near <= x[-1])]
    samples = KnotTable(x, np.cos).samples(x[0], x[-1], np.cos, sqrt_ends=True)[0].ravel()
    assert np.any(np.diff(samples) < 0.0)
    mid = 0.5 * (x[1] + x[2])
    return [
        near,
        near[: near.size // 2 * 2].reshape(2, -1),
        np.sort(np.concatenate([np.linspace(x[0], x[-1], 16384), near])),
        samples,
        float(x[-1]),
        np.float64(mid),
        np.array(x[0] + 0.3 * (x[1] - x[0])),
    ]


def _assert_same_as_scipy(x: np.ndarray, y: np.ndarray, points: list) -> None:
    p = Pchip(x, y)
    ref = PchipInterpolator(x, y, extrapolate=False)
    assert p.c.shape == ref.c.shape and p.c.tobytes() == ref.c.tobytes()
    assert p.x.tobytes() == ref.x.tobytes()
    for r in points:
        got, want = np.asarray(p(r), dtype=float), ref(r)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), r


def test_pchip_matches_scipy_bit_for_bit(lenz18_well, settings, lenz18_profile) -> None:
    data = _pchip_data(lenz18_well, settings, lenz18_profile)
    for x, y in data:
        _assert_same_as_scipy(x, y, _pchip_points(x))
    # the end slope rules: zeroed where the three-point estimate turns
    # against the end secant, 3 times the end secant where it overshoots; the
    # mirror images put each right end on the left
    m0 = np.array([(y[1] - y[0]) / (x[1] - x[0]) for x, y in data])
    d0 = np.array([Pchip(x, y).c[2, 0] for x, y in data])
    assert np.any((d0 == 0.0) & (m0 != 0.0))
    assert np.any((d0 == 3.0 * m0) & (m0 != 0.0))


@hypothesis_settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-3, 1e3), st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))),
        min_size=3,
        max_size=40,
    )
)
def test_pchip_matches_scipy_on_drawn_knots(knots) -> None:
    steps, values = zip(*knots)
    x = np.cumsum(steps)
    y = 0.37 * np.array(values, dtype=float)
    _assert_same_as_scipy(x, y, _pchip_points(x))


def test_pchip_interpolates_and_is_c1() -> None:
    # the knots are reproduced exactly (the last one closes the last piece,
    # to rounding) and neighbouring pieces meet with equal value and slope
    for seed in range(6):
        x, y = _rough_knots(seed, 30)
        y += np.sin(x)
        p = Pchip(x, y)
        assert np.array_equal(p(x[:-1]), y[:-1])
        c3, c2, c1, c0 = p.c
        h = np.diff(x)
        end_value = ((c0 + c1 * h) + c2 * h * h) + c3 * h**3
        end_slope = c1 + 2.0 * c2 * h + 3.0 * c3 * h * h
        assert np.allclose(end_value, y[1:], rtol=0.0, atol=1e-13 * np.abs(y).max())
        slope_scale = np.abs(np.diff(y) / h).max()
        assert np.allclose(end_slope[:-1], c1[1:], rtol=0.0, atol=1e-12 * slope_scale)


def test_pchip_tails_are_lines_on_every_path() -> None:
    # beyond the knots the interpolant is y[0] + slope (r - x[0]) on the left
    # and p(x[-1]) + slope (r - x[-1]) on the right, with the slopes given,
    # of both signs, and the scalar, unsorted and ascending-block paths agree
    # bit for bit on both sides of each end knot, far out and at nan (which
    # no ascending block holds)
    x, y = _rough_knots(0, 30)
    for x, y, tails in ((x, y, (0.7, -1.3)), (-x[::-1], y[::-1], (-0.4, 2.5))):
        p = Pchip(x, y, tails)
        probes = np.array([
            np.nextafter(x[0], -np.inf), x[0], x[-1], np.nextafter(x[-1], np.inf),
            x[0] - 1e3, x[-1] + 1e3, math.nan,
        ])
        scalar = np.array([p(float(r)) for r in probes])
        assert p(probes[::-1])[::-1].tobytes() == scalar.tobytes()
        block = np.sort(np.concatenate((np.linspace(x[0] - 5.0, x[-1] + 5.0, 16384), probes[:-1])))
        got = p(block)[np.searchsorted(block, probes[:-1])]
        assert got.tobytes() == scalar[:-1].tobytes()
        assert math.isnan(scalar[-1])
        y_end = p(float(x[-1]))
        left, right = probes[[0, 4]], probes[[3, 5]]
        assert np.array_equal(p(left), y[0] + tails[0] * (left - x[0]))
        assert np.array_equal(p(right), y_end + tails[1] * (right - x[-1]))
        for side, slope in ((left, tails[0]), (right, tails[1])):
            d1, d2 = p.derivatives(side)
            assert np.all(d1 == slope) and np.all(d2 == 0.0)


def _shaped_values(kind: str) -> np.ndarray:
    """40 values: monotone with flat runs and jumps of three orders of magnitude, or not."""
    rng = np.random.default_rng(7)
    steps = rng.choice([0.0, 0.01, 1.0, 10.0], 40)
    if kind == "rising":
        return np.cumsum(steps)
    if kind == "falling":
        return -np.cumsum(steps)
    if kind == "peaks":
        # sharp peaks and dips, flat tops and a plateau at the global maximum
        y = np.cumsum(steps * rng.choice([-1.0, 1.0], 40))
        y[20:23] = y.max() + 1.0
        return y
    # a symmetric hump sampled without a centre point: two top samples equal to rounding
    return 1.0 / np.cosh(np.linspace(-3.0, 3.0, 40)) ** 2


@pytest.mark.parametrize("kind", ["rising", "falling", "peaks", "hump"])
def test_pchip_keeps_each_piece_between_its_end_values(kind: str) -> None:
    # every piece is monotone, so an extremum of the interpolant sits at a
    # knot, also on data that rises and falls: a tabulated well takes its
    # peak and its cut cells from its samples on this ground
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 2.0, 40))
    y = _shaped_values(kind)
    r = np.linspace(x[0], x[-1], 20001)
    v = Pchip(x, y)(r)
    piece = np.minimum(np.searchsorted(x, r, side="right") - 1, x.size - 2)
    lo = np.minimum(y[piece], y[piece + 1])
    hi = np.maximum(y[piece], y[piece + 1])
    tol = 1e-12 * np.abs(y).max()
    assert np.all(v >= lo - tol) and np.all(v <= hi + tol)
    # consecutive points of one piece follow the sign of its secant
    same = piece[1:] == piece[:-1]
    secant = np.sign(y[piece + 1] - y[piece])[:-1]
    assert np.all(secant[same] * np.diff(v)[same] >= -tol)
    assert v.max() <= y.max() + tol and v.min() >= y.min() - tol


def test_import_loads_no_scipy_interpolate() -> None:
    # from scipy the package needs LAPACK only; scipy.interpolate would add
    # ~0.4 s and ~23 MB to every process
    src = Path(trenq.__file__).resolve().parents[1]
    code = "import sys, trenq; print([m for m in sys.modules if m.startswith('scipy.interpolate')])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
