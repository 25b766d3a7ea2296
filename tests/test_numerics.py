import math
from collections import Counter

import numpy as np
import pytest

from trenq import ConvergenceError
from trenq.numerics import (
    _knot_samples,
    _segment_samples,
    adaptive_gauss,
    brent,
    false_position,
    false_position_elementwise,
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
    roots = false_position_elementwise(f, lo, hi, f(lo, idx), f(hi, idx), rtol=1e-15)
    batch_calls = calls.copy()
    for i, (t, root) in enumerate(zip(targets, roots)):
        n = [0]

        def g(x: float, i: int = i, t: float = t) -> float:
            n[0] += 1
            return float(sign[i] * (np.tanh(x) * 4.0 - t))

        ref = false_position(g, -4.0, 4.0, g(-4.0), g(4.0), rtol=1e-15)
        assert root.hex() == ref.hex()
        assert batch_calls[i] == n[0]
        assert root == pytest.approx(math.atanh(t / 4.0), rel=1e-14, abs=1e-15)
    assert roots[40] == 0.0 and batch_calls[40] == 3  # the first step lands on the root
    assert (roots[41], roots[42]) == (-4.0, 4.0)  # roots at the bracket ends, no steps
    assert batch_calls[41] == batch_calls[42] == 2
    assert max(batch_calls.values()) <= 18  # with the two end values; bisection takes ~55 steps
    with pytest.raises(ConvergenceError):
        false_position_elementwise(f, lo[:1], hi[:1], np.ones(1), np.ones(1), rtol=1e-15)
    with pytest.raises(ConvergenceError):
        false_position(math.tanh, 1.0, 2.0, math.tanh(1.0), math.tanh(2.0), rtol=1e-15)


def _one_integrand_gauss(f, a: float, b: float, tol: float, *, best_effort: bool) -> tuple:
    """Reference: the adaptive Gauss loop for a single 1-d integrand f(x).

    Same rules as adaptive_gauss (worst active panel split, freeze when a
    split does not halve its estimate, at most 200 panels), with each rule
    evaluated in its own call of f.
    """

    def estimate(lo: float, hi: float) -> tuple[float, float]:
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        v64, v128 = (
            half * float(np.dot(wts, f(mid + half * x)))
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


@pytest.mark.parametrize("sqrt_ends", [False, True])
@pytest.mark.parametrize("n_edges", [2, 3, 9])
def test_knot_samples_match_segment_samples(sqrt_ends: bool, n_edges: int) -> None:
    edges = np.sort(np.random.default_rng(n_edges).uniform(-2.0, 3.0, n_edges))
    for n in (16, 32):
        pts, wts = _knot_samples(edges, n, sqrt_ends)
        ref = [
            _segment_samples(
                float(a), float(b), n, sqrt_ends and i == 0, sqrt_ends and i == n_edges - 2
            )
            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
        ]
        assert np.array_equal(pts, np.concatenate([p for p, _ in ref]))
        assert np.array_equal(wts, np.concatenate([w for _, w in ref]))
