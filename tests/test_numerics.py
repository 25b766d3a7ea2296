import math

import numpy as np
import pytest

from trenq import ConvergenceError
from trenq.numerics import (
    _knot_samples,
    _segment_samples,
    bisect_elementwise,
    bisect_monotone,
    brent,
    geometric_bracket,
)


def test_bisect_elementwise_matches_scalar() -> None:
    # each element takes the scalar steps: same root bit for bit, including
    # exact zero hits at a midpoint and roots at a bracket end
    rng = np.random.default_rng(3)
    ends = 4.0 * np.tanh([-4.0, 4.0])
    targets = np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0], ends])
    lo = np.full(targets.size, -4.0)
    hi = np.full(targets.size, 4.0)

    def f(x, idx):
        return np.tanh(x) * 4.0 - targets[idx]

    roots = bisect_elementwise(f, lo, hi, f(lo, np.arange(lo.size)), f(hi, np.arange(hi.size)))
    for t, root in zip(targets, roots):
        ref = bisect_monotone(lambda x: float(np.tanh(x) * 4.0 - t), -4.0, 4.0)
        assert root.hex() == ref.hex()
    with pytest.raises(ConvergenceError):
        bisect_elementwise(f, lo[:1], hi[:1], np.ones(1), np.ones(1))


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


@pytest.mark.parametrize("sqrt_lo,sqrt_hi", [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("n_edges", [2, 3, 9])
def test_knot_samples_match_segment_samples(sqrt_lo: bool, sqrt_hi: bool, n_edges: int) -> None:
    edges = np.sort(np.random.default_rng(n_edges).uniform(-2.0, 3.0, n_edges))
    for n in (16, 32):
        pts, wts = _knot_samples(edges, n, sqrt_lo, sqrt_hi)
        ref = [
            _segment_samples(
                float(a), float(b), n, sqrt_lo and i == 0, sqrt_hi and i == n_edges - 2
            )
            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
        ]
        assert np.array_equal(pts, np.concatenate([p for p, _ in ref]))
        assert np.array_equal(wts, np.concatenate([w for _, w in ref]))
