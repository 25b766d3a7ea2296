"""Shared numerical kernels: stable hyperbolics, bisection, singular quadrature.

All action-type integrals in this package have inverse-square-root or
square-root behaviour at the interval endpoints.  The caller maps the
interval with x = mid + half*sin(theta), which turns both kinds of endpoint
singularity into smooth integrands in theta, and integrates them with the
adaptive panel Gauss-Legendre rule here; piecewise profiles use the
knot-aligned composite rule instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 200


def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def sech2(x: np.ndarray | float) -> np.ndarray | float:
    """Overflow-safe sech^2(x); underflows cleanly to 0 for large |x|."""
    ax = np.abs(x)
    e = np.exp(-ax)
    s = 2.0 * e / (1.0 + e * e)
    return s * s


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 0.0,
    rtol: float = 4e-16,
    max_iter: int = 200,
) -> float:
    """Root of a sign-changing f on [lo, hi] by plain bisection.

    Requires f(lo) and f(hi) of opposite sign (zero counts as either).
    Robust against non-smooth f; used everywhere a guaranteed bracket exists.
    """
    return _bisect(f, lo, hi, f(lo), f(hi), xtol, rtol, max_iter)


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float,
    xtol: float, rtol: float, max_iter: int,
) -> float:
    """bisect_monotone with f(lo) and f(hi) already known."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + rtol * max(abs(lo), abs(hi)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracket_and_bisect(f: Callable[[float], float], rtol: float) -> float:
    """Root on (0, inf) of a nondecreasing f, bracketed geometrically from 1.

    hi doubles from 1 while f(hi) < 0 and lo = hi/2; if hi stays at 1, lo
    halves from 1/2 while f(lo) > 0 (at most 60 steps either way).  The
    bracket is then bisected to a relative width rtol and its midpoint
    returned.  Every point is evaluated once: the bisection reuses the
    values the bracketing phase already computed.
    """
    hi, fhi = 1.0, f(1.0)
    flo = None
    for _ in range(60):
        if fhi >= 0.0:
            break
        hi, flo, fhi = 2.0 * hi, fhi, f(2.0 * hi)
    if fhi < 0.0:
        raise ConvergenceError(f"no sign change of f up to {hi:g}")
    lo = 0.5 * hi
    if flo is None:
        flo = f(lo)
        for _ in range(60):
            if flo <= 0.0:
                break
            lo *= 0.5
            flo = f(lo)
        if flo > 0.0:
            raise ConvergenceError(f"no sign change of f down to {lo:g}")
    return _bisect(f, lo, hi, flo, fhi, 0.0, rtol, 200)


def _panel_estimates(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> tuple[float, float]:
    """(128-node value, error estimate vs the 64-node value) on one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x64, w64 = gauss_nodes(64)
    x128, w128 = gauss_nodes(128)
    v64 = half * float(np.dot(w64, f(mid + half * x64)))
    v128 = half * float(np.dot(w128, f(mid + half * x128)))
    return v128, abs(v128 - v64)


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[float, float]:
    """Integrate a vectorized f over [a, b] to max(tol, rtol * |value|).

    A fixed 128-node Gauss-Legendre rule is applied per panel with the
    64-node result as error estimate; the worst panel is split until the
    summed estimate meets the tolerance, with at most _MAX_PANELS panels.
    A split that fails to cut the panel estimate in half signals roundoff-limited scatter rather than truncation error;
    such panels are frozen at their parent value so endpoint noise cannot
    drive runaway refinement.  Returns (value, achieved error estimate).

    When the estimate cannot be brought under tol, raises ConvergenceError
    carrying the achieved error, unless best_effort is set: then the
    saturated value is returned.  The estimator is conservative near
    endpoints, so saturated values are usually far more accurate than the
    reported estimate; best_effort is meant for callers that run their own
    convergence test on top (e.g. difference stencils).
    """
    if b <= a:
        return 0.0, 0.0
    # panel: (err, lo, hi, value, frozen)
    v, e = _panel_estimates(f, a, b)
    panels: list[tuple[float, float, float, float, bool]] = [(e, a, b, v, False)]
    while True:
        total_err = sum(p[0] for p in panels)
        goal = max(tol, rtol * abs(sum(p[3] for p in panels)))
        if total_err <= goal:
            break
        active = [i for i, p in enumerate(panels) if not p[4]]
        if not active or len(panels) >= _MAX_PANELS:
            if best_effort:
                break
            raise ConvergenceError(
                f"quadrature did not reach tol={goal:g}; achieved {total_err:g} "
                f"with {len(panels)} panels"
            )
        worst = max(active, key=lambda i: panels[i][0])
        err, lo, hi, val, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        vl, el = _panel_estimates(f, lo, mid)
        vr, er = _panel_estimates(f, mid, hi)
        if el + er > 0.5 * err:
            panels.append((err, lo, hi, val, True))
        else:
            panels.append((el, lo, mid, vl, False))
            panels.append((er, mid, hi, vr, False))
    # deterministic summation order regardless of split history
    panels.sort(key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    return value, sum(p[0] for p in panels)


def _segment_samples(
    lo: float, hi: float, n: int, sqrt_lo: bool, sqrt_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and weights for one segment of a composite rule.

    Endpoints flagged as sqrt-singular get the substitution x = end + L*u^2,
    which regularizes both sqrt and inverse-sqrt behaviour; a segment with
    both flags is split at its midpoint first.
    """
    x, w = gauss_nodes(n)
    if sqrt_lo and sqrt_hi:
        mid = 0.5 * (lo + hi)
        xl, wl = _segment_samples(lo, mid, n, True, False)
        xr, wr = _segment_samples(mid, hi, n, False, True)
        return np.concatenate([xl, xr]), np.concatenate([wl, wr])
    length = hi - lo
    if sqrt_lo:
        u = 0.5 * (x + 1.0)
        return lo + length * u * u, length * u * w
    if sqrt_hi:
        u = 0.5 * (x + 1.0)
        return hi - length * u * u, length * u * w
    half = 0.5 * length
    return 0.5 * (lo + hi) + half * x, half * w


def composite_knot_integral(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    knots: np.ndarray,
    *,
    sqrt_lo: bool = False,
    sqrt_hi: bool = False,
) -> tuple[float, float]:
    """Integrate g over [lo, hi] on a partition aligned with interpolation knots.

    Piecewise-defined profiles (monotone cubic interpolants) are smooth only
    between knots, which defeats error estimation on knot-spanning panels.
    Here every segment lies inside one smooth piece, a fixed Gauss rule is
    applied per segment (with a regularizing endpoint map where flagged) and
    the 16- vs 32-node difference provides the error estimate.

    Returns (value, error estimate).
    """
    if hi <= lo:
        return 0.0, 0.0
    inner = knots[(knots > lo) & (knots < hi)]
    edges = np.concatenate([[lo], inner, [hi]])
    totals = []
    for n in (16, 32):
        pts = []
        wts = []
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            p, w = _segment_samples(
                float(a), float(b), n, sqrt_lo and i == 0, sqrt_hi and i == len(edges) - 2
            )
            pts.append(p)
            wts.append(w)
        pts_all = np.concatenate(pts)
        wts_all = np.concatenate(wts)
        totals.append(float(np.dot(wts_all, np.asarray(g(pts_all), dtype=float))))
    return totals[1], abs(totals[1] - totals[0])
