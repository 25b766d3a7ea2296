"""Shared numerical kernels: stable hyperbolics, root-finding, singular quadrature.

Root-finding comes in three forms: Illinois false position, for turning
points, which start from a bracketing cell of a scan of the well and need
about seven steps where bisection took ~55; an elementwise-vectorized form
of it that takes exactly the same steps for many brackets at once; and
Brent's method, for the smooth monotone outer equations, the domain cuts
of a log well and the oracle's continuous node-count residual.
geometric_bracket finds the sign change on (0, inf) that the outer solves
start from: the oracle's by doubling from 1, the factory route of the
thresholds from a close guess with a step that starts small and grows.

All action-type integrals in this package have inverse-square-root or
square-root behaviour at the interval endpoints.  The caller maps the
interval with x = mid + half*sin(theta), which turns both kinds of endpoint
singularity into smooth integrands in theta, and integrates them with the
adaptive panel Gauss-Legendre rule here, which refines a batch of them
in lockstep (one call per round for all levels of an action profile);
piecewise profiles use the knot-aligned composite rule instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 200
# geometric_bracket: growth of a step ratio's excess over 1 per step
_RATIO_GROWTH = 1024.0


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


def false_position(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    *,
    rtol: float,
    max_iter: int = 200,
) -> float:
    """Root of f on a sign-change bracket by Illinois false position, end values given.

    Each step evaluates f at the secant root of the two ends and keeps the
    part of the bracket with the sign change.  When the same end survives
    two steps running, its value is halved (the Illinois rule: M. Dowell
    and P. Jarratt, BIT 11, 168 (1971)), so both ends close in
    superlinearly instead of one end sticking.  With tol = rtol *
    max(|lo|, |hi|), a step lands at least tol/2 inside the bracket, so
    once an end sits on the root within rounding noise the next step
    closes the bracket.  A zero of f, at an end or a step, is returned as
    the root; otherwise the loop stops with the midpoint once
    hi - lo <= tol.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    lo_positive = flo > 0.0
    moved = 0  # the end the last step moved: -1 lo, +1 hi, 0 none yet
    for _ in range(max_iter):
        tol = rtol * max(abs(lo), abs(hi))
        if hi - lo <= tol:
            break
        x = min(max(lo - flo * (hi - lo) / (fhi - flo), lo + 0.5 * tol), hi - 0.5 * tol)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == lo_positive:
            lo, flo = x, fx
            if moved == -1:
                fhi *= 0.5
            moved = -1
        else:
            hi, fhi = x, fx
            if moved == 1:
                flo *= 0.5
            moved = 1
    return 0.5 * (lo + hi)


def false_position_elementwise(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    *,
    rtol: float,
    max_iter: int = 200,
) -> np.ndarray:
    """Many independent false_position searches at once, each bit-identical to it.

    Element i solves f(., i) on [lo[i], hi[i]] with the given end values.
    f(x, idx) evaluates the functions with indices idx at the points x, so
    one vectorized call advances every unfinished bracket by one step with
    the arithmetic of false_position.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.array(flo, dtype=float)
    fhi = np.array(fhi, dtype=float)
    roots = np.where(flo == 0.0, lo, hi)
    bad = (flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) == (fhi > 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConvergenceError(f"no sign change on [{lo[i]}, {hi[i]}]: f={flo[i]}, {fhi[i]}")
    lo_positive = flo > 0.0
    moved = np.zeros(lo.size, dtype=int)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(max_iter):
        a, b = lo[live], hi[live]
        tol = rtol * np.maximum(np.abs(a), np.abs(b))
        done = b - a <= tol
        roots[live[done]] = 0.5 * (a[done] + b[done])
        live = live[~done]
        if live.size == 0:
            return roots
        a, b, fa, fb, tol = lo[live], hi[live], flo[live], fhi[live], tol[~done]
        x = np.minimum(np.maximum(a - fa * (b - a) / (fb - fa), a + 0.5 * tol), b - 0.5 * tol)
        fx = f(x, live)
        hit = fx == 0.0
        roots[live[hit]] = x[hit]
        left = (fx > 0.0) == lo_positive[live]
        prev = moved[live]
        lo[live] = np.where(left, x, a)
        flo[live] = np.where(left, fx, np.where(prev == 1, 0.5 * fa, fa))
        hi[live] = np.where(left, b, x)
        fhi[live] = np.where(left, np.where(prev == -1, 0.5 * fb, fb), fx)
        moved[live] = np.where(left, -1, 1)
        live = live[~hit]
    roots[live] = 0.5 * (lo[live] + hi[live])
    return roots


def geometric_bracket(
    f: Callable[[float], float], start: float = 1.0, ratio: float = 2.0
) -> tuple[float, float, float, float]:
    """Sign-change bracket (lo, hi, f(lo), f(hi)) on (0, inf) of a nondecreasing f.

    hi steps up from start while f(hi) < 0 and lo is the point before it; if
    f(start) >= 0, lo steps down from start while f(lo) > 0 and hi stays at
    start (at most 60 steps either way).  Each step multiplies or divides by
    the current ratio, whose excess over 1 then grows _RATIO_GROWTH-fold, up
    to a ratio of 2.  The default walk therefore doubles from 1, while a
    ratio just above 1 brackets a start close to the root in one step and a
    far one in a few steps more than doubling would take.  Every point is
    evaluated once.
    """

    def grow(r: float) -> float:
        return 1.0 + min(_RATIO_GROWTH * (r - 1.0), 1.0)

    hi, fhi = start, f(start)
    lo = flo = None
    for _ in range(60):
        if fhi >= 0.0:
            break
        lo, flo = hi, fhi
        hi *= ratio
        fhi = f(hi)
        ratio = grow(ratio)
    if fhi < 0.0:
        raise ConvergenceError(f"no sign change of f up to {hi:g}")
    if lo is None:
        lo = start / ratio
        flo = f(lo)
        for _ in range(60):
            if flo <= 0.0:
                break
            ratio = grow(ratio)
            lo /= ratio
            flo = f(lo)
        if flo > 0.0:
            raise ConvergenceError(f"no sign change of f down to {lo:g}")
    return lo, hi, flo, fhi


def brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    *,
    xtol: float,
    rtol: float,
    max_iter: int = 200,
) -> float:
    """Root of f on a sign-change bracket by Brent's method, end values given.

    Inverse quadratic interpolation and secant steps with a bisection
    fallback (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973; the step logic follows SciPy's brentq).  Stops once the bracket
    is narrower than xtol + rtol * |x|, and converges superlinearly on
    smooth f while never taking more steps than about the square of a
    bisection's.
    """
    xpre, xcur, fpre, fcur = lo, hi, flo, fhi
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre > 0.0) == (fcur > 0.0):
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise ConvergenceError(f"brent did not converge in {max_iter} steps; last x = {xcur}")


def _panel_estimates(f: Callable, panels: list[tuple[int, float, float]]) -> list[tuple]:
    """(128-node value, error estimate vs the 64-node value) of every panel.

    A panel (row, lo, hi) is [lo, hi] of integrand row; all take one call of f.
    """
    x64, w64 = gauss_nodes(64)
    x128, w128 = gauss_nodes(128)
    half = np.array([0.5 * (hi - lo) for _, lo, hi in panels])
    mid = np.array([0.5 * (lo + hi) for _, lo, hi in panels])
    rows = np.array([p[0] for p in panels])
    vals = f(mid[:, None] + half[:, None] * np.concatenate((x64, x128)), rows)
    out = []
    for h, row in zip(half.tolist(), vals):
        v64 = h * float(np.dot(w64, row[:64]))
        v128 = h * float(np.dot(w128, row[64:]))
        out.append((v128, abs(v128 - v64)))
    return out


def adaptive_gauss(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    k: int,
    a: float,
    b: float,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate k vectorized integrands over [a, b], each to max(tol, rtol * |its value|).

    f(theta, rows) evaluates integrand rows[i] at the points theta[i] of a
    2-d theta.  The integrands are refined in lockstep, one split each per
    round, with one call of f per round; each takes the steps it would take
    alone, so a row of a batch equals a batch of one, bit for bit.

    A fixed 128-node Gauss-Legendre rule is applied per panel with the
    64-node result as error estimate; the worst panel is split until the
    summed estimate meets the tolerance, with at most _MAX_PANELS panels.
    A split that fails to cut the panel estimate in half signals roundoff-limited scatter rather than truncation error;
    such panels are frozen at their parent value so endpoint noise cannot
    drive runaway refinement.  Returns (values, achieved error estimates),
    arrays of length k.

    When an estimate cannot be brought under tol, raises ConvergenceError
    carrying the achieved error, unless best_effort is set: then the
    saturated value is returned.  The estimator is conservative near
    endpoints, so saturated values are usually far more accurate than the
    reported estimate; best_effort is meant for callers that run their own
    convergence test on top (e.g. difference stencils).
    """
    if b <= a:
        return np.zeros(k), np.zeros(k)
    # panel: (err, lo, hi, value, frozen); one list per integrand
    first = _panel_estimates(f, [(r, a, b) for r in range(k)])
    panels = [[(e, a, b, v, False)] for v, e in first]
    live = range(k)
    while True:
        splits = []  # (row, err, lo, mid, hi, value) of each panel to split
        for r in live:
            ps = panels[r]
            total_err = sum(p[0] for p in ps)
            goal = max(tol, rtol * abs(sum(p[3] for p in ps)))
            if total_err <= goal:
                continue
            active = [i for i, p in enumerate(ps) if not p[4]]
            if not active or len(ps) >= _MAX_PANELS:
                if best_effort:
                    continue
                raise ConvergenceError(
                    f"quadrature did not reach tol={goal:g}; achieved {total_err:g} "
                    f"with {len(ps)} panels"
                )
            worst = max(active, key=lambda i: ps[i][0])
            err, lo, hi, val, _ = ps.pop(worst)
            splits.append((r, err, lo, 0.5 * (lo + hi), hi, val))
        if not splits:
            break
        halves = [h for r, _, lo, mid, hi, _ in splits for h in ((r, lo, mid), (r, mid, hi))]
        estimates = iter(_panel_estimates(f, halves))
        # consecutive estimates are the left and right halves of one split
        for (r, err, lo, mid, hi, val), (vl, el), (vr, er) in zip(splits, estimates, estimates):
            if el + er > 0.5 * err:
                panels[r].append((err, lo, hi, val, True))
            else:
                panels[r].append((el, lo, mid, vl, False))
                panels[r].append((er, mid, hi, vr, False))
        live = [split[0] for split in splits]
    # deterministic summation order regardless of split history
    for ps in panels:
        ps.sort(key=lambda p: p[1])
    values = np.array([math.fsum(p[3] for p in ps) for ps in panels])
    return values, np.array([sum(p[0] for p in ps) for ps in panels])


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


def _knot_samples(
    edges: np.ndarray, n: int, sqrt_lo: bool, sqrt_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """_segment_samples of every segment between successive edges, in order.

    The plain segments are mapped in one array operation, with the same
    arithmetic as _segment_samples; only a flagged end segment is mapped on
    its own.
    """
    if edges.size == 2:
        return _segment_samples(float(edges[0]), float(edges[1]), n, sqrt_lo, sqrt_hi)
    x, w = gauss_nodes(n)
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
    wts = half[:, None] * w
    if sqrt_lo:
        pts[0], wts[0] = _segment_samples(float(edges[0]), float(edges[1]), n, True, False)
    if sqrt_hi:
        pts[-1], wts[-1] = _segment_samples(float(edges[-2]), float(edges[-1]), n, False, True)
    return pts.ravel(), wts.ravel()


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
        pts, wts = _knot_samples(edges, n, sqrt_lo, sqrt_hi)
        totals.append(float(np.dot(wts, np.asarray(g(pts), dtype=float))))
    return totals[1], abs(totals[1] - totals[0])
