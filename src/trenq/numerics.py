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
piecewise profiles use the knot-aligned composite rule instead, whose
KnotTable samples the segments between knots once for all intervals.

Pchip is the monotone cubic interpolant of sampled wells and action
profiles, bit-identical to SciPy's PchipInterpolator without importing
scipy.interpolate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 200
# step cap of each root search
_MAX_ITER = 200
# geometric_bracket: growth of a step ratio's excess over 1 per step
_RATIO_GROWTH = 1024.0
# Pchip: ascending 1-d arguments of at least this many points find their
# pieces with one searchsorted of the knots into the argument
_SORTED_MIN = 2048


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
    for _ in range(_MAX_ITER):
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
    for _ in range(_MAX_ITER):
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
    for _ in range(_MAX_ITER):
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
                # a denominator that underflows to 0 bisects, as brentq's inf does
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise ConvergenceError(f"brent did not converge in {_MAX_ITER} steps; last x = {xcur}")


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
    convergence test on top (a difference stencil, a root search).
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


# node counts of the composite knot rule, coarse first: the fine rule gives
# the value, its difference from the coarse one the error estimate
_KNOT_RULES = (16, 32)
_COARSE = _KNOT_RULES[0]
# nodes and weights of both rules in that order, and u = (x + 1)/2 of the
# sqrt map: the rule-constant parts of every end segment
_KNOT_X = np.concatenate([gauss_nodes(n)[0] for n in _KNOT_RULES])
_KNOT_W = np.concatenate([gauss_nodes(n)[1] for n in _KNOT_RULES])
_KNOT_U = 0.5 * (_KNOT_X + 1.0)
# the points and weights of a missing end segment
_NO_SAMPLES = (np.empty(0), np.empty(0))


def _end_samples(
    lo: float, hi: float, sqrt_lo: bool, sqrt_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of both rules, coarse first, on the end segment [lo, hi].

    An end flagged as sqrt-singular (at most one) gets the substitution
    x = end + L*u^2, which regularizes both sqrt and inverse-sqrt behaviour.
    """
    length = hi - lo
    if sqrt_lo:
        lu = length * _KNOT_U
        return lo + lu * _KNOT_U, lu * _KNOT_W
    if sqrt_hi:
        lu = length * _KNOT_U
        return hi - lu * _KNOT_U, lu * _KNOT_W
    half = 0.5 * length
    return 0.5 * (lo + hi) + half * _KNOT_X, half * _KNOT_W


class KnotTable:
    """Both rules of composite_knot_integral on every segment between successive knots.

    points[r], weights[r] and values[r] hold, for rule r (16 then 32 nodes),
    one row per segment: the Gauss points, their weights and f at them.  The
    level-independent part of every composite integral over these knots is
    thus sampled once; samples adds the two end segments of an interval.
    knots must be strictly ascending.
    """

    def __init__(self, knots: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> None:
        self.knots = knots
        half = 0.5 * (knots[1:] - knots[:-1])
        mid = 0.5 * (knots[:-1] + knots[1:])
        rules = [gauss_nodes(n) for n in _KNOT_RULES]
        self.points = [mid[:, None] + half[:, None] * x for x, _ in rules]
        self.weights = [half[:, None] * w for _, w in rules]
        # both rules in one call of f.  One call per rule (Pchip's ascending
        # path) builds the table sooner, but a process of tabulated wells then
        # frees no array of 0.5 MB or more, so glibc's dynamic mmap threshold
        # stays below that size and numpy temporaries of that size elsewhere
        # are mapped and page-faulted afresh each time: other numpy work in a
        # predict_batch process ran 10-25 % slower (x86-64 Linux, glibc)
        values = np.asarray(f(np.concatenate([p.ravel() for p in self.points])), dtype=float)
        split = self.points[0].size
        self.values = [
            values[:split].reshape(self.points[0].shape),
            values[split:].reshape(self.points[1].shape),
        ]

    def samples(
        self, lo: float, hi: float, f: Callable[[np.ndarray], np.ndarray], *, sqrt_ends: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(points, f at them, coarse weights, fine weights) of the composite rule on [lo, hi].

        The partition runs from lo over every knot inside (lo, hi) to hi; the
        points are those of the coarse rule on each segment in order, then the
        fine rule's, and the coarse weights belong to the leading points.
        With sqrt_ends the two end segments get the sqrt map at lo and hi,
        and without a knot inside, [lo, hi] is split at its midpoint first.
        Only the end segments are mapped and given to f here; the others come
        from the table.
        """
        knots = self.knots
        i = int(np.searchsorted(knots, lo, side="right"))
        j = int(np.searchsorted(knots, hi, side="left"))
        rows = slice(i, max(i, j - 1))  # the segments between knots[i:j]
        if j > i:
            head = _end_samples(lo, knots[i], sqrt_ends, False)
            tail = _end_samples(knots[j - 1], hi, False, sqrt_ends)
        elif sqrt_ends:
            mid = 0.5 * (lo + hi)
            head, tail = _end_samples(lo, mid, True, False), _end_samples(mid, hi, False, True)
        else:
            head, tail = _end_samples(lo, hi, False, False), _NO_SAMPLES
        ends = np.asarray(f(np.concatenate((head[0], tail[0]))), dtype=float)
        c = _COARSE

        def coarse_then_fine(h: np.ndarray, table: list[np.ndarray], t: np.ndarray) -> np.ndarray:
            return np.concatenate(
                (h[:c], table[0][rows].ravel(), t[:c], h[c:], table[1][rows].ravel(), t[c:])
            )

        points = coarse_then_fine(head[0], self.points, tail[0])
        values = coarse_then_fine(ends[: head[0].size], self.values, ends[head[0].size :])
        coarse = np.concatenate((head[1][:c], self.weights[0][rows].ravel(), tail[1][:c]))
        fine = np.concatenate((head[1][c:], self.weights[1][rows].ravel(), tail[1][c:]))
        return points, values, coarse, fine


def composite_knot_integral(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    table: KnotTable,
    *,
    sqrt_ends: bool,
) -> tuple[float, float]:
    """Integrate g(x, f(x)) over [lo, hi] on a partition aligned with the table's knots.

    Piecewise-defined profiles (monotone cubic interpolants) are smooth only
    between knots, which defeats error estimation on knot-spanning panels.
    Here every segment lies inside one smooth piece, a fixed Gauss rule is
    applied per segment (with a regularizing map at lo and hi when sqrt_ends
    flags both as sqrt-singular) and the 16- vs 32-node difference provides
    the error estimate.  f is the elementwise function the table holds
    values of, and is evaluated here on the two end segments only
    (KnotTable.samples); g must be elementwise: both rules' points go to it
    in one call.

    Returns (value, error estimate).
    """
    if hi <= lo:
        return 0.0, 0.0
    points, values, coarse_w, fine_w = table.samples(lo, hi, f, sqrt_ends=sqrt_ends)
    vals = np.asarray(g(points, values), dtype=float)
    coarse = float(np.dot(coarse_w, vals[: coarse_w.size]))
    fine = float(np.dot(fine_w, vals[coarse_w.size :]))
    return fine, abs(fine - coarse)


class Pchip:
    """Monotone piecewise cubic Hermite interpolant (PCHIP) of knots x and values y.

    The slopes are those of Fritsch and Carlson (SIAM J. Numer. Anal. 17,
    238 (1980)): at an inner knot the weighted harmonic mean of the two
    secants, or 0 where they differ in sign or one is flat; at an end the
    one-sided three-point estimate, set to 0 where its sign differs from the
    end secant's and to 3 times that secant where it overshoots a sign
    change (C. Moler, Numerical Computing with MATLAB, 2004).  The
    interpolant is C^1 and does not overshoot monotone data.  Construction
    and evaluation repeat the arithmetic of SciPy's PchipInterpolator
    operation for operation, so the coefficients c, of shape (4, n - 1) and
    in powers 3, 2, 1, 0 of r - x[i] on [x[i], x[i+1]), and every value
    equal SciPy's bit for bit.  x must be strictly ascending with n >= 3.

    Arguments must lie in [x[0], x[-1]]; x[-1] belongs to the last piece.
    No caller evaluates outside, and the value there is undefined.  A
    scalar argument returns a float.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            inner = np.where(flat, 0.0, 1.0 / whmean)
        # both ends at once: the first and the last piece, each with its neighbour
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, end))
        d = np.concatenate((end[:1], inner, end[1:]))
        t = (d[:-1] + d[1:] - 2 * m) / h
        # rows c0, c1, c2, c3 and x[i] of every piece, gathered together
        self._pieces = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]))
        self.x = x
        self.c = self._pieces[:4]
        # knot indices for np.interp; x[-1] maps into the last piece
        self._index = np.arange(x.size, dtype=float)
        self._index[-1] = x.size - 2
        # the scalar path works on Python floats
        self._x_list = x.tolist()
        self._c_rows = self.c.T.tolist()

    def derivatives(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives at r, each off the piece [x[i], x[i+1]) that holds it."""
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        c0, c1, c2, _ = self.c[:, i]
        s = r - self.x[i]
        return (3.0 * c0 * s + 2.0 * c1) * s + c2, 6.0 * c0 * s + 2.0 * c1

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        if not (isinstance(r, np.ndarray) and r.ndim):
            r = float(r)
            xs = self._x_list
            i = min(bisect_right(xs, r), len(xs) - 1) - 1
            c0, c1, c2, c3 = self._c_rows[i]
            s = r - xs[i]
            z = s * s
            return ((c3 + c2 * s) + c1 * z) + c0 * (z * s)
        x = self.x
        if r.ndim == 1 and r.size >= _SORTED_MIN and np.all(r[1:] >= r[:-1]):
            # the points of piece k lie between the positions of x[k] and x[k+1] in r
            edges = np.searchsorted(r, x)
            edges[0], edges[-1] = 0, r.size
            pieces = np.repeat(self._pieces, np.diff(edges), axis=1)
            s = np.subtract(r, pieces[4], out=pieces[4])
        else:
            # the interpolated knot index floors to the piece, or, within
            # rounding of the piece's end, rounds up onto the next one
            flat = r.ravel()
            i = np.interp(flat, x, self._index).astype(np.intp)
            pieces = self._pieces.take(i, axis=1)
            s = np.subtract(flat, pieces[4], out=pieces[4])
            if s.size and s.min() < 0.0:
                up = s < 0.0
                pieces[:, up] = self._pieces[:, i[up] - 1]
                s[up] = flat[up] - s[up]
        # ((c3 + c2 s) + c1 s^2) + c0 s^3 with s = r - x[i], in place
        c0, c1, c2, c3 = pieces[0], pieces[1], pieces[2], pieces[3]
        c2 *= s
        c2 += c3
        z = np.multiply(s, s, out=c3)
        c1 *= z
        c2 += c1
        z *= s
        c0 *= z
        c2 += c0
        return c2.reshape(r.shape)
