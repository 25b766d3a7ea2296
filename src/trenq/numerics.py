"""Shared numerical kernels: stable hyperbolics, root-finding, singular quadrature.

Root-finding comes in three forms: Illinois false position, for turning
points, which start from a bracketing cell of a scan of the well and need
about seven steps where bisection took ~55; an elementwise-vectorized form
of it that takes exactly the same steps for many brackets at once (the
turning-pair search of the action module takes the scalar form for one
level, this one for several); and Brent's method, for the smooth monotone
outer equations, the domain cuts of a log well and the oracle's continuous
node-count residual.
geometric_bracket finds the sign change on (0, inf) that the outer solves
start from: the oracle's by doubling from 1, the factory route of the
thresholds from a close guess with a step that starts small and grows.

All action-type integrals in this package have inverse-square-root or
square-root behaviour at the interval endpoints.  The caller maps the
interval with x = mid + half*sin(theta), which turns both kinds of endpoint
singularity into smooth integrands in theta, and integrates them with the
adaptive panel Gauss-Legendre rule here, which refines a batch of them
in lockstep (one call per round for all levels of an action profile);
piecewise profiles use the knot-aligned composite rule instead,
KnotTable.integral, whose table holds the profile sampled on the segments
between knots once for all intervals.
Both take a value from a 2n-node Gauss rule and its error estimate from
the n-node one, on rows of both rules (gauss_pair_rows, one row per panel
or segment) that gauss_pair_sums reduces.

Pchip is the monotone cubic interpolant of sampled wells, bit-identical
to SciPy's PchipInterpolator inside its knots without importing
scipy.interpolate, and linear beyond them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_MAX_PANELS = 200
# step cap of each root search
_MAX_ITER = 200
# relative bracket width at which false position stops
_FALSE_POSITION_RTOL = 1e-15
# geometric_bracket: growth of a step ratio's excess over 1 per step
_RATIO_GROWTH = 1024.0
# Pchip: ascending 1-d arguments of at least this many points find their
# pieces with one searchsorted of the knots into the argument
_SORTED_MIN = 2048


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, for n >= 1 and |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / (1.0 - x * x)


@cache
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact to rounding, cached.

    numpy's leggauss nodes take one Newton step on P_n, and the weights
    2 / ((1 - x^2) P_n'(x)^2) come from the same recurrence.  leggauss's
    own weights are off by up to 1.4e-11 relative at n = 128, which biased
    every smooth action by ~5e-14; these are within 3.4e-13 of a 40-digit
    reference (the conditioning of the weight on a rounded node) and the
    nodes within 7e-17.
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    p, dp = _legendre(n, x)
    x = x - p / dp
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


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
) -> float:
    """Root of f on a sign-change bracket by Illinois false position, end values given.

    Each step evaluates f at the secant root of the two ends and keeps the
    part of the bracket with the sign change.  When the same end survives
    two steps running, its value is halved (the Illinois rule: M. Dowell
    and P. Jarratt, BIT 11, 168 (1971)), so both ends close in
    superlinearly instead of one end sticking.  With tol =
    _FALSE_POSITION_RTOL * max(|lo|, |hi|), a step lands at least tol/2
    inside the bracket, so once an end sits on the root within rounding
    noise the next step closes the bracket.  A zero of f, at an end or a
    step, is returned as the root; otherwise the loop stops with the
    midpoint once hi - lo <= tol.
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
        tol = _FALSE_POSITION_RTOL * max(abs(lo), abs(hi))
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
        tol = _FALSE_POSITION_RTOL * np.maximum(np.abs(a), np.abs(b))
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
    first_stop: bool = False,
) -> float:
    """Root of f on a sign-change bracket by Brent's method, end values given.

    Inverse quadratic interpolation and secant steps with a bisection
    fallback (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973; the step logic follows SciPy's brentq).  Stops once the bracket
    is narrower than xtol + rtol * |x|, and converges superlinearly on
    smooth f while never taking more steps than about the square of a
    bisection's.  With first_stop, the first point x (the secant root of
    the ends, as a rule) is returned when the step it predicts, |f(x)| over
    the smaller of the secant slopes from x to the two ends, is at most
    half of that stop width: on an f linear to rounding that is one call
    of f.  Otherwise the search goes on from x as without first_stop.
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
        if first_stop:
            first_stop = False
            slopes = ((fcur - flo) / (xcur - lo), (fhi - fcur) / (hi - xcur))
            slope = min(slopes) if fhi > flo else -max(slopes)
            if abs(fcur) <= 0.25 * (xtol + rtol * abs(xcur)) * slope:
                return xcur
    raise ConvergenceError(f"brent did not converge in {_MAX_ITER} steps; last x = {xcur}")


@cache
def _gauss_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node then the 2n-node Gauss-Legendre rule on [-1, 1]."""
    (x1, w1), (x2, w2) = gauss_nodes(n), gauss_nodes(2 * n)
    return np.concatenate((x1, x2)), np.concatenate((w1, w2))


def gauss_pair_rows(
    lo: np.ndarray | float, hi: np.ndarray | float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the n- and 2n-node Gauss-Legendre rules, one row per [lo[i], hi[i]].

    Each row holds the n coarse nodes first, then the 2n fine ones, mapped
    linearly onto its interval; gauss_pair_sums reduces rows of integrand
    values at these points.
    """
    x, w = _gauss_pair(n)
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def gauss_pair_sums(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) rule sums of every row of values at the points of gauss_pair_rows.

    Each row is summed on its own, so a row of a batch equals a batch of one,
    bit for bit.
    """
    n = values.shape[1] // 3
    terms = values * weights
    return terms[:, :n].sum(axis=1), terms[:, n:].sum(axis=1)


def _panel_estimates(f: Callable, panels: list[tuple[int, float, float]]) -> list[tuple]:
    """(128-node value, error estimate vs the 64-node value) of every panel.

    A panel (row, lo, hi) is [lo, hi] of integrand row; all take one call of f.
    """
    rows, lo, hi = (np.array(column) for column in zip(*panels))
    points, weights = gauss_pair_rows(lo, hi, 64)
    coarse, fine = gauss_pair_sums(f(points, rows), weights)
    return list(zip(fine.tolist(), np.abs(fine - coarse).tolist()))


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


# nodes of the coarse rule of the composite knot rule (the fine rule has
# twice as many): the fine rule gives the value, its difference from the
# coarse one the error estimate
_KNOT_NODES = 16


def _end_row(
    lo: float, hi: float, sqrt_lo: bool, sqrt_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of both knot rules on the end segment [lo, hi], as one row.

    An end flagged as sqrt-singular (at most one) gets the substitution
    x = end + L*u^2, which regularizes both sqrt and inverse-sqrt behaviour.
    """
    if not (sqrt_lo or sqrt_hi):
        return gauss_pair_rows(lo, hi, _KNOT_NODES)
    x, w = _gauss_pair(_KNOT_NODES)
    u = 0.5 * (x + 1.0)
    lu = (hi - lo) * u
    return (lo + lu * u if sqrt_lo else hi - lu * u)[None], (lu * w)[None]


class KnotTable:
    """The composite knot rule of f on every segment between successive knots.

    Piecewise-defined profiles (monotone cubic interpolants) are smooth only
    between knots, which defeats error estimation on knot-spanning panels.
    The knot rule puts every segment inside one smooth piece and applies a
    fixed Gauss rule to each, 16 coarse and 32 fine nodes, whose difference
    is the error estimate.  points, weights and values hold one row per
    segment, laid out by gauss_pair_rows: the Gauss points, their weights and
    f at them.  The level-independent part of every integral over these
    knots is thus sampled once; samples adds the two end segments of an
    interval.  f must be elementwise and knots strictly ascending.
    """

    def __init__(self, knots: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> None:
        self.knots = knots
        self.f = f
        self.points, self.weights = gauss_pair_rows(knots[:-1], knots[1:], _KNOT_NODES)
        # both rules in one call of f.  One call per rule (Pchip's ascending
        # path) builds the table sooner, but a process of tabulated wells then
        # frees no array of 0.5 MB or more, so glibc's dynamic mmap threshold
        # stays below that size and numpy temporaries of that size elsewhere
        # are mapped and page-faulted afresh each time: other numpy work in a
        # predict_batch process ran 10-25 % slower (x86-64 Linux, glibc)
        self.values = np.asarray(f(self.points.ravel()), dtype=float).reshape(self.points.shape)

    def samples(
        self, lo: float, hi: float, *, sqrt_ends: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, f at them, weights) of the composite rule on [lo, hi], one row per segment.

        The partition runs from lo over every knot inside (lo, hi) to hi; the
        rows are the head segment's, the table's and the tail segment's, in
        that order, each laid out by gauss_pair_rows.  With sqrt_ends the two
        end segments get the sqrt map at lo and hi, and without a knot
        inside, [lo, hi] is split at its midpoint first; with neither,
        [lo, hi] is one row.  Only the end segments are mapped and given to
        f here; the others come from the table.
        """
        knots = self.knots
        i = int(np.searchsorted(knots, lo, side="right"))
        j = int(np.searchsorted(knots, hi, side="left"))
        rows = slice(i, max(i, j - 1))  # the segments between knots[i:j]
        if j > i:
            ends = [_end_row(lo, knots[i], sqrt_ends, False)]
            ends.append(_end_row(knots[j - 1], hi, False, sqrt_ends))
        elif sqrt_ends:
            mid = 0.5 * (lo + hi)
            ends = [_end_row(lo, mid, True, False), _end_row(mid, hi, False, True)]
        else:
            ends = [_end_row(lo, hi, False, False)]
        points, weights = (np.concatenate(part) for part in zip(*ends))
        values = np.asarray(self.f(points.ravel()), dtype=float).reshape(points.shape)
        tables = (self.points, self.values, self.weights)
        return tuple(
            np.concatenate((end[:1], table[rows], end[1:]))
            for end, table in zip((points, values, weights), tables)
        )

    def integral(
        self, g: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: float, hi: float,
        *, sqrt_ends: bool,
    ) -> tuple[float, float]:
        """(value, error estimate) of the integral of g(x, f(x)) over [lo, hi], lo < hi.

        The rule of samples, with the regularizing map at lo and hi when
        sqrt_ends flags both as sqrt-singular.  g must be elementwise: the
        rows of both rules' points go to it in one call.
        """
        points, values, weights = self.samples(lo, hi, sqrt_ends=sqrt_ends)
        coarse, fine = gauss_pair_sums(np.asarray(g(points, values), dtype=float), weights)
        coarse, fine = float(coarse.sum()), float(fine.sum())
        return fine, abs(fine - coarse)


class Pchip:
    """Monotone cubic Hermite interpolant (PCHIP) of knots x and values y, with linear end pieces.

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
    inside [x[0], x[-1]] equal SciPy's bit for bit; x[-1] closes the last
    cubic piece.  x must be strictly ascending with n >= 3.

    Beyond the knots the interpolant is linear: slope tails[0] left of x[0]
    from y[0], slope tails[1] right of x[-1] from the value of the last cubic
    piece at x[-1].  These two end pieces are stored and evaluated as cubic
    pieces with c0 = c1 = 0, so the value is nan at nan, at +-inf and
    wherever (r - x)^3 overflows (|r - x| above about 5e102).  A scalar
    argument returns a float.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, tails: tuple[float, float] = (0.0, 0.0)
    ) -> None:
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
        # rows c0, c1, c2, c3 and the anchor of every piece: the left tail,
        # the cubic pieces and the right tail, the tails with c0 = c1 = 0
        pieces = np.zeros((5, x.size + 1))
        pieces[:, 1:-1] = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]
        # the last cubic piece at x[-1], by the arithmetic of __call__ (on
        # Python floats, which overflow without a warning)
        c0, c1, c2, c3, _ = pieces[:, -2].tolist()
        s = float(h[-1])
        y_end = ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)
        pieces[2:, 0] = tails[0], y[0], x[0]
        pieces[2:, -1] = tails[1], y_end, x[-1]
        self._pieces = pieces
        self.x = x
        self.c = pieces[:4, 1:-1]
        # piece k holds the r with edges[k - 1] <= r < edges[k]: x[-1] closes
        # the last cubic piece, and the right tail starts just above it
        self._edges = x.copy()
        self._edges[-1] = np.nextafter(x[-1], np.inf)
        # the scalar path works on Python floats
        self._edge_list = self._edges.tolist()
        self._rows = pieces.T.tolist()

    def _piece(self, r: np.ndarray) -> np.ndarray:
        """Index of the piece that holds each r: 0 the left tail, len(x) the right tail."""
        return np.searchsorted(self._edges, r, side="right")

    def derivatives(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives at r off the piece that holds it: (slope, 0) in a tail."""
        c0, c1, c2, _, anchor = self._pieces[:, self._piece(r)]
        s = r - anchor
        return (3.0 * c0 * s + 2.0 * c1) * s + c2, 6.0 * c0 * s + 2.0 * c1

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        if not (isinstance(r, np.ndarray) and r.ndim):
            r = float(r)
            c0, c1, c2, c3, anchor = self._rows[bisect_right(self._edge_list, r)]
            s = r - anchor
            z = s * s
            return ((c3 + c2 * s) + c1 * z) + c0 * (z * s)
        if r.ndim == 1 and r.size >= _SORTED_MIN and np.all(r[1:] >= r[:-1]):
            # the points of piece k lie between the positions of edges[k - 1] and edges[k] in r
            counts = np.diff(np.concatenate(([0], np.searchsorted(r, self._edges), [r.size])))
            pieces = np.repeat(self._pieces, counts, axis=1)
            s = np.subtract(r, pieces[4], out=pieces[4])
        else:
            flat = r.ravel()
            pieces = self._pieces.take(self._piece(flat), axis=1)
            s = np.subtract(flat, pieces[4], out=pieces[4])
        # ((c3 + c2 s) + c1 s^2) + c0 s^3 with s = r - anchor, in place
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
