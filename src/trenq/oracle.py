"""Independent quantum-mechanical ground truth for threshold validation.

The number of bound states of the radial problem at a given lambda equals
the number of nodes of the regular zero-energy solution (Sturm oscillation).
That solution is integrated on the log line with the Numerov recurrence,
starting from the decaying exponential at the left truncation point, and its
strict sign changes are counted.  The recurrence is carried in Johnson's
ratio form (B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)): the ratio of
successive values is the pivot of an LDL^T factorization of a symmetric
tridiagonal matrix, a sign change is a nonpositive pivot, and LAPACK's dpttrf
runs the sweep in compiled code.  The product of the pivots is the end value
of the solution, whose growing-branch amplitude changes sign exactly where
the count steps; a root-find on a residual built from that amplitude, with
its sign taken from the count, locates every critical coupling, and the
integer counts at the ends of its bracket certify it.

A search (_search) runs in two stages, and _secant_finish ends both.  The
coarse stage counts on a grid _COARSEN times coarser, made of every
_COARSEN-th point of the fine grid, at about 1/_COARSEN of the cost per
count: its bracket doubles from Z = 1, Brent narrows it to
_COARSE_BRENT_RTOL, and a corrected secant step on the tightest bracket
ends it at min(1e-9, 10 ode_tol).  The count, amplitude and grid of every
coarse point are kept on the well per lambda, Settings and Z, so the other
thresholds of the well reuse its bracket points and a repeated search
counts nothing coarse; they are the same floats either way, so no threshold
depends on the order of the calls.  The grid error scales as h^4, so the
coarse root lies about _COARSEN^4 times the fine grid error from the fine
one.  The fine stage brackets the fine root from the coarse one within
twice the largest such distance measured, in two counts, and ends on the
corrected secant root of that bracket.  On the step the residual is one
smooth function of Z on both grids, shifted only by the grid error, so the
bend (the second divided difference over the slope) of three close coarse
points this search counted both bounds the remainder of the fine secant
root and corrects it; only where that bound exceeds the 1e-11 width Brent
would stop at does the fine stage count a third time.  The tightest fine
counts of n and n + 1 met on the way certify the root; fine counts are not
kept.  The search returns both roots and that bracket, and
exact_critical_coupling combines the roots: on a smooth well z_c and z
extrapolate
(L. F. Richardson, Phil. Trans. R. Soc. A 210, 307 (1911)) to

    z_R = (_COARSEN^4 z - z_c) / (_COARSEN^4 - 1),

whose error is of order h^6; the grid rule h ~ ode_tol^(1/6) is set so that
it stays below max(ode_tol / 10, 1e-12) over the whole range of
Settings.ode_tol, in which the coarse grid stays in the h^4 regime.  A
Tabulated well returns z.

A count's grid depends on Z only through its number of steps, so the search
keeps the coupling-free shape of the well on the grid of its last count, one
memo for both stages since they run one after the other, and a count on that
grid only rescales it.  No semiclassical input enters, the coarse stage only
places the fine bracket, bends its secant root and corrects the fine root by
the grid error the two roots measure, and no threshold seeds another, which
is what makes this module a legitimate oracle for the rest of the package.

The integration window extends beyond the point where the well is cut off:
near a threshold the incoming node sits far out in the e^(+-lambda rho)
region, and counting it requires the window to reach where the growing
exponential dominates by ~1e14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpttrf

from .errors import ConvergenceError, InputError
from .numerics import brent, geometric_bracket
from .potentials import LogWell, Settings, quantum_index

# grid resolution: h = ode_tol^(1/6) * min(_STEP_CAP, _STEP_FACTOR / k_ref).  The
# fine root's grid error scales as h^4, at most _FINE_ERROR * ode_tol^(2/3)
# relative on the criterion-1 grid (measured 0.0137: 2.95e-9 at the 1e-10
# default), and the Richardson extrapolation of the coarse and fine roots
# leaves an h^6 error, below ode_tol / 10 on that grid under Settings(),
# hbar = 0.5 and ode_tol = 1e-8 (6.9e-12, 5.3e-12 and 7.0e-10).  _STEP_FACTOR
# bounds h k_ref, the resolution of the local wavenumber; _STEP_CAP bounds h
# where k_ref is small, for the shallow states whose error is set by the
# shape of the well rather than by k_ref (0.0162 at the default)
_STEP_FACTOR = 1.6
_STEP_CAP = 0.75
_FINE_ERROR = 0.015
# step ratio of a search's coarse counts to its fine ones
_COARSEN = 4
_WINDOW_LOG = 0.5 * math.log(1e14)
_MAX_STEPS = 8_000_000
# grid points per block of the sweep's set-up: its ~5 block-sized arrays
# (128 KB each) stay in L2 cache
_BLOCK = 16384
_TINY = np.finfo(float).tiny
# residual size for counts off the n -> n + 1 step, above any 1 + log A met
_OFF_STEP = 1e6
# most levels lenz_analytic_spectrum returns, ~32 MB as a list of floats
_SPECTRUM_MAX_LEVELS = 1_000_000
# relative width of a fine root: Brent's stopping width, and the bound a
# secant finish meets
_FINE_RTOL = 1e-11
# counts a finish takes before Brent takes over: on the criterion-1 grid a
# fine finish meets its bound after at most one at every ode_tol measured,
# 1e-15 to 1e-7
_SECANT_STEPS = 4
# relative width to which Brent solves the coarse residual before its finish
_COARSE_BRENT_RTOL = 3e-5
# relative span of the three coarse points whose bend a search takes, and
# their least relative gap (_coarse_bracket): at a span of 1e-2 their third
# derivative moved the bend by ~1 % on the criterion-1 grid, and 1e-3 left
# more searches without one; consecutive Brent points at _COARSE_BRENT_RTOL
# lie 1.5e-5 or more apart
_BEND_SPAN = 1e-2
_BEND_GAP = 1e-6


def _count_nonpositive_pivots(d: np.ndarray) -> int:
    """Number of nonpositive pivots of the LDL^T factorization of tridiag(1, d, 1).

    The pivots obey q_k = d_k - 1/q_{k-1}.  With d = [v_1/v_0, p_1, p_2, ...]
    this is the Numerov recurrence v_{k+1} = p_k v_k - v_{k-1} written for the
    ratio q_k = v_{k+1}/v_k (Johnson's renormalized Numerov method), so every
    nonpositive pivot is one sign change of v and the ratio cannot overflow.
    LAPACK dpttrf factors until the first nonpositive pivot; that node is
    counted, the factorization resumes past it, and an exactly zero pivot is
    taken as -tiny so the next one stays finite.  `d` is overwritten with the
    pivots, each nonpositive one as taken (min(q, -tiny)), so their product
    is v_{N-1}/v_0.
    """
    n = d.size
    e = np.ones(n - 1)
    count = 0
    start = 0
    while start < n - 1:
        _, _, info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        count += 1
        start += info
        d[start - 1] = q = min(d[start - 1], -_TINY)
        if start < n:
            d[start] -= 1.0 / q
    # dpttrf needs at least two pivots; check a single trailing one here
    if start == n - 1 and d[start] <= 0.0:
        d[start] = min(d[start], -_TINY)
        count += 1
    return count


@dataclass(frozen=True)
class NodeCount:
    """Node count of the regular zero-energy solution plus integrator stats.

    `pivots` are the ratios v_{k+1}/v_k of the Numerov sweep and `log_scale`
    is log v_0 - lambda (rho_r - rho_l)/hbar; log_amplitude() combines them
    only when asked, so a plain count pays nothing for it.
    """

    count: int
    rho_span: tuple[float, float]
    step_stats: dict
    pivots: np.ndarray = field(repr=False, compare=False)
    log_scale: float = field(repr=False, compare=False)

    def log_amplitude(self) -> float:
        """log(|v_{N-1}| e^(-lambda (rho_r - rho_l)/hbar)), the growing-branch size.

        The solution starts as e^(lambda (rho - rho_l)/hbar) and its end value,
        relative to that free growth, passes through zero exactly where the
        count steps, since that is where the last sign change enters the
        window.  It is a smooth function of the coupling away from there.
        """
        logs = np.abs(self.pivots)
        np.log(logs, out=logs)
        return float(np.add.reduce(logs)) + self.log_scale


def count_bound_states(
    w: LogWell,
    lam: float,
    s: Settings,
    *,
    Z: float | None = None,
    _grid: dict | None = None,
    _coarsen: int = 1,
) -> NodeCount:
    """Count bound states at effective orbital number lambda > 0.

    The well is W = Z * w.base, with maximum (Z / w.Z) * w.V_m; Z defaults
    to w.Z and must be positive and finite.

    Integrates hbar^2 Psi'' = (lambda^2 - W) Psi from the left truncation
    point with the decaying-branch initial data Psi ~ e^(lambda rho / hbar)
    and returns the number of strict sign changes.  The Numerov recurrence is
    run on the ratio of successive values, as the pivots of a tridiagonal
    LDL^T factorization (_count_nonpositive_pivots), so nothing overflows and
    `step_stats["renormalizations"]` is always 0.

    The grid and the recurrence's coefficients are built in blocks of
    _BLOCK points (128 KB, sized for L2 cache), each evaluated and
    transformed in place, so the set-up never streams a full-grid temporary
    and peak memory is ~16 B per step (the pivots plus dpttrf's off-diagonal)
    instead of ~10 full-grid arrays.  This needs w.base to be elementwise;
    every output equals that of one np.linspace grid, bit for bit.

    `_grid` is _search's memo of w.base on the grid of its last count,
    keyed by (rho_l, rho_r, n_steps), which do not depend on Z beyond
    n_steps.  On a hit each block reads the memo's slice of base in
    place of evaluating it, so the count is bit-identical; on a miss base is
    evaluated block by block as without a memo and kept in it (8 B more per
    step).  Direct callers pass none.

    The fine grid has a multiple of _COARSEN steps, so that `_coarsen`, the
    coarse stage's step ratio (a divisor of _COARSEN), picks every
    _coarsen-th of its points: after the budget check the grid keeps
    1/_coarsen of its steps.  The default 1 leaves the grid as it is, so
    direct calls are unchanged; the step taken is in step_stats["h"].

    lambda must be finite; lambda = 0 is rejected: the marginal solution is
    not exponential and node counting is ill conditioned there.
    """
    if not 0.0 < lam < math.inf:
        raise InputError(f"node counting requires finite lambda > 0, got {lam}")
    Z = w.Z if Z is None else Z
    if not 0.0 < Z < math.inf:
        raise InputError(f"coupling must be positive and finite, got {Z}")
    hbar = s.hbar
    rho_l = w.rho_left
    rho_r = max(w.rho_right, w.rho_star + _WINDOW_LOG * hbar / lam)
    # the largest local wavenumber of the well, floored at 1e-2 / hbar
    k_ref = max(math.sqrt(Z / w.Z * w.V_m), lam, 1e-2) / hbar
    h = s.ode_tol ** (1.0 / 6.0) * min(_STEP_CAP, _STEP_FACTOR / k_ref)
    # a whole number of coarse steps, so a coarse grid is every _COARSEN-th point
    n_steps = _COARSEN * int(math.ceil((rho_r - rho_l) / (_COARSEN * h))) + 1
    if n_steps > _MAX_STEPS:
        V_m = Z / w.Z * w.V_m
        capped = _STEP_CAP * k_ref <= _STEP_FACTOR
        raise ConvergenceError(_budget_message(V_m, lam, hbar, rho_r - rho_l, h, n_steps, capped))
    n_steps = (n_steps - 1) // _coarsen + 1
    # the grid is np.linspace(rho_l, rho_r, n_steps), point for point: k * step
    # + rho_l, and rho_r at the end; it is built and swept one block at a time
    step = (rho_r - rho_l) / (n_steps - 1)
    # the grid's second point minus its first
    h = (rho_r if n_steps == 2 else rho_l + step) - rho_l
    # u = h^2 (lambda^2 - Z base) / (12 hbar^2) = alpha + beta base, g = 1 - u;
    # p is formed from u, since g ~ 1 rounded to a double keeps only ~1e-11
    # of u ~ 1e-5 where W ~ 0, which moved the roots by ~4e-12 at random
    c = h * h / 12.0
    alpha = c * (lam * lam) / (hbar * hbar)
    beta = -c * Z / (hbar * hbar)
    key = (rho_l, rho_r, n_steps)
    cached = fill = None
    if _grid is not None:
        cached = _grid.get(key)
        if cached is None:
            _grid.clear()
            fill = np.empty(n_steps)
    d = np.empty(n_steps)
    buffer = np.empty(min(_BLOCK, n_steps))
    for k0 in range(0, n_steps, _BLOCK):
        k1 = min(k0 + _BLOCK, n_steps)
        if cached is not None:
            base = cached[k0:k1]
        else:
            rho = np.arange(k0, k1, dtype=float)
            rho *= step
            rho += rho_l
            if k1 == n_steps:
                rho[-1] = rho_r
            base = w.base(rho)
            if fill is not None:
                fill[k0:k1] = base
        u = buffer[: k1 - k0]
        np.multiply(base, beta, out=u)
        u += alpha
        if k0 == 0:
            g0, g1 = 1.0 - float(u[0]), 1.0 - float(u[1])
        # p_k = (12 - 10 g_k)/g_k = 2 + 12 u_k/(1 - u_k)
        block = d[k0:k1]
        np.subtract(1.0, u, out=block)
        np.divide(u, block, out=block)
        block *= 12.0
        block += 2.0
    if fill is not None:
        _grid[key] = fill
    # d = [v_1/v_0, p_1, ..., p_{N-2}] with v = g u, u_0 = 1
    d = d[:-1]
    d[0] = g1 * math.exp(lam * h / hbar) / g0
    return NodeCount(
        count=_count_nonpositive_pivots(d),
        rho_span=(rho_l, rho_r),
        step_stats={"n_steps": n_steps, "h": h, "renormalizations": 0},
        pivots=d,
        log_scale=math.log(g0) - lam * (rho_r - rho_l) / hbar,
    )


def _budget_message(
    V_m: float, lam: float, hbar: float, span: float, h: float, n_steps: int, capped: bool
) -> str:
    """Why a count's grid is too long: its window span, its step and what set the step.

    `capped` says the step is the cap _STEP_CAP ode_tol^(1/6), not set by k_ref.
    """
    root = math.sqrt(V_m)
    k_ref = "k_ref = max(sqrt(V_m), lambda)/hbar"
    marginal = (
        f"lambda is too close to the marginal case: the window reaches "
        f"{_WINDOW_LOG:.4g} hbar/lambda past the maximum"
    )
    if capped:
        cause, hint = f"the step cap {_STEP_CAP:g} ode_tol^(1/6)", marginal
    elif root >= max(lam, 1e-2):
        cause, hint = f"sqrt(V_m) in {k_ref}", "the well is too deep for the grid"
    elif lam >= 1e-2:
        cause, hint = f"lambda in {k_ref}", "lambda is too large for the grid"
    else:
        cause, hint = f"the floor 1e-2 of {k_ref}", "hbar is too small for the grid"
    return (
        f"node counting grid of {n_steps} points exceeds the budget of {_MAX_STEPS}: "
        f"the window spans {span:.6g} in rho at step {h:.4g}, set by {cause} "
        f"(sqrt(V_m) = {root:.6g}, lambda = {lam:.6g}, hbar = {hbar:g}); {hint}"
    )


def _step_residual(count: int, log_amplitude: Callable[[], float], n: int) -> float:
    """Continuous residual of the n -> n + 1 count step, negative before it.

    The sign comes from the count: - for n, + for n + 1, and a residual of
    size _OFF_STEP for counts beyond those two.  On the step the size is the
    growing-branch amplitude A = exp(log_amplitude()), compressed to A below
    1 and 1 + log A above.  A vanishes where the count steps, so the residual
    crosses zero there and is smooth on either side; its sign is nondecreasing
    in the coupling everywhere, even where its size is not monotone.
    """
    if count < n:
        return -_OFF_STEP
    if count > n + 1:
        return _OFF_STEP
    x = log_amplitude()
    size = math.exp(x) if x < 0.0 else 1.0 + x
    return size if count == n + 1 else -size


def _bend(points: list[tuple[float, float]]) -> float | None:
    """f[x_0, x_1, x_2] / f[x_1, x_2] of the last three points (x, f(x)), None below three.

    The curvature of f relative to its slope, in 1/x: it does not change when
    f is scaled, so the bend of one residual serves another of the same shape.
    """
    if len(points) < 3:
        return None
    (x0, f0), (x1, f1), (x2, f2) = points[-3:]
    slope = (f2 - f1) / (x2 - x1)
    return (slope - (f1 - f0) / (x1 - x0)) / (x2 - x0) / slope


def _coarse_bracket(
    points: list[tuple[float, float, int]],
) -> tuple[float, float, float, float, float | None]:
    """(lo, hi, f(lo), f(hi), bend) of a coarse stage's points (Z, f(Z), grid steps).

    lo and hi are the tightest points of negative and positive residual.  The
    bend (_bend) is that of the three points nearest them, lo and hi first,
    that lie on their grid within _BEND_SPAN Z of them, each _BEND_GAP Z or
    more from the others, with residuals below 1 in size, where they are the
    plain amplitude.  A grid of another length shifts the residual by the
    change of its grid error (on a 400-sample tabulated well a bend across
    grids 1e-3 apart came out six times too large), the compression above 1
    changes its shape, a far point measures the third derivative too (at
    ode_tol = 1e-8 one 0.5 apart gave a bend 28 % off), and two close ones
    their rounding (7e-9 apart, a bend of the wrong sign).  It is None where
    fewer than three such points were counted.
    """
    lo, flo, lo_steps = max((p for p in points if p[1] < 0.0), default=(-math.inf, -_OFF_STEP, 0))
    hi, fhi, hi_steps = min((p for p in points if p[1] > 0.0), default=(math.inf, _OFF_STEP, 0))
    if lo_steps != hi_steps or max(-flo, fhi) >= 1.0:
        return lo, hi, flo, fhi, None
    near: list[tuple[float, float]] = []
    # twice a point's distance from [lo, hi] plus its width, lo then hi first
    for span, x, fx in sorted(
        (abs(x - lo) + abs(x - hi), x, fx)
        for x, fx, steps in points
        if steps == lo_steps and abs(fx) < 1.0
    ):
        if span > _BEND_SPAN * hi or len(near) == 3:
            break
        if all(abs(x - y) >= _BEND_GAP * hi for y, _ in near):
            near.append((x, fx))
    return lo, hi, flo, fhi, _bend(near[::-1])


def _secant_finish(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    *,
    rtol: float,
    bend: float | None = None,
) -> float:
    """Root of a step residual f on its sign-change bracket, to rtol, by corrected secant steps.

    On the step the residual is the signed growing-branch amplitude, smooth
    and nearly linear in the coupling.  The secant root s of the bracket
    [lo, hi] is off the root r by the remainder of linear interpolation,

        r - s = -f[lo, hi, r] (r - lo) (r - hi) / f[lo, hi],

    so with the bend b ~ f[lo, hi, r] / f[lo, hi] the corrected root
    s - b (s - lo) (s - hi) is returned as soon as

        |b| (s - lo) (hi - s) <= rtol s,

    that is once the correction, and with it the error of s, is below the
    width at which Brent would stop; the clamp to [lo, hi] keeps it inside
    the bracket.  `bend` is a bend known before the finish, from other points
    of a residual of the same shape (the coarse stage's for the fine one);
    without it, or where the bound fails, the finish counts at s and keeps s
    in place of the end of its sign (regula falsi), so the ends stay the
    tightest points counted n and n + 1, and takes the bend of its last three
    points (_bend).  An s that rounds to an end is returned as it is.  Brent
    takes over a bracket with an end off the step, where the residual is the
    constant _OFF_STEP, and a finish that has not met the bound in
    _SECANT_STEPS counts.
    """
    if max(-flo, fhi) < _OFF_STEP:
        points = [(lo, flo), (hi, fhi)]
        for _ in range(_SECANT_STEPS):
            s = lo - flo * (hi - lo) / (fhi - flo)
            if not lo < s < hi:
                return s
            if len(points) > 2:
                bend = _bend(points)
            if bend is not None and abs(bend) * (s - lo) * (hi - s) <= rtol * s:
                return min(max(s - bend * (s - lo) * (s - hi), lo), hi)
            fs = f(s)
            if fs == 0.0:
                return s
            if fs < 0.0:
                lo, flo = s, fs
            else:
                hi, fhi = s, fs
            points.append((s, fs))
    return brent(f, lo, hi, flo, fhi, xtol=0.0, rtol=rtol)


def _search(w: LogWell, lam: float, n: int, s: Settings) -> tuple[float, float, float, float]:
    """(z_c, z, below, above): the coarse and fine roots of the n -> n + 1 step, certified.

    Both roots are those of the continuous residual _step_residual, whose
    sign the count sets, so every bracket stays a sign-change bracket.  The
    coarse residual counts with count_bound_states' `_coarsen` and keeps its
    points on the well.  Brent solves it to _COARSE_BRENT_RTOL, and
    _secant_finish ends it at z_c to min(1e-9, 10 ode_tol), since its error
    enters the Richardson value divided by _COARSEN^4 - 1, on the tightest
    bracket of the points this search asked for, with their bend
    (_coarse_bracket).  The fine stage expands its bracket from z_c by the
    ratio 1 + 2 _COARSEN^4 _FINE_ERROR ode_tol^(2/3) and ends at z, the
    corrected secant root of that bracket to _FINE_RTOL, with the coarse
    bend: the two residuals are one smooth function of Z shifted by the grid
    error, so their bends agree.  Only where that bend does not meet the
    bound does it count a third time.

    below and above are the tightest couplings the fine stage counted at
    exactly n and at exactly n + 1.  Counts do not decrease as Z rises
    (W = Z base with base > 0), so exactly one n -> n + 1 step lies between
    them, and z must lie between them too: that certifies it, with no count
    beyond the search's own, and ConvergenceError is raised where it does
    not.  It does not show that no other step lies near z: the steps of
    other n at the same lambda are other thresholds of the well, not a
    property of this one.
    """
    grid: dict = {}
    # this search's coarse points (Z, residual, grid steps) in the order it
    # asked for them, memo hits too, so its finish and bend depend on none of
    # the well's other searches
    asked: list[tuple[float, float, int]] = []

    def coarse(Z: float) -> float:
        key = ("coarse_count", lam, s, Z)
        if key not in w._memo:
            nc = count_bound_states(w, lam, s, Z=Z, _grid=grid, _coarsen=_COARSEN)
            w._memo[key] = nc.count, nc.log_amplitude(), nc.step_stats["n_steps"]
        count, x, steps = w._memo[key]
        asked.append((Z, _step_residual(count, lambda: x, n), steps))
        return asked[-1][1]

    below, above = -math.inf, math.inf

    def fine(Z: float) -> float:
        nonlocal below, above
        nc = count_bound_states(w, lam, s, Z=Z, _grid=grid)
        if nc.count == n:
            below = max(below, Z)
        elif nc.count == n + 1:
            above = min(above, Z)
        return _step_residual(nc.count, nc.log_amplitude, n)

    brent(coarse, *geometric_bracket(coarse), xtol=0.0, rtol=_COARSE_BRENT_RTOL)
    lo, hi, flo, fhi, bend = _coarse_bracket(asked)
    z_c = _secant_finish(coarse, lo, hi, flo, fhi, rtol=min(1e-9, 10.0 * s.ode_tol), bend=bend)
    # the coarse bend again, of the finish's own counts where it took any
    bend = _coarse_bracket(asked)[-1]
    ratio = 1.0 + 2.0 * _COARSEN**4 * _FINE_ERROR * s.ode_tol ** (2.0 / 3.0)
    z = _secant_finish(fine, *geometric_bracket(fine, z_c, ratio), rtol=_FINE_RTOL, bend=bend)
    if not -math.inf < below <= z <= above < math.inf:
        raise ConvergenceError(
            f"transition {n} -> {n + 1} not clean around Z = {z:g}; "
            "the state may be marginal at this lambda"
        )
    return z_c, z, below, above


def exact_critical_coupling(w: LogWell, lam: float, n: int, s: Settings) -> float:
    """Coupling Z at which the node count of w at coupling Z steps from n to n + 1.

    _search finds the coarse root z_c and the certified fine root z, or
    raises ConvergenceError.  On a smooth well the Richardson value z_R of
    the module docstring is returned: it lies |z - z_c| / (_COARSEN^4 - 1)
    from z, the fine root's estimated grid error.  A Tabulated W is only C^1,
    and there z_R was no better than z, so z itself is returned.
    """
    z_c, z, _, _ = _search(w, lam, quantum_index(n, "radial quantum number n"), s)
    if w.breakpoints is not None:
        return z
    return (_COARSEN**4 * z - z_c) / (_COARSEN**4 - 1)


def lenz_analytic_spectrum(a: float, Z: float, hbar: float = 1.0) -> list[float]:
    """Exact zero-energy spectrum of the sech^2-type well of depth Z/2.

    The well (Z/2) sech^2(a rho) holds states at lambda_n = a hbar (sigma - n)
    with sigma (sigma + 1) = Z / (2 a^2 hbar^2); all positive members are
    returned in descending order.  The n = 0 entry exists for every Z > 0.
    A well of more than _SPECTRUM_MAX_LEVELS levels (sigma beyond it, about
    Z > 2e12 a^2 hbar^2) raises InputError before the list is built.
    """
    for name, value in (("a", a), ("Z", Z), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise InputError(f"analytic spectrum needs positive finite {name}, got {value}")
    scale = a * a * hbar * hbar
    sigma = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / scale)) if scale > 0.0 else math.inf
    if not math.isfinite(sigma):
        raise InputError(f"analytic spectrum of a = {a}, Z = {Z}, hbar = {hbar} overflows")
    # lambda_n > 0 exactly for the integers n < sigma
    if math.ceil(sigma) > _SPECTRUM_MAX_LEVELS:
        raise InputError(
            f"analytic spectrum of a = {a}, Z = {Z}, hbar = {hbar} has {math.ceil(sigma)} "
            f"levels, more than the {_SPECTRUM_MAX_LEVELS} it returns at most"
        )
    return [a * hbar * (sigma - n) for n in range(math.ceil(sigma))]
