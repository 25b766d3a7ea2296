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
the count steps; Brent's method on a residual built from that amplitude, with
its sign taken from the count, locates every critical coupling, and the
integer count certifies it.  The bracket of every search doubles from
Z = 1, and the counts at those points are kept on the well per lambda, so
the other thresholds of the well reuse them.  A count's grid depends on Z
only through its number of steps, so each search keeps the coupling-free
shape of the well on the grid of its last count, and a count on that grid
only rescales it.  No semiclassical input enters,
and no threshold seeds another, which is what makes this module a
legitimate oracle for the rest of the package.

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

# grid resolution: h = _STEP_FACTOR * ode_tol^(1/4) / k_max; the grid error of
# the fourth-order recurrence scales as h^4 and moves a critical coupling by
# up to about 15 ode_tol relative (1.5e-9 at the 1e-10 default, hk ~ 0.02),
# well above the 1e-10 width the root-find stops at
_STEP_FACTOR = 6.6
_WINDOW_LOG = 0.5 * math.log(1e14)
_MAX_STEPS = 8_000_000
# grid points per block of the sweep's set-up: its ~5 block-sized arrays
# (128 KB each) stay in L2 cache
_BLOCK = 16384
_TINY = np.finfo(float).tiny
# residual size for counts off the n -> n + 1 step, above any 1 + log A met
_OFF_STEP = 1e6


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
        return float(np.sum(np.log(np.abs(self.pivots)))) + self.log_scale


def count_bound_states(
    w: LogWell, lam: float, s: Settings, *, Z: float | None = None, _grid: dict | None = None
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

    `_grid` is exact_critical_coupling's memo of w.base on the grid of its
    last count, keyed by (rho_l, rho_r, n_steps), which do not depend on Z
    beyond n_steps.  On a hit each block's W is Z times the memo's slice,
    the arithmetic of LogWell.profile, so the count is bit-identical; on a
    miss base is evaluated block by block as without a memo and kept in it
    (8 B more per step).  Direct callers pass none.

    lambda must be finite; lambda = 0 is rejected: the marginal solution is
    not exponential and node counting is ill conditioned there.
    """
    if not 0.0 < lam < math.inf:
        raise InputError(f"node counting requires finite lambda > 0, got {lam}")
    Z = w.Z if Z is None else Z
    if not 0.0 < Z < math.inf:
        raise InputError(f"coupling must be positive and finite, got {Z}")
    V_m = Z / w.Z * w.V_m
    hbar = s.hbar
    rho_l = w.rho_left
    rho_r = max(w.rho_right, w.rho_star + _WINDOW_LOG * hbar / lam)
    k_ref = max(math.sqrt(V_m), lam, 1e-2) / hbar
    h = min(0.02, _STEP_FACTOR * s.ode_tol**0.25 / k_ref)
    n_steps = int(math.ceil((rho_r - rho_l) / h)) + 1
    if n_steps > _MAX_STEPS:
        raise ConvergenceError(_budget_message(V_m, lam, hbar, rho_r - rho_l, h, n_steps))
    # the grid is np.linspace(rho_l, rho_r, n_steps), point for point: k * step
    # + rho_l, and rho_r at the end; it is built and swept one block at a time
    step = (rho_r - rho_l) / (n_steps - 1)
    # the grid's second point minus its first
    h = (rho_r if n_steps == 2 else rho_l + step) - rho_l
    c = h * h / 12.0
    key = (rho_l, rho_r, n_steps)
    cached = fill = None
    if _grid is not None:
        cached = _grid.get(key)
        if cached is None:
            _grid.clear()
            fill = np.empty(n_steps)
    d = np.empty(n_steps)
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
        # g = 1 - c f with f = (lambda^2 - W)/hbar^2, in place on W = Z * base
        g = np.asarray(Z * base, dtype=float)
        np.subtract(lam * lam, g, out=g)
        g /= hbar * hbar
        g *= c
        np.subtract(1.0, g, out=g)
        if k0 == 0:
            g0, g1 = float(g[0]), float(g[1])
        # p_k = (12 - 10 g_k)/g_k, in place
        block = d[k0:k1]
        np.multiply(10.0, g, out=block)
        np.subtract(12.0, block, out=block)
        block /= g
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
    V_m: float, lam: float, hbar: float, span: float, h: float, n_steps: int
) -> str:
    """Why a count's grid is too long: its window span, its step and what set the step."""
    root = math.sqrt(V_m)
    k_ref = "k_ref = max(sqrt(V_m), lambda)/hbar"
    marginal = (
        f"lambda is too close to the marginal case: the window reaches "
        f"{_WINDOW_LOG:.4g} hbar/lambda past the maximum"
    )
    if h == 0.02:
        cause, hint = "the step cap 0.02", marginal
    elif root >= max(lam, 1e-2):
        cause, hint = f"sqrt(V_m) in {k_ref}", "the well is too deep for the grid"
    elif lam >= 1e-2:
        cause, hint = f"lambda in {k_ref}", "lambda is too large for the grid"
    else:
        cause, hint = f"the floor 1e-2 of {k_ref}", marginal
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


def exact_critical_coupling(w: LogWell, lam: float, n: int, s: Settings) -> float:
    """Coupling Z at which the node count of w at coupling Z steps from n to n + 1.

    The root is that of the continuous residual _step_residual, whose sign
    the count sets, so Brent's bracket stays valid.  The bracket is expanded
    geometrically from Z = 1 (geometric_bracket) and solved to a relative
    width of 1e-10; the integer count then certifies the transition on both
    sides of the returned value.

    The count and amplitude of every bracket point (Z = 2^k) are kept in the
    well's memo per lambda and Settings, so the other thresholds of that well and
    lambda rebuild those residuals without counting again.  They are the
    same floats, so every threshold is the same in any call order; the
    Brent points and the certification are counted afresh.

    The search keeps one grid memo for its own length, passed to every
    count: w.base on the grid of the last count, keyed by (rho_l, rho_r,
    n_steps).  Counts at nearby couplings mostly share a grid, and they then
    skip evaluating the well; every count is bit-identical to one without
    the memo.  The memo is not kept on the well, so nothing stays held
    after the search and no threshold depends on the order of the calls.
    """
    n = quantum_index(n, "radial quantum number n")
    grid: dict = {}

    def count(Z: float) -> NodeCount:
        return count_bound_states(w, lam, s, Z=Z, _grid=grid)

    def residual(Z: float) -> float:
        nc = count(Z)
        return _step_residual(nc.count, nc.log_amplitude, n)

    def bracket_residual(Z: float) -> float:
        key = ("bracket_count", lam, s, Z)
        if key not in w._memo:
            nc = count(Z)
            w._memo[key] = nc.count, nc.log_amplitude()
        c, x = w._memo[key]
        return _step_residual(c, lambda: x, n)

    z = brent(residual, *geometric_bracket(bracket_residual), xtol=0.0, rtol=1e-10)
    if count(z * (1.0 - 1e-7)).count != n or count(z * (1.0 + 1e-7)).count != n + 1:
        raise ConvergenceError(
            f"transition {n} -> {n + 1} not clean around Z = {z:g}; "
            "the state may be marginal at this lambda"
        )
    return z


def lenz_analytic_spectrum(a: float, Z: float, hbar: float = 1.0) -> list[float]:
    """Exact zero-energy spectrum of the sech^2-type well of depth Z/2.

    The well (Z/2) sech^2(a rho) holds states at lambda_n = a hbar (sigma - n)
    with sigma (sigma + 1) = Z / (2 a^2 hbar^2); all positive members are
    returned in descending order.  The n = 0 entry exists for every Z > 0.
    """
    for name, value in (("a", a), ("Z", Z), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise InputError(f"analytic spectrum needs positive finite {name}, got {value}")
    scale = a * a * hbar * hbar
    sigma = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / scale)) if scale > 0.0 else math.inf
    if not math.isfinite(sigma):
        raise InputError(f"analytic spectrum of a = {a}, Z = {Z}, hbar = {hbar} overflows")
    # lambda_n > 0 exactly for the integers n < sigma
    return [a * hbar * (sigma - n) for n in range(math.ceil(sigma))]
