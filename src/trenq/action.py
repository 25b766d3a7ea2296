"""Turning points, the action integral I(lambda) and derived quantities.

The central object is the semiclassical action

    I(lambda) = (1 / pi hbar) * integral sqrt(W(rho) - lambda^2) d rho

taken between the turning points W = lambda^2.  Its value at lambda = 0 is
the total well action Phi_m, and the deficit t(lambda) = I(0) - I(lambda)
is the ingredient of the effective quantum number.  For wells with linear
coupling the deficit is close to linear in lambda; the best linear slope phi
is obtained here by a closed-form least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateWellError, InputError, PotentialConditionError
from .numerics import (
    KnotTable,
    Pchip,
    adaptive_gauss,
    false_position,
    false_position_elementwise,
    gauss_nodes,
)
from .potentials import LogWell, Settings, quantum_index

# relative slack for "lambda^2 equals V_m" and domain-floor comparisons
_EDGE_RTOL = 1e-14
# cells of the turning-point scan on each side of rho_star
_SCAN_CELLS = 128

_Weight = Callable[[np.ndarray], np.ndarray] | None


@dataclass(frozen=True)
class TurningPair:
    """Boundaries of the classically allowed region W > lambda^2."""

    rho1: float
    rho2: float
    degenerate: bool = False


def turning_points(w: LogWell, lambda2: float) -> TurningPair:
    """Locate the pair of solutions of W(rho) = lambda2 around the maximum.

    For lambda2 = 0 (or below the domain-cut floor) the truncated domain ends
    are returned; for lambda2 = V_m the pair degenerates to the maximum.  On
    a well with several humps, lambda2 below its split_level raises
    PotentialConditionError.  Each root starts from its cell of the well's
    scan (_scan_cells) and is refined by numerics.false_position to a
    bracket of 1e-15 relative width (_turning_pairs).
    """
    return _turning_pairs(w, np.array([lambda2]))[0]


def _turning_scan(w: LogWell) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, W at them, index of rho_star among the points).

    _SCAN_CELLS + 1 points on each side of rho_star run from rho_left over
    rho_star to rho_right, all three included, and cluster quadratically
    towards rho_star, where W is flat.  A piecewise well's breakpoints inside
    the domain join them, so each root is refined on one smooth piece (a cell
    across the knot at the end of a flat top took up to 28 calls a pair).
    W is evaluated once, vectorized, on the first search and kept in the memo.
    """
    scan = w._memo.get("turning_scan")
    if scan is None:
        u = np.linspace(0.0, 1.0, _SCAN_CELLS + 1) ** 2
        x = np.concatenate(
            (
                (w.rho_star + (w.rho_left - w.rho_star) * u)[::-1],
                (w.rho_star + (w.rho_right - w.rho_star) * u)[1:],
            )
        )
        x[0], x[-1] = w.rho_left, w.rho_right
        c = _SCAN_CELLS
        if w.breakpoints is not None:
            b = w.breakpoints
            x = np.union1d(x, b[(b > w.rho_left) & (b < w.rho_right)])
            c = int(np.searchsorted(x, w.rho_star))
        scan = w._memo["turning_scan"] = x, np.asarray(w.profile(x), dtype=float), c
    return scan


def _knot_table(w: LogWell) -> KnotTable:
    """The composite knot rule on every segment between the well's breakpoints, with W there.

    Built on the first knot integral of the well and kept in its memo, so W
    is sampled on the knot rule once per well, not once per level, and never
    for a well that only counts nodes.  The table's W is w.profile's
    Z * base without a reference to w: through w.profile the memo would hold
    a cycle, which keeps the table's 0.5 MB arrays until the cyclic garbage
    collector runs (the peak RSS of a predict_batch run rose from 64 to 75 MB).
    """
    table = w._memo.get("knot_table")
    if table is None:
        Z, base = w.Z, w.base
        table = w._memo["knot_table"] = KnotTable(w.breakpoints, lambda rho: Z * base(rho))
    return table


def _scan_cells(vals: np.ndarray, c: int, lambda2: np.ndarray) -> np.ndarray:
    """Scan cells holding the turning points of each level lambda2[m].

    Row m is (i, j): the cells [x[i], x[i + 1]] and [x[j], x[j + 1]] of the
    scan points x, of which x[c] is rho_star.  The left cell starts at the
    last point before rho_star with W <= lambda2, the right one ends at the
    first point after it, so on a well with several humps, at a level above
    its split_level, they hold the pair around rho_star.  Every level must
    lie above the domain-cut floor and below W(rho_star).
    """
    below = vals <= lambda2[:, None]
    # filled in place by ndarray.argmax: np.stack and np.argmax took twice as long for one level
    cells = np.empty((lambda2.size, 2), dtype=np.intp)
    cells[:, 0] = c - 1 - below[:, c - 1 :: -1].argmax(axis=1)
    cells[:, 1] = c + below[:, c + 1 :].argmax(axis=1)
    return cells


def _edge_pair(w: LogWell, lambda2: float, floor: float) -> TurningPair | None:
    """The pair at the domain cut or at the maximum; None for a true turning pair.

    floor is the domain-cut floor, the higher of W at the two cuts.  Raises
    InputError unless 0 <= lambda2 <= V_m (nan fails both tests), and
    PotentialConditionError when lambda2 lies above the domain-cut floor but
    below the well's split_level, where the allowed set may be disconnected
    and one turning pair around the maximum would miss part of it.
    """
    if not lambda2 >= 0.0:
        raise InputError(f"lambda^2 must be nonnegative, got {lambda2}")
    if not lambda2 <= w.V_m * (1.0 + _EDGE_RTOL):
        raise InputError(
            f"lambda^2 = {lambda2:g} exceeds the well maximum {w.V_m:g}: "
            "no classically allowed region"
        )
    if lambda2 >= w.V_m * (1.0 - _EDGE_RTOL):
        return TurningPair(w.rho_star, w.rho_star, degenerate=True)
    if lambda2 <= floor:
        return TurningPair(w.rho_left, w.rho_right)
    if w.split_level is not None and lambda2 < w.split_level:
        raise PotentialConditionError(
            f"lambda^2 = {lambda2:g} lies below {w.split_level:g}, the top of a second hump "
            "of the well: the classically allowed region splits there"
        )
    return None


def _turning_pairs(w: LogWell, lambda2: np.ndarray) -> list[TurningPair]:
    """The turning pair of every level lambda2[m], as turning_points describes it.

    One scan of the well, one edge test per level (_edge_pair) and one cell
    choice for all levels with true turning points (_scan_cells).  A lone
    such level is refined by numerics.false_position on Python floats, several
    by numerics.false_position_elementwise, which takes the same steps from
    the same cells, so every root is the same either way, bit for bit.  On
    Lenz(1, 50) the scalar search takes a fifth of the time of a batch of
    one, and a batch of 64 levels a seventh of the time of 64 scalar
    searches (Python 3.11 on a 2-core Xeon); solve_spectrum asks for one
    level per root-finding step, an action profile for 64.
    """
    x, vals, c = _turning_scan(w)
    floor = max(vals[0], vals[-1])
    pairs = [_edge_pair(w, v, floor) for v in lambda2.tolist()]
    interior = [i for i, pair in enumerate(pairs) if pair is None]
    k = len(interior)
    if k == 0:
        return pairs
    levels = lambda2 if k == lambda2.size else lambda2[interior]
    # the left then the right cell of each level in turn
    cells = _scan_cells(vals, c, levels).ravel()
    if k == 1:
        level = float(levels[0])

        def f(rho: float) -> float:
            return float(w.profile(rho)) - level

        roots = []
        for i in cells.tolist():
            flo, fhi = float(vals[i]) - level, float(vals[i + 1]) - level
            roots.append(false_position(f, float(x[i]), float(x[i + 1]), flo, fhi))
    else:
        targets = levels.repeat(2)

        def f_batch(rho: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return np.asarray(w.profile(rho), dtype=float) - targets[idx]

        roots = false_position_elementwise(
            f_batch, x[cells], x[cells + 1], vals[cells] - targets, vals[cells + 1] - targets
        ).tolist()
    for i, rho1, rho2 in zip(interior, roots[::2], roots[1::2]):
        pairs[i] = TurningPair(rho1, rho2)
    return pairs


def _exponential_tail(w_end: float, lambda2: float, rate: float) -> float:
    """Closed-form integral of sqrt(W - lambda^2) over an exponential tail.

    Assumes W = w_end * exp(-rate * x) for x >= 0, valid once the domain cut
    is reached; exact on the power-law end pieces of a tabulated well and
    accurate to a relative DOMAIN_CUT for the analytic families.
    """
    if w_end <= lambda2:
        return 0.0
    v = math.sqrt(w_end - lambda2)
    if lambda2 <= 0.0:
        return 2.0 * v / rate
    lam = math.sqrt(lambda2)
    return (2.0 / rate) * (v - lam * math.atan2(v, lam))


def _raised(gap: np.ndarray, rho: np.ndarray, weight: _Weight) -> np.ndarray:
    """sqrt(gap) for weight None, else weight(rho) / sqrt(gap) (0 where gap is 0)."""
    if weight is None:
        return np.sqrt(gap)
    positive = gap > 0.0
    return np.where(positive, weight(rho) / np.sqrt(np.where(positive, gap, 1.0)), 0.0)


def _turning_point_integrals(
    w: LogWell,
    lambda2: np.ndarray,
    weight: _Weight,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of sqrt(W - lambda2[i]) (weight None) or of
    weight(rho) / sqrt(W - lambda2[i]) between the turning points of lambda2[i].

    The turning pairs of all levels come from one search (_turning_pairs).
    A degenerate pair gives 0.  Piecewise profiles use the knot-aligned
    composite rule, pair by pair, on the well's knot table: only the two
    end segments of each pair are sampled anew.  All pairs of a smooth
    profile, at the domain cut or at true turning points, share one batched
    adaptive quadrature under rho = mid + half*sin(theta), where each gets
    the value it would get alone.  d rho = half*cos(theta) d theta vanishes
    like sqrt(W - lambda^2) at simple turning points: it cancels the
    inverse square root of the weight form and turns the square-root ends
    of the plain form into smooth ones, so the integrand needs no
    derivative of W.  The adaptive rules stop at an error estimate of
    max(tol, rtol * |value|).  Where the domain was cut, not bounded by
    turning points, the plain form adds the exponential tails beyond the
    cuts.  Returns (values, error estimates).
    """
    pairs = _turning_pairs(w, lambda2)
    values = np.zeros(len(pairs))
    errors = np.zeros(len(pairs))
    smooth = []
    for i, pair in enumerate(pairs):
        if pair.degenerate:
            continue  # an empty interval
        if w.breakpoints is None:
            smooth.append(i)
            continue
        level = float(lambda2[i])

        def raised(rho: np.ndarray, w_rho: np.ndarray) -> np.ndarray:
            return _raised(np.maximum(w_rho - level, 0.0), rho, weight)

        at_cut = pair.rho1 == w.rho_left and pair.rho2 == w.rho_right
        values[i], errors[i] = _knot_table(w).integral(
            raised, pair.rho1, pair.rho2, sqrt_ends=not at_cut
        )
    if smooth:
        rho1, rho2 = np.array([[pairs[i].rho1 for i in smooth], [pairs[i].rho2 for i in smooth]])
        params = np.array((0.5 * (rho1 + rho2), 0.5 * (rho2 - rho1), lambda2[smooth]))

        def f_theta(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
            mid, half, lam2 = params[:, rows, None]
            rho = mid + half * np.sin(theta)
            gap = np.maximum(np.asarray(w.profile(rho), dtype=float) - lam2, 0.0)
            return _raised(gap, rho, weight) * half * np.cos(theta)

        values[smooth], errors[smooth] = adaptive_gauss(
            f_theta, len(smooth), -0.5 * math.pi, 0.5 * math.pi, tol,
            rtol=rtol, best_effort=best_effort,
        )
    if weight is None:
        for i, pair in enumerate(pairs):
            if pair.rho1 == w.rho_left and pair.rho2 == w.rho_right:
                for end, rate in ((w.rho_left, w.decay_left), (w.rho_right, w.decay_right)):
                    values[i] += _exponential_tail(float(w.profile(end)), lambda2[i], rate)
    return values, errors


def _zero_action(w: LogWell, s: Settings) -> tuple[float, float]:
    """(I(0), error estimate), computed once per well and Settings."""
    key = ("zero_action", s)
    if key not in w._memo:
        values, errors = _actions(w, np.zeros(1), s)
        w._memo[key] = float(values[0]), float(errors[0])
    return w._memo[key]


def _actions(
    w: LogWell, lambda2: np.ndarray, s: Settings, *, best_effort: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(I, error) at each lambda2[i]; best_effort as in adaptive_gauss."""
    scale = math.pi * s.hbar
    values, errors = _turning_point_integrals(
        w, lambda2, None, s.quad_tol * scale, rtol=s.quad_tol, best_effort=best_effort
    )
    return values / scale, errors / scale


def action(w: LogWell, lam: float, s: Settings) -> float:
    """Semiclassical action I(lambda) between the turning points.

    Endpoint square-root singularities are removed by the sine substitution
    before quadrature; on a smooth well the absolute error is kept below
    quad_tol * max(1, result).  A tabulated well takes the fixed 16/32-node
    knot rule, not held to that goal: under the printed transform it misses
    it up to 290-fold where a turning point lies next to a knot.  At
    lambda = 0 the integral runs over the truncated domain and exact
    exponential-tail corrections are added; that value is computed once per
    well and Settings and then reused.  Raises PotentialConditionError where
    turning_points does: for lambda^2 below the split_level of a well with
    several humps.
    """
    if not lam >= 0.0:
        raise InputError(f"lambda must be nonnegative, got {lam}")
    if lam == 0.0:
        return _zero_action(w, s)[0]
    return float(_actions(w, np.array([lam * lam]), s)[0][0])


@dataclass(frozen=True)
class ActionProfile:
    """Sampled action I(lambda) on [0, sqrt(V_m)] with its interpolant.

    The grid is Chebyshev-spaced to cluster points near the endpoints.
    Phi_m is the total well action I(0); t(lambda) = Phi_m - I(lambda).
    """

    lambda_grid: np.ndarray
    I_values: np.ndarray
    Phi_m: float
    quad_error: np.ndarray
    _interp: Pchip = field(repr=False, compare=False)

    @property
    def lambda_max(self) -> float:
        return float(self.lambda_grid[-1])


def action_profile(w: LogWell, s: Settings, n_points: int = 65) -> ActionProfile:
    """Sample I(lambda) on a Chebyshev grid over [0, sqrt(V_m)].

    The turning points of all samples come from one batched root search,
    and on a smooth profile all levels with true turning points are then
    integrated in one batched adaptive quadrature; every sample equals the
    scalar action at its lambda, bit for bit.
    """
    if quantum_index(n_points, "n_points") < 5:
        raise InputError("profile needs at least 5 points")
    top = math.sqrt(w.V_m)
    k = np.arange(n_points)
    grid = 0.5 * top * (1.0 - np.cos(math.pi * k / (n_points - 1)))
    grid[0] = 0.0
    grid[-1] = top
    lambda2 = grid * grid
    values = np.empty(n_points)
    errors = np.empty(n_points)
    values[0], errors[0] = _zero_action(w, s)
    values[1:], errors[1:] = _actions(w, lambda2[1:], s)
    return ActionProfile(
        lambda_grid=grid,
        I_values=values,
        Phi_m=float(values[0]),
        quad_error=errors,
        # Pchip's default flat end pieces: I depends on lambda^2, and is 0
        # beyond sqrt(V_m)
        _interp=Pchip(grid, values),
    )


def t_of(profile: ActionProfile, lam: float) -> float:
    """Action deficit t(lambda) = I(0) - I(lambda), interpolated off-grid.

    t(0) = 0 exactly and t is nondecreasing up to lambda = sqrt(V_m), where
    it equals Phi_m.  lambda may exceed sqrt(V_m) by 1e-12 relative, where
    the interpolant's flat end piece holds I at its value at sqrt(V_m).
    """
    top = profile.lambda_max
    if not 0.0 <= lam <= top * (1.0 + 1e-12):
        raise InputError(f"lambda = {lam:g} outside the sampled range [0, {top:g}]")
    return max(profile.Phi_m - float(profile._interp(lam)), 0.0)


def fit_phi(profile: ActionProfile) -> float:
    """Least-squares slope of the linear model t(lambda) ~ phi * lambda.

    Minimizing the mean-square deviation of I(0) - phi*lambda from I(lambda)
    over lambda in [0, sqrt(V_m)] gives the stationary point in closed form:

        phi = integral(lambda * t(lambda)) / integral(lambda^2)

    Both integrals use a fixed 64-node Gauss-Legendre rule, whose nodes all
    lie inside (0, sqrt(V_m)), on the cubic pieces of the interpolant;
    InputError where its cubic term overflows (V_m above about 3e205).
    """
    top = profile.lambda_max
    if top <= 0.0:
        raise DegenerateWellError("action profile spans an empty lambda range")
    x, wts = gauss_nodes(64)
    lam = 0.5 * top * (x + 1.0)
    # t_of on every node at once
    with np.errstate(over="ignore", invalid="ignore"):
        t_vals = np.maximum(profile.Phi_m - profile._interp(lam), 0.0)
        phi = float(np.dot(wts, lam * t_vals)) / float(np.dot(wts, lam * lam))
    if not math.isfinite(phi):
        raise InputError(f"the fit of phi overflows at sqrt(V_m) = {top:g}: the well is too deep")
    return phi


def correction_inner_slopes(w: LogWell, epsilon: np.ndarray, tol: float) -> np.ndarray:
    """Slope F'(eps) of the inner correction integral at every epsilon[i] in (0, V_m/2).

    F(eps) = integral (dV/dx)^2 / sqrt(eps - V) dx over the formal well
    V = (V_m - W)/2, between its turning points V = eps, where
    eps - V = (W - lambda^2)/2 with lambda^2 = V_m - 2 eps.  Integrating F
    once by parts, the boundary terms vanishing at the turning points, gives
    F = 2 * integral V'' (eps - V)^(1/2) dx, so

        F'(eps) = -(1/sqrt 2) * integral W'' (W - lambda^2)^(-1/2) d rho,

    the weight form of _turning_point_integrals (weight -W''/sqrt 2), whose
    sine map cancels the inverse square root at the turning points, with the
    exact W'' = Z * base_curv that the well states.  All levels share one
    batched root search and one batched quadrature, each to an absolute tol,
    saturating where that cannot be met; a scalar epsilon is one level.  An
    epsilon outside [0, V_m/2], nan included, puts lambda^2 outside [0, V_m]
    and raises InputError.
    """
    lambda2 = w.V_m - 2.0 * np.asarray(epsilon, dtype=float).ravel()

    def weight(rho: np.ndarray) -> np.ndarray:
        return w.Z * w.base_curv(rho) / -math.sqrt(2.0)

    values, _ = _turning_point_integrals(w, lambda2, weight, tol, best_effort=True)
    return values.reshape(np.shape(epsilon))
