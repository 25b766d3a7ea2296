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
    composite_knot_integral,
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
    bracket of 1e-15 relative width.
    """
    x, vals = _turning_scan(w)
    pair = _edge_pair(w, lambda2, max(vals[0], vals[-1]))
    if pair is not None:
        return pair

    def f(rho: float) -> float:
        return float(w.profile(rho)) - lambda2

    roots = []
    for i in _scan_cells(vals, np.array([lambda2]))[0].tolist():
        lo, hi = float(x[i]), float(x[i + 1])
        flo, fhi = float(vals[i]) - lambda2, float(vals[i + 1]) - lambda2
        roots.append(false_position(f, lo, hi, flo, fhi, rtol=1e-15))
    return TurningPair(*roots)


def _turning_scan(w: LogWell) -> tuple[np.ndarray, np.ndarray]:
    """(points, W at them): _SCAN_CELLS + 1 points on each side of rho_star.

    The points run from rho_left over rho_star to rho_right, all three
    included, and cluster quadratically towards rho_star, where W is flat.
    W is evaluated in one vectorized call on the first search of the well
    and kept in its memo.
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
        scan = w._memo["turning_scan"] = x, np.asarray(w.profile(x), dtype=float)
    return scan


def _knot_table(w: LogWell) -> KnotTable:
    """The composite knot rule on every segment between the well's breakpoints, with W there.

    Built on the first knot integral of the well and kept in its memo, so W
    is sampled on the knot rule once per well, not once per level, and never
    for a well that only counts nodes.
    """
    table = w._memo.get("knot_table")
    if table is None:
        table = w._memo["knot_table"] = KnotTable(w.breakpoints, w.profile)
    return table


def _scan_cells(vals: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """Scan cells holding the turning points of each level lambda2[m].

    Row m is (i, j): the cells [x[i], x[i + 1]] and [x[j], x[j + 1]] of the
    scan points x.  The left cell starts at the last point before rho_star
    with W <= lambda2, the right one ends at the first point after it, so
    on a well with several humps, at a level above its split_level, they
    hold the pair around rho_star.  Every level must lie above the
    domain-cut floor and below W(rho_star).
    """
    below = vals[None, :] <= lambda2[:, None]
    left = _SCAN_CELLS - 1 - np.argmax(below[:, _SCAN_CELLS - 1 :: -1], axis=1)
    right = _SCAN_CELLS + np.argmax(below[:, _SCAN_CELLS + 1 :], axis=1)
    return np.stack((left, right), axis=1)


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
    """turning_points for every entry of lambda2, in one batched root search.

    numerics.false_position_elementwise takes the steps of the two scalar
    searches of turning_points from the same scan cells, so every root is
    the same, bit for bit.  turning_points itself stays scalar: on the
    interior levels of an action profile of Lenz(1, 50), a batch of one
    level took 330-380 us per call against 60-90 us for the scalar search
    (Python 3.11 on a 2-core Xeon), and solve_spectrum makes one
    single-level call per root-finding step.
    """
    x, vals = _turning_scan(w)
    floor = max(vals[0], vals[-1])
    pairs = [_edge_pair(w, v, floor) for v in lambda2.tolist()]
    interior = [i for i, pair in enumerate(pairs) if pair is None]
    k = len(interior)
    # roots 0..k-1 lie left of the maximum, k..2k-1 right of it
    targets = np.tile(lambda2[interior], 2)
    cells = _scan_cells(vals, lambda2[interior]).T.ravel()

    def f(rho: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.asarray(w.profile(rho), dtype=float) - targets[idx]

    roots = false_position_elementwise(
        f,
        x[cells],
        x[cells + 1],
        vals[cells] - targets,
        vals[cells + 1] - targets,
        rtol=1e-15,
    )
    for j, i in enumerate(interior):
        pairs[i] = TurningPair(float(roots[j]), float(roots[k + j]))
    return pairs


def _exponential_tail(w_end: float, lambda2: float, rate: float) -> float:
    """Closed-form integral of sqrt(W - lambda^2) over an exponential tail.

    Assumes W = w_end * exp(-rate * x) for x >= 0, valid once the domain cut
    is reached; exact for the power-law continuations and accurate to a
    relative DOMAIN_CUT for the analytic families.
    """
    if w_end <= lambda2:
        return 0.0
    v = math.sqrt(w_end - lambda2)
    if lambda2 <= 0.0:
        return 2.0 * v / rate
    lam = math.sqrt(lambda2)
    return (2.0 / rate) * (v - lam * math.atan2(v, lam))


def _well_slope(w: LogWell, rho: np.ndarray) -> np.ndarray:
    if w.base_deriv is not None:
        return np.asarray(w.profile_deriv(rho), dtype=float)
    delta = 1e-7 * np.maximum(1.0, np.abs(rho))
    return (w.profile(rho + delta) - w.profile(rho - delta)) / (2.0 * delta)


def _well_curvature(w: LogWell, rho: np.ndarray) -> np.ndarray:
    """W''(rho): a central difference of W' where it is known, else a second difference of W."""
    if w.base_deriv is not None:
        delta = 1e-5 * np.maximum(1.0, np.abs(rho))
        return (w.profile_deriv(rho + delta) - w.profile_deriv(rho - delta)) / (2.0 * delta)
    delta = 1e-4 * np.maximum(1.0, np.abs(rho))
    return (w.profile(rho + delta) - 2.0 * w.profile(rho) + w.profile(rho - delta)) / (delta * delta)


def _raised(gap: np.ndarray, rho: np.ndarray, weight: _Weight) -> np.ndarray:
    """sqrt(gap) for weight None, else weight(rho) / sqrt(gap) (0 where gap is 0)."""
    if weight is None:
        return np.sqrt(gap)
    positive = gap > 0.0
    return np.where(positive, weight(rho) / np.sqrt(np.where(positive, gap, 1.0)), 0.0)


def _turning_ratio(
    w: LogWell, lambda2: np.ndarray, pairs: list[TurningPair], weight: _Weight
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Integrand in theta of _raised(W - lambda^2, rho, weight) in the Q form, over many pairs.

    Q(theta) = (W - lambda^2) / ((rho - rho1)(rho2 - rho)).  Under
    rho = mid + c*sin(theta) the product of root distances equals
    c^2 cos^2 theta, so Q is the smooth positive factor of W - lambda^2 with
    the simple turning-point zeros divided out; integrands written in terms
    of Q avoid the endpoint roundoff amplification of the naive sqrt forms.

    Two refinements keep Q accurate at the extreme quadrature nodes, where
    the root distances are ~cos^2(theta) and a one-ulp root displacement
    would otherwise be amplified by the inverse: the stored roots are
    Newton-corrected inside the denominator, and 1 +- sin(theta) is
    evaluated through cos^2 on the cancelling side.

    Row i of theta in the returned f(theta, rows) belongs to lambda2[rows[i]]
    and its pair, as numerics.adaptive_gauss evaluates a batch.
    """
    rho1, rho2 = ends = np.array([[pair.rho1 for pair in pairs], [pair.rho2 for pair in pairs]])
    # residual Newton shifts of the stored roots (a fraction of an ulp each)
    slope = _well_slope(w, ends)
    shift = np.asarray(w.profile(ends), dtype=float) - lambda2
    corr1, corr2 = np.divide(shift, slope, out=np.zeros_like(shift), where=slope != 0.0)
    params = np.array((0.5 * (rho1 + rho2), 0.5 * (rho2 - rho1), lambda2, corr1, corr2))

    def f_theta(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        mid, half, lam2, corr1, corr2 = params[:, rows, None]
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        cos2 = cos_t * cos_t
        one_plus = np.where(sin_t < 0.0, cos2 / (1.0 - sin_t), 1.0 + sin_t)
        one_minus = np.where(sin_t > 0.0, cos2 / (1.0 + sin_t), 1.0 - sin_t)
        rho = mid + half * sin_t
        gap = np.asarray(w.profile(rho), dtype=float) - lam2
        d1 = half * one_plus + corr1  # rho - (rho1 + newton shift)
        d2 = half * one_minus - corr2  # (rho2 + newton shift) - rho
        value = _raised(np.maximum(gap / np.maximum(d1 * d2, 1e-300), 0.0), rho, weight)
        # W - lambda^2 = (half cos(theta))^2 Q and d rho = half cos(theta) d theta
        return half * half * cos2 * value if weight is None else value

    return f_theta


def _turning_point_integrals(
    w: LogWell,
    lambda2: np.ndarray,
    pairs: list[TurningPair],
    weight: _Weight,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of sqrt(W - lambda2[i]) (weight None) or of
    weight(rho) / sqrt(W - lambda2[i]) over the turning pairs[i].

    A degenerate pair gives 0.  Piecewise profiles use the knot-aligned
    composite rule, pair by pair, on the well's knot table: only the two
    end segments of each pair are sampled anew.  A pair at the domain cut
    has no turning point, so the sine map alone makes the integrand smooth.
    All true turning pairs of a smooth profile share one batched adaptive
    quadrature in the Q form of _turning_ratio, where each gets the value it
    would get alone.  The adaptive rules stop at an error estimate of
    max(tol, rtol * |value|).
    Returns (values, error estimates).
    """
    values = np.zeros(len(pairs))
    errors = np.zeros(len(pairs))
    turning = []
    for i, pair in enumerate(pairs):
        if pair.degenerate:
            continue  # an empty interval
        at_cut = pair.rho1 == w.rho_left and pair.rho2 == w.rho_right
        if w.breakpoints is None and not at_cut:
            turning.append(i)
            continue
        level = float(lambda2[i])

        def raised(rho: np.ndarray, w_rho: np.ndarray) -> np.ndarray:
            return _raised(np.maximum(w_rho - level, 0.0), rho, weight)

        if w.breakpoints is not None:
            values[i], errors[i] = composite_knot_integral(
                raised, w.profile, pair.rho1, pair.rho2, _knot_table(w), sqrt_ends=not at_cut
            )
            continue
        mid = 0.5 * (pair.rho1 + pair.rho2)
        half = 0.5 * (pair.rho2 - pair.rho1)

        def direct(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
            rho = mid + half * np.sin(theta)
            return raised(rho, w.profile(rho)) * half * np.cos(theta)

        values[i : i + 1], errors[i : i + 1] = adaptive_gauss(
            direct, 1, -0.5 * math.pi, 0.5 * math.pi, tol, rtol=rtol, best_effort=best_effort
        )
    if turning:
        values[turning], errors[turning] = adaptive_gauss(
            _turning_ratio(w, lambda2[turning], [pairs[i] for i in turning], weight),
            len(turning), -0.5 * math.pi, 0.5 * math.pi, tol, rtol=rtol, best_effort=best_effort,
        )
    return values, errors


def _action_with_error(w: LogWell, lam: float, s: Settings) -> tuple[float, float]:
    if not lam >= 0.0:
        raise InputError(f"lambda must be nonnegative, got {lam}")
    if lam == 0.0:
        return _zero_action(w, s)
    lambda2 = lam * lam
    values, errors = _actions_between(w, np.array([lambda2]), [turning_points(w, lambda2)], s)
    return float(values[0]), float(errors[0])


def _zero_action(w: LogWell, s: Settings) -> tuple[float, float]:
    """(I(0), error estimate), computed once per well and Settings."""
    key = ("zero_action", s)
    if key not in w._memo:
        values, errors = _actions_between(w, np.zeros(1), [turning_points(w, 0.0)], s)
        w._memo[key] = float(values[0]), float(errors[0])
    return w._memo[key]


def _actions_between(
    w: LogWell, lambda2: np.ndarray, pairs: list[TurningPair], s: Settings
) -> tuple[np.ndarray, np.ndarray]:
    """(I, error estimate) at every lambda2[i] over its turning pairs[i]."""
    scale = math.pi * s.hbar
    values, errors = _turning_point_integrals(
        w, lambda2, pairs, None, s.quad_tol * scale, rtol=s.quad_tol
    )
    for i, pair in enumerate(pairs):
        if pair.rho1 == w.rho_left and pair.rho2 == w.rho_right:
            # the domain was cut, not bounded by turning points: add the tails
            values[i] += _exponential_tail(float(w.profile(w.rho_left)), lambda2[i], w.decay_left)
            values[i] += _exponential_tail(float(w.profile(w.rho_right)), lambda2[i], w.decay_right)
    return values / scale, errors / scale


def action(w: LogWell, lam: float, s: Settings) -> float:
    """Semiclassical action I(lambda) between the turning points.

    Endpoint square-root singularities are removed by the sine substitution
    before quadrature; the absolute error is kept below
    quad_tol * max(1, result).  At lambda = 0 the integral runs over the
    truncated domain and exact exponential-tail corrections are added; that
    value is computed once per well and Settings and then reused.  Raises
    PotentialConditionError where turning_points does: for lambda^2 below
    the split_level of a well with several humps.
    """
    return _action_with_error(w, lam, s)[0]


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
    values[1:], errors[1:] = _actions_between(w, lambda2[1:], _turning_pairs(w, lambda2[1:]), s)
    interp = Pchip(grid, values)
    return ActionProfile(
        lambda_grid=grid,
        I_values=values,
        Phi_m=float(values[0]),
        quad_error=errors,
        _interp=interp,
    )


def t_of(profile: ActionProfile, lam: float) -> float:
    """Action deficit t(lambda) = I(0) - I(lambda), interpolated off-grid.

    t(0) = 0 exactly and t is nondecreasing up to lambda = sqrt(V_m), where
    it equals Phi_m.
    """
    top = profile.lambda_max
    if not 0.0 <= lam <= top * (1.0 + 1e-12):
        raise InputError(f"lambda = {lam:g} outside the sampled range [0, {top:g}]")
    lam = min(lam, top)
    return max(profile.Phi_m - float(profile._interp(lam)), 0.0)


def fit_phi(profile: ActionProfile) -> float:
    """Least-squares slope of the linear model t(lambda) ~ phi * lambda.

    Minimizing the mean-square deviation of I(0) - phi*lambda from I(lambda)
    over lambda in [0, sqrt(V_m)] gives the stationary point in closed form:

        phi = integral(lambda * t(lambda)) / integral(lambda^2)

    Both integrals use a fixed 64-node Gauss-Legendre rule.
    """
    top = profile.lambda_max
    if top <= 0.0:
        raise DegenerateWellError("action profile spans an empty lambda range")
    x, wts = gauss_nodes(64)
    lam = 0.5 * top * (x + 1.0)
    # t_of on every node at once
    t_vals = np.maximum(profile.Phi_m - profile._interp(np.minimum(lam, top)), 0.0)
    num = float(np.dot(wts, lam * t_vals))
    den = float(np.dot(wts, lam * lam))
    return num / den


def correction_inner_slopes(w: LogWell, epsilon: np.ndarray, tol: float) -> np.ndarray:
    """Slope F'(eps) of the inner correction integral at every epsilon[i] in (0, V_m/2).

    F(eps) = integral (dV/dx)^2 / sqrt(eps - V) dx over the formal well
    V = (V_m - W)/2, between its turning points V = eps, where
    eps - V = (W - lambda^2)/2 with lambda^2 = V_m - 2 eps.  Integrating F
    once by parts, the boundary terms vanishing at the turning points, gives
    F = 2 * integral V'' (eps - V)^(1/2) dx, so

        F'(eps) = -(1/sqrt 2) * integral W'' (W - lambda^2)^(-1/2) d rho,

    an integrand of the same Q form as the action (weight -W''/sqrt 2, see
    _turning_point_integrals), with W'' from _well_curvature.  All levels
    share one batched root search and one batched quadrature, each to an
    absolute tol, saturating where that cannot be met; a scalar epsilon is
    one level.  An epsilon outside [0, V_m/2], nan included, puts lambda^2
    outside [0, V_m] and raises InputError.
    """
    lambda2 = w.V_m - 2.0 * np.asarray(epsilon, dtype=float).ravel()

    def weight(rho: np.ndarray) -> np.ndarray:
        return _well_curvature(w, rho) / -math.sqrt(2.0)

    values, _ = _turning_point_integrals(
        w, lambda2, _turning_pairs(w, lambda2), weight, tol, best_effort=True
    )
    return values.reshape(np.shape(epsilon))
