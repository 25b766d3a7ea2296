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
from scipy.interpolate import PchipInterpolator

from .errors import DegenerateWellError, InputError, PotentialConditionError
from .numerics import (
    adaptive_gauss,
    bisect_elementwise,
    bisect_monotone,
    composite_knot_integral,
    gauss_nodes,
)
from .potentials import LogWell, Settings

# relative slack for "lambda^2 equals V_m" and domain-floor comparisons
_EDGE_RTOL = 1e-14

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
    PotentialConditionError.
    """
    floor = max(float(w.profile(w.rho_left)), float(w.profile(w.rho_right)))
    pair = _edge_pair(w, lambda2, floor)
    if pair is not None:
        return pair

    def f(rho: float) -> float:
        return float(w.profile(rho)) - lambda2

    rho1 = bisect_monotone(f, w.rho_left, w.rho_star, rtol=1e-15)
    rho2 = bisect_monotone(f, w.rho_star, w.rho_right, rtol=1e-15)
    return TurningPair(rho1, rho2)


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

    numerics.bisect_elementwise takes the same steps as the two scalar
    bisections of turning_points, so every root is the same, bit for bit; W
    at the cuts and the maximum (root brackets and domain-cut floor) is
    evaluated once.  turning_points itself stays scalar: for a single level,
    a batch of two roots costs more in array bookkeeping than it saves in
    profile calls.
    """
    ends = [float(w.profile(x)) for x in (w.rho_left, w.rho_star, w.rho_right)]
    floor = max(ends[0], ends[2])
    pairs = [_edge_pair(w, v, floor) for v in lambda2.tolist()]
    interior = [i for i, pair in enumerate(pairs) if pair is None]
    k = len(interior)
    # roots 0..k-1 lie left of the maximum, k..2k-1 right of it
    targets = np.tile(lambda2[interior], 2)

    def f(rho: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.asarray(w.profile(rho), dtype=float) - targets[idx]

    roots = bisect_elementwise(
        f,
        np.repeat([w.rho_left, w.rho_star], k),
        np.repeat([w.rho_star, w.rho_right], k),
        np.repeat(ends[:2], k) - targets,
        np.repeat(ends[1:], k) - targets,
        rtol=1e-15,
    )
    for j, i in enumerate(interior):
        pairs[i] = TurningPair(float(roots[j]), float(roots[k + j]))
    return pairs


def _exponential_tail(w_end: float, lambda2: float, rate: float) -> float:
    """Closed-form integral of sqrt(W - lambda^2) over an exponential tail.

    Assumes W = w_end * exp(-rate * x) for x >= 0, valid once the domain cut
    is reached; exact for the power-law continuations and accurate to a
    relative domain_cut for the analytic families.
    """
    if w_end <= lambda2:
        return 0.0
    v = math.sqrt(w_end - lambda2)
    if lambda2 <= 0.0:
        return 2.0 * v / rate
    lam = math.sqrt(lambda2)
    return (2.0 / rate) * (v - lam * math.atan2(v, lam))


def _well_slope(w: LogWell, rho: np.ndarray) -> np.ndarray:
    if w.profile_deriv is not None:
        return np.asarray(w.profile_deriv(rho), dtype=float)
    delta = 1e-7 * np.maximum(1.0, np.abs(rho))
    return (w.profile(rho + delta) - w.profile(rho - delta)) / (2.0 * delta)


def _raised(gap: np.ndarray, rho: np.ndarray, power: float, weight: _Weight) -> np.ndarray:
    """weight(rho) * gap^power for power +1/2 or -1/2; weight None stands for 1."""
    if power > 0.0:
        root = np.sqrt(gap)
        return root if weight is None else root * weight(rho)
    positive = gap > 0.0
    return np.where(positive, weight(rho) / np.sqrt(np.where(positive, gap, 1.0)), 0.0)


def _turning_ratio(
    w: LogWell, lambda2: np.ndarray, pairs: list[TurningPair], power: float, weight: _Weight
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Integrand in theta of weight * (W - lambda^2)^power in the Q form, over many pairs.

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
        value = _raised(np.maximum(gap / np.maximum(d1 * d2, 1e-300), 0.0), rho, power, weight)
        # W - lambda^2 = (half cos(theta))^2 Q and d rho = half cos(theta) d theta
        return half * half * cos2 * value if power > 0.0 else value

    return f_theta


def _turning_point_integrals(
    w: LogWell,
    lambda2: np.ndarray,
    pairs: list[TurningPair],
    power: float,
    weight: _Weight,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of weight(rho) * (W - lambda2[i])^power over the turning pairs[i].

    power is +1/2 or -1/2; weight None stands for 1; a degenerate pair gives
    0.  Piecewise profiles use the knot-aligned composite rule, pair by pair:
    its cost is per point, so a batch would not save anything.  A pair at the
    domain cut has no turning point, so the sine map alone makes the
    integrand smooth.  All true turning pairs of a smooth profile share one
    batched adaptive quadrature in the Q form of _turning_ratio, where each
    gets the value it would get alone.  The adaptive rules stop at an error
    estimate of max(tol, rtol * |value|).  Returns (values, error estimates).
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

        def direct(rho: np.ndarray) -> np.ndarray:
            return _raised(np.maximum(w.profile(rho) - level, 0.0), rho, power, weight)

        if w.breakpoints is not None:
            values[i], errors[i] = composite_knot_integral(
                direct, pair.rho1, pair.rho2, w.breakpoints, sqrt_lo=not at_cut, sqrt_hi=not at_cut
            )
            continue
        mid = 0.5 * (pair.rho1 + pair.rho2)
        half = 0.5 * (pair.rho2 - pair.rho1)
        values[i : i + 1], errors[i : i + 1] = adaptive_gauss(
            lambda theta, rows: direct(mid + half * np.sin(theta)) * half * np.cos(theta),
            1, -0.5 * math.pi, 0.5 * math.pi, tol, rtol=rtol, best_effort=best_effort,
        )
    if turning:
        values[turning], errors[turning] = adaptive_gauss(
            _turning_ratio(w, lambda2[turning], [pairs[i] for i in turning], power, weight),
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
    if s not in w._zero_action:
        values, errors = _actions_between(w, np.zeros(1), [turning_points(w, 0.0)], s)
        w._zero_action[s] = float(values[0]), float(errors[0])
    return w._zero_action[s]


def _actions_between(
    w: LogWell, lambda2: np.ndarray, pairs: list[TurningPair], s: Settings
) -> tuple[np.ndarray, np.ndarray]:
    """(I, error estimate) at every lambda2[i] over its turning pairs[i]."""
    scale = math.pi * s.hbar
    values, errors = _turning_point_integrals(
        w, lambda2, pairs, 0.5, None, s.quad_tol * scale, rtol=s.quad_tol
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
    _interp: PchipInterpolator = field(repr=False, compare=False)

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
    if n_points < 5:
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
    interp = PchipInterpolator(grid, values, extrapolate=False)
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


def correction_inner_integral(w: LogWell, epsilon: float, s: Settings) -> float:
    """Inner integral F(eps) = integral (dV/dx)^2 / sqrt(eps - V) dx.

    V = (V_m - W)/2 is the formal well, with asymptote V_m/2 at both ends,
    and the integral runs between its turning points V = eps, where
    eps - V = (W - lambda^2)/2 with lambda^2 = V_m - 2 eps.  dV/dx uses the
    analytic well derivative when available and centered differences
    otherwise.  The quadrature keeps the absolute tolerance quad_tol and
    returns its saturated value when that cannot be met.
    """
    if not epsilon >= 0.0:
        raise InputError(f"formal energy must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return 0.0
    v_limit = 0.5 * w.V_m
    if not epsilon <= v_limit * (1.0 + 1e-12):
        raise InputError(f"formal energy {epsilon:g} exceeds the well asymptote {v_limit:g}")
    lambda2 = max(w.V_m - 2.0 * epsilon, 0.0)
    pair = turning_points(w, lambda2)

    if w.profile_deriv is not None:

        def dv(rho: np.ndarray) -> np.ndarray:
            return -0.5 * w.profile_deriv(rho)

    else:
        delta = 1e-6 * max(1.0, (w.rho_right - w.rho_left) / 50.0)

        def dv(rho: np.ndarray) -> np.ndarray:
            return -0.5 * (w.profile(rho + delta) - w.profile(rho - delta)) / (2.0 * delta)

    def weight(rho: np.ndarray) -> np.ndarray:
        # 1/sqrt(eps - V) = sqrt(2)/sqrt(W - lambda^2)
        return dv(rho) ** 2 * math.sqrt(2.0)

    values, _ = _turning_point_integrals(
        w, np.array([lambda2]), [pair], -0.5, weight, s.quad_tol, best_effort=True
    )
    return float(values[0])
