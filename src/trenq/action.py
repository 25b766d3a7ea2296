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

from .errors import DegenerateWellError, InputError
from .numerics import adaptive_gauss, bisect_monotone, composite_knot_integral, gauss_nodes
from .potentials import LogWell, Settings

# relative slack for "lambda^2 equals V_m" and domain-floor comparisons
_EDGE_RTOL = 1e-14


@dataclass(frozen=True)
class TurningPair:
    """Boundaries of the classically allowed region W > lambda^2."""

    rho1: float
    rho2: float
    degenerate: bool = False


def turning_points(w: LogWell, lambda2: float, s: Settings) -> TurningPair:
    """Locate the pair of solutions of W(rho) = lambda2 around the maximum.

    For lambda2 = 0 (or below the domain-cut floor) the truncated domain ends
    are returned; for lambda2 = V_m the pair degenerates to the maximum.
    """
    if lambda2 < 0.0:
        raise InputError(f"lambda^2 must be nonnegative, got {lambda2}")
    if lambda2 > w.V_m * (1.0 + _EDGE_RTOL):
        raise InputError(
            f"lambda^2 = {lambda2:g} exceeds the well maximum {w.V_m:g}: "
            "no classically allowed region"
        )
    if lambda2 >= w.V_m * (1.0 - _EDGE_RTOL):
        return TurningPair(w.rho_star, w.rho_star, degenerate=True)
    floor = max(float(w.profile(w.rho_left)), float(w.profile(w.rho_right)))
    if lambda2 <= floor:
        return TurningPair(w.rho_left, w.rho_right)

    def f(rho: float) -> float:
        return float(w.profile(rho)) - lambda2

    rho1 = bisect_monotone(f, w.rho_left, w.rho_star, rtol=1e-15)
    rho2 = bisect_monotone(f, w.rho_star, w.rho_right, rtol=1e-15)
    return TurningPair(rho1, rho2)


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


def _well_slope(w: LogWell, rho: float) -> float:
    if w.profile_deriv is not None:
        return float(w.profile_deriv(rho))
    delta = 1e-7 * max(1.0, abs(rho))
    return float(w.profile(rho + delta) - w.profile(rho - delta)) / (2.0 * delta)


def _turning_ratio(w: LogWell, lambda2: float, pair: TurningPair):
    """Factory for Q(theta) = (W - lambda^2) / ((rho - rho1)(rho2 - rho)).

    Under rho = mid + c*sin(theta) the product of root distances equals
    c^2 cos^2 theta, so Q is the smooth positive factor of W - lambda^2 with
    the simple turning-point zeros divided out; integrands written in terms
    of Q avoid the endpoint roundoff amplification of the naive sqrt forms.

    Two refinements keep Q accurate at the extreme quadrature nodes, where
    the root distances are ~cos^2(theta) and a one-ulp root displacement
    would otherwise be amplified by the inverse: the stored roots are
    Newton-corrected inside the denominator, and 1 +- sin(theta) is
    evaluated through cos^2 on the cancelling side.
    """
    mid = 0.5 * (pair.rho1 + pair.rho2)
    half = 0.5 * (pair.rho2 - pair.rho1)
    # residual Newton shifts of the stored roots (a fraction of an ulp each)
    slope1 = _well_slope(w, pair.rho1)
    slope2 = _well_slope(w, pair.rho2)
    corr1 = (float(w.profile(pair.rho1)) - lambda2) / slope1 if slope1 != 0.0 else 0.0
    corr2 = (float(w.profile(pair.rho2)) - lambda2) / slope2 if slope2 != 0.0 else 0.0

    def q_of(theta: np.ndarray) -> np.ndarray:
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        cos2 = cos_t * cos_t
        one_plus = np.where(sin_t < 0.0, cos2 / (1.0 - sin_t), 1.0 + sin_t)
        one_minus = np.where(sin_t > 0.0, cos2 / (1.0 + sin_t), 1.0 - sin_t)
        gap = np.asarray(w.profile(mid + half * sin_t), dtype=float) - lambda2
        d1 = half * one_plus + corr1  # rho - (rho1 + newton shift)
        d2 = half * one_minus - corr2  # (rho2 + newton shift) - rho
        denom = np.maximum(d1 * d2, 1e-300)
        return np.maximum(gap / denom, 0.0)

    return mid, half, q_of


def _turning_point_integral(
    w: LogWell,
    lambda2: float,
    pair: TurningPair,
    power: float,
    weight: Callable[[np.ndarray], np.ndarray] | None,
    tol: float,
    *,
    rtol: float = 0.0,
    best_effort: bool = False,
) -> tuple[float, float]:
    """Integral of weight(rho) * (W - lambda^2)^power over a turning pair.

    power is +1/2 or -1/2; weight None stands for 1.  Piecewise profiles use
    the knot-aligned composite rule.  A pair at the domain cut has no
    turning point, so the sine map alone makes the integrand smooth.  A true
    turning pair is integrated in the Q form of _turning_ratio.  The
    adaptive rules stop at an error estimate of max(tol, rtol * |value|).
    Returns (value, error estimate).
    """
    at_cut = pair.rho1 == w.rho_left and pair.rho2 == w.rho_right

    def raised(gap: np.ndarray, rho: np.ndarray) -> np.ndarray:
        if power > 0.0:
            root = np.sqrt(gap)
            return root if weight is None else root * weight(rho)
        positive = gap > 0.0
        return np.where(positive, weight(rho) / np.sqrt(np.where(positive, gap, 1.0)), 0.0)

    def direct(rho: np.ndarray) -> np.ndarray:
        return raised(np.maximum(w.profile(rho) - lambda2, 0.0), rho)

    if w.breakpoints is not None:
        return composite_knot_integral(
            direct, pair.rho1, pair.rho2, w.breakpoints, sqrt_lo=not at_cut, sqrt_hi=not at_cut
        )
    if at_cut:
        mid = 0.5 * (pair.rho1 + pair.rho2)
        half = 0.5 * (pair.rho2 - pair.rho1)

        def f_theta(theta: np.ndarray) -> np.ndarray:
            return direct(mid + half * np.sin(theta)) * half * np.cos(theta)

    else:
        mid, half, q_of = _turning_ratio(w, lambda2, pair)

        def f_theta(theta: np.ndarray) -> np.ndarray:
            # W - lambda^2 = (half cos(theta))^2 Q and d rho = half cos(theta) d theta
            value = raised(q_of(theta), mid + half * np.sin(theta))
            return half * half * np.cos(theta) ** 2 * value if power > 0.0 else value

    return adaptive_gauss(
        f_theta, -0.5 * math.pi, 0.5 * math.pi, tol, rtol=rtol, best_effort=best_effort
    )


def _action_with_error(w: LogWell, lam: float, s: Settings) -> tuple[float, float]:
    if lam < 0.0:
        raise InputError(f"lambda must be nonnegative, got {lam}")
    lambda2 = lam * lam
    pair = turning_points(w, lambda2, s)
    if pair.degenerate:
        return 0.0, 0.0
    scale = math.pi * s.hbar
    value, err = _turning_point_integral(
        w, lambda2, pair, 0.5, None, s.quad_tol * scale, rtol=s.quad_tol
    )
    if pair.rho1 == w.rho_left and pair.rho2 == w.rho_right:
        # the domain was cut, not bounded by turning points: add the tails
        value += _exponential_tail(float(w.profile(w.rho_left)), lambda2, w.decay_left)
        value += _exponential_tail(float(w.profile(w.rho_right)), lambda2, w.decay_right)
    return value / scale, err / scale


def action(w: LogWell, lam: float, s: Settings) -> float:
    """Semiclassical action I(lambda) between the turning points.

    Endpoint square-root singularities are removed by the sine substitution
    before quadrature; the absolute error is kept below
    quad_tol * max(1, result).  At lambda = 0 the integral runs over the
    truncated domain and exact exponential-tail corrections are added.
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
    """Sample I(lambda) on a Chebyshev grid over [0, sqrt(V_m)]."""
    if n_points < 5:
        raise InputError("profile needs at least 5 points")
    top = math.sqrt(w.V_m)
    k = np.arange(n_points)
    grid = 0.5 * top * (1.0 - np.cos(math.pi * k / (n_points - 1)))
    grid[0] = 0.0
    grid[-1] = top
    values = np.empty(n_points)
    errors = np.empty(n_points)
    for i, lam in enumerate(grid):
        values[i], errors[i] = _action_with_error(w, float(lam), s)
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
    if lam < 0.0 or lam > top * (1.0 + 1e-12):
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
    t_vals = np.array([t_of(profile, float(v)) for v in lam])
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
    if epsilon < 0.0:
        raise InputError(f"formal energy must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return 0.0
    v_limit = 0.5 * w.V_m
    if epsilon > v_limit * (1.0 + 1e-12):
        raise InputError(f"formal energy {epsilon:g} exceeds the well asymptote {v_limit:g}")
    lambda2 = max(w.V_m - 2.0 * epsilon, 0.0)
    pair = turning_points(w, lambda2, s)

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

    value, _ = _turning_point_integral(
        w, lambda2, pair, -0.5, weight, s.quad_tol, best_effort=True
    )
    return value
