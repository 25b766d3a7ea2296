"""Quantization-defect corrections and the resummed spectrum condition.

The exact one-dimensional spectrum of the formal well obeys

    Phi(eps_n) = n + 1/2 + delta(eps_n)

where delta collects all corrections beyond the leading semiclassical rule.
For the special well class whose profile and derivative are quadratic
polynomials of one auxiliary function, the whole series resums into

    delta = 2*delta1 / (1 + sqrt(1 + 16*delta1^2)),

a bounded odd function of the first correction delta1.  Matching the known
existence of the lowest state of such wells at vanishing depth fixes
delta1 = -1/(8*Phi_m), which turns the quantization condition into a purely
algebraic rule used by the spectrum and threshold solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from .action import action, correction_inner_integral
from .errors import ConvergenceError, InputError, NoSuchLevelError
from .numerics import brent
from .potentials import LogWell, Settings, quantum_index


@dataclass(frozen=True)
class CorrectionState:
    """A defect correction together with its resummed value and provenance."""

    delta1: float
    delta: float
    Phi_m: float
    source: Literal["integral", "matched"]


def delta1_matched(Phi_m: float) -> float:
    """First defect correction fixed by the shallow-well matching, -1/(8 Phi_m)."""
    if Phi_m <= 0.0:
        raise InputError(f"total well action must be positive, got {Phi_m}")
    return -1.0 / (8.0 * Phi_m)


def resum_delta(delta1: float) -> float:
    """Resummed defect delta = 2*delta1 / (1 + sqrt(1 + 16*delta1^2)).

    Total on the real line, odd, strictly increasing, with range (-1/2, 1/2).
    Reduces to delta1 for small arguments and saturates at
    sgn(delta1)/2 - 1/(8*delta1) for large ones.
    """
    if abs(delta1) > 1e100:
        # avoid overflow of 16*delta1^2; use the exact large-argument form
        return math.copysign(0.5, delta1) - 1.0 / (8.0 * delta1)
    return 2.0 * delta1 / (1.0 + math.sqrt(1.0 + 16.0 * delta1 * delta1))


def delta1_integral(w: LogWell, epsilon: float, s: Settings) -> float:
    """First defect correction from the curvature integral.

    Computes (hbar / 24 pi) * d^2 F / d eps^2 with F the inner integral of
    the squared well slope.  A 5-point centered stencil starts at step
    1e-3 * V_m and is halved until two successive estimates agree to 1e-6
    relative (with an absolute floor covering the F'' = 0 case); the
    returned value is the Richardson extrapolant of the final pair.  The
    formal energy lies in (0, V_m/2), the range of the formal well.
    """
    v_lim = 0.5 * w.V_m
    if not 0.0 < epsilon < v_lim:
        raise InputError(f"formal energy must lie strictly inside (0, {v_lim:g})")
    h0 = min(1e-3 * w.V_m, (v_lim - epsilon) / 2.5, epsilon / 2.5)
    if h0 <= 0.0:
        raise InputError("no room for the difference stencil at this energy")

    # the difference quotient amplifies quadrature noise by 1/h^2; the inner
    # integrals are pushed to the refinement floor of the quadrature
    s_inner = replace(s, quad_tol=max(1e-12, 1e-3 * s.quad_tol))
    cache: dict[float, float] = {}

    def f(e: float) -> float:
        if e not in cache:
            cache[e] = correction_inner_integral(w, e, s_inner)
        return cache[e]

    def second_derivative(h: float) -> float:
        return (
            -f(epsilon - 2.0 * h)
            + 16.0 * f(epsilon - h)
            - 30.0 * f(epsilon)
            + 16.0 * f(epsilon + h)
            - f(epsilon + 2.0 * h)
        ) / (12.0 * h * h)

    # natural scale of F'' for the agreement floor; F'' can legitimately be
    # zero (the harmonic case), where a pure relative test would never settle
    scale = abs(f(epsilon)) / (epsilon * epsilon)
    h = h0
    prev_d = second_derivative(h)
    # smallest change seen so far: (change, Richardson extrapolant, estimate)
    best = (math.inf, math.nan, math.nan)
    last_change, grown = math.inf, 0
    for _ in range(40):
        h *= 0.5
        if h < 1e-12 * w.V_m:
            break
        d = second_derivative(h)
        change = abs(d - prev_d)
        richardson = (16.0 * d - prev_d) / 15.0
        if change <= 1e-6 * max(abs(d), scale):
            return s.hbar * richardson / (24.0 * math.pi)
        if change < best[0]:
            best = (change, richardson, d)
        # past the noise floor every halving only amplifies the quadrature noise
        grown = grown + 1 if change > last_change else 0
        if grown == 2:
            break
        last_change, prev_d = change, d
    change, richardson, d = best
    if not change <= 1e-5 * max(abs(d), scale):
        raise ConvergenceError(
            f"second derivative did not settle; smallest change {change:g} at estimate {d:g}"
        )
    return s.hbar * richardson / (24.0 * math.pi)


def correction_state_matched(Phi_m: float) -> CorrectionState:
    """Correction state from the shallow-well matching route."""
    d1 = delta1_matched(Phi_m)
    return CorrectionState(delta1=d1, delta=resum_delta(d1), Phi_m=Phi_m, source="matched")


def correction_state_integral(
    w: LogWell, epsilon: float, Phi_m: float, s: Settings
) -> CorrectionState:
    """Correction state from the curvature-integral route (diagnostic)."""
    d1 = delta1_integral(w, epsilon, s)
    return CorrectionState(delta1=d1, delta=resum_delta(d1), Phi_m=Phi_m, source="integral")


def ground_state_threshold(n: int) -> float:
    """Minimal total action Phi_m at which level n exists: sqrt((n+1/2)^2 - 1/4).

    Zero for n = 0: the lowest state of an equal-asymptote well survives at
    arbitrarily small depth.
    """
    n = quantum_index(n, "radial quantum number n")
    return math.sqrt(n * (n + 1.0))


def solve_spectrum(w: LogWell, n: int, s: Settings) -> float:
    """Solve the resummed quantization rule for level n of the well.

    The condition I(lambda_n) = n + 1/2 + Phi_m - sqrt(Phi_m^2 + 1/4) is
    solved for lambda_n by Brent's method on the smooth, decreasing action
    over [0, sqrt(V_m)].  Raises NoSuchLevelError when the well is too
    shallow to hold level n.
    """
    threshold = ground_state_threshold(n)
    phi_m = action(w, 0.0, s)
    if phi_m < threshold * (1.0 - 1e-12):
        raise NoSuchLevelError(
            f"level n = {n} needs total action >= {threshold:g}, well has {phi_m:g}"
        )
    target = (n + 0.5) + phi_m - math.hypot(phi_m, 0.5)
    target = min(target, phi_m)
    if target <= 0.0:
        return math.sqrt(w.V_m)

    def g(lam: float) -> float:
        return action(w, lam, s) - target

    top = math.sqrt(w.V_m)
    g0 = g(0.0)
    if g0 <= 0.0:
        # exactly at threshold: the level appears at lambda = 0
        return 0.0
    return brent(g, 0.0, top, g0, g(top), xtol=1e-14 * top, rtol=1e-14)
