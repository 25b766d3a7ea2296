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

import numpy as np

from .action import _actions, action, correction_inner_slopes
from .errors import InputError, NoSuchLevelError
from .numerics import brent
from .potentials import LogWell, Settings, quantum_index


def delta1_matched(Phi_m: float) -> float:
    """First defect correction fixed by the shallow-well matching, -1/(8 Phi_m)."""
    if not 0.0 < Phi_m < math.inf:
        raise InputError(f"total well action must be positive and finite, got {Phi_m}")
    return -1.0 / (8.0 * Phi_m)


def resum_delta(delta1: float) -> float:
    """Resummed defect delta = 2*delta1 / (1 + sqrt(1 + 16*delta1^2)).

    Total on the real line, odd, strictly increasing, with range (-1/2, 1/2).
    Reduces to delta1 for small arguments and saturates at
    sgn(delta1)/2 - 1/(8*delta1) for large ones; +-inf maps to +-1/2 and
    nan raises InputError.
    """
    if math.isnan(delta1):
        raise InputError("defect correction delta1 is nan")
    if abs(delta1) > 1e100:
        # avoid overflow of 16*delta1^2; use the exact large-argument form
        return math.copysign(0.5, delta1) - 1.0 / (8.0 * delta1)
    return 2.0 * delta1 / (1.0 + math.sqrt(1.0 + 16.0 * delta1 * delta1))


def delta1_integral(w: LogWell, epsilon: float, s: Settings) -> float:
    """First defect correction from the curvature integral.

    Computes (hbar / 24 pi) * d^2 F / d eps^2 with F the inner integral of
    the squared well slope.  F' comes integrated by parts, over the well's
    exact W'' (action.correction_inner_slopes; J. L. Dunham, Phys. Rev. 41,
    713 (1932)), so F'' needs only a first difference: a fixed 4-point central
    stencil with step h = min(1e-3 V_m, eps / 2.5, (V_m/2 - eps) / 2.5),
    which amplifies quadrature noise by 1/h, not 1/h^2.  The formal energy
    lies in (0, V_m/2), the range of the formal well.

    On a Tabulated well the PCHIP interpolant is only C^1, so W'' jumps at
    the samples and delta1 does not converge as they are refined: on 400,
    800 and 3200 samples of Lenz(1, 8) over rho in [-30, 30] it is off by
    +135 %, +158 % and -67 % at eps = 0.4, and +12.5 %, -4.3 % and +7.3 % at 1.
    """
    v_lim = 0.5 * w.V_m
    if not 0.0 < epsilon < v_lim:
        raise InputError(f"formal energy must lie strictly inside (0, {v_lim:g})")
    h = min(1e-3 * w.V_m, (v_lim - epsilon) / 2.5, epsilon / 2.5)
    if h <= 0.0:
        raise InputError("no room for the difference stencil at this energy")
    slopes = correction_inner_slopes(
        w, epsilon + h * np.array([-2.0, -1.0, 1.0, 2.0]), max(1e-12, 1e-3 * s.quad_tol)
    )
    second = float(np.dot([1.0, -8.0, 8.0, -1.0], slopes)) / (12.0 * h)
    return s.hbar * second / (24.0 * math.pi)


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
    over [0, sqrt(V_m)].  Brent runs its own convergence test, so an action
    that cannot meet quad_tol saturates (best_effort), as near a deep well's
    top, where W - lambda^2 is rounding noise; Phi_m = I(0) stays strict.
    Raises NoSuchLevelError when the well is too shallow to hold level n.
    """
    threshold = ground_state_threshold(n)
    phi_m = action(w, 0.0, s)
    if phi_m < threshold * (1.0 - 1e-12):
        raise NoSuchLevelError(
            f"level n = {n} needs total action >= {threshold:g}, well has {phi_m:g}"
        )
    # n + 1/2 + Phi_m - sqrt(Phi_m^2 + 1/4) without its cancellation, in [0, Phi_m]
    target = min(n + 0.5 + resum_delta(delta1_matched(phi_m)), phi_m)

    def g(lam: float) -> float:
        values, _ = _actions(w, np.array([lam * lam]), s, best_effort=True)
        return float(values[0]) - target

    top = math.sqrt(w.V_m)
    # the action is exactly 0 at the top, where the turning points meet; brent
    # returns an end where g is 0: 0 for a level exactly at threshold, the
    # top where the target is 0
    return brent(g, 0.0, top, phi_m - target, -target, xtol=1e-14 * top, rtol=1e-14)
