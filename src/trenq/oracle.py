"""Independent quantum-mechanical ground truth for threshold validation.

The number of bound states of the radial problem at a given lambda equals
the number of nodes of the regular zero-energy solution (Sturm oscillation).
That solution is integrated on the log line with the Numerov recurrence,
starting from the decaying exponential at the left truncation point, and its
strict sign changes are counted.  Bisecting the coupling on the integer node
count then locates every critical coupling without any semiclassical input,
which is what makes this module a legitimate oracle for the rest of the
package.

The integration window extends beyond the point where the well is cut off:
near a threshold the incoming node sits far out in the e^(+-lambda rho)
region, and counting it requires the window to reach where the growing
exponential dominates by ~1e14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, InputError
from .numerics import bracket_and_bisect
from .potentials import LogWell, Settings, scale_log_well

# grid resolution: h = _STEP_FACTOR * ode_tol^(1/4) / k_max keeps the global
# phase error of the fourth-order recurrence safely below the bisection
# resolution (hk ~ 0.02 at the 1e-10 default)
_STEP_FACTOR = 6.6
_WINDOW_LOG = 0.5 * math.log(1e14)
_MAX_STEPS = 8_000_000


def _numerov_signflips_py(p: np.ndarray, v0: float, v1: float) -> tuple[int, int]:
    """Reference implementation of the sign-flip counter (see _numerov_signflips)."""
    count = 0
    renorms = 0
    sign = v1 > 0.0
    for pk in p:
        v2 = pk * v1 - v0
        if v2 != 0.0:
            s = v2 > 0.0
            if s != sign:
                count += 1
                sign = s
        if v2 > 1e250 or v2 < -1e250:
            v1 *= 1e-250
            v2 *= 1e-250
            renorms += 1
        v0 = v1
        v1 = v2
    return count, renorms


try:  # pragma: no cover - exercised implicitly by every oracle test
    from numba import njit

    _numerov_signflips = njit(cache=True)(_numerov_signflips_py)
except ImportError:  # pragma: no cover
    _numerov_signflips = _numerov_signflips_py


@dataclass(frozen=True)
class NodeCount:
    """Node count of the regular zero-energy solution plus integrator stats."""

    count: int
    rho_span: tuple[float, float]
    step_stats: dict


def count_bound_states(w: LogWell, lam: float, s: Settings) -> NodeCount:
    """Count bound states at effective orbital number lambda > 0.

    Integrates hbar^2 Psi'' = (lambda^2 - W) Psi from the left truncation
    point with the decaying-branch initial data Psi ~ e^(lambda rho / hbar)
    and returns the number of strict sign changes.  The amplitude is
    renormalized periodically; positive rescaling never changes the count.

    lambda = 0 is rejected: the marginal solution is not exponential and
    node counting is ill conditioned there.
    """
    if lam <= 0.0:
        raise InputError(f"node counting requires lambda > 0, got {lam}")
    hbar = s.hbar
    rho_l = w.rho_left
    rho_r = max(w.rho_right, w.rho_star + _WINDOW_LOG * hbar / lam)
    k_ref = max(math.sqrt(w.V_m), lam, 1e-2) / hbar
    h = min(0.02, _STEP_FACTOR * s.ode_tol**0.25 / k_ref)
    n_steps = int(math.ceil((rho_r - rho_l) / h)) + 1
    if n_steps > _MAX_STEPS:
        raise ConvergenceError(
            f"node counting grid of {n_steps} points exceeds the budget; "
            "lambda is too close to the marginal case"
        )
    rho = np.linspace(rho_l, rho_r, n_steps)
    h = float(rho[1] - rho[0])
    f = (lam * lam - np.asarray(w.profile(rho), dtype=float)) / (hbar * hbar)
    c = h * h / 12.0
    g = 1.0 - c * f
    p = np.ascontiguousarray(((12.0 - 10.0 * g) / g)[1:-1])
    v0 = float(g[0])  # u0 = 1
    v1 = float(g[1]) * math.exp(lam * h / hbar)
    count, renorms = _numerov_signflips(p, v0, v1)
    return NodeCount(
        count=int(count),
        rho_span=(rho_l, rho_r),
        step_stats={"n_steps": n_steps, "h": h, "renormalizations": int(renorms)},
    )


WellFamily = Union[LogWell, Callable[[float], LogWell]]


def _as_factory(family: WellFamily) -> Callable[[float], LogWell]:
    if isinstance(family, LogWell):
        if family.scaling is None:
            raise InputError("well has no coupling decomposition; pass a factory instead")
        return lambda Z: scale_log_well(family, Z)
    return family


def exact_critical_coupling(family: WellFamily, lam: float, n: int, s: Settings) -> float:
    """Coupling at which the node count steps from n to n + 1, by bisection.

    `family` is either a linearly scaling LogWell or a callable Z -> LogWell.
    The bracket is expanded geometrically from Z = 1 (bracket_and_bisect),
    bisected to a relative width of 1e-8, and the transition is verified on
    both sides of the returned value.
    """
    if n < 0:
        raise InputError(f"radial quantum number must be >= 0, got {n}")
    make_well = _as_factory(family)

    def count(Z: float) -> int:
        return count_bound_states(make_well(Z), lam, s).count

    # the half-integer offset never vanishes and turns positive past the step
    z = bracket_and_bisect(lambda Z: count(Z) - n - 0.5, rtol=1e-8)
    if count(z * (1.0 - 1e-7)) != n or count(z * (1.0 + 1e-7)) != n + 1:
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
    if a <= 0.0 or Z <= 0.0:
        raise InputError("analytic spectrum needs a > 0 and Z > 0")
    sigma = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / (a * a * hbar * hbar)))
    out = []
    n = 0
    while True:
        lam_n = a * hbar * (sigma - n)
        if lam_n <= 0.0:
            break
        out.append(lam_n)
        n += 1
    return out
