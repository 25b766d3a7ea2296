"""Independent quantum-mechanical ground truth for threshold validation.

The number of bound states of the radial problem at a given lambda equals
the number of nodes of the regular zero-energy solution (Sturm oscillation).
That solution is integrated on the log line with the Numerov recurrence,
starting from the decaying exponential at the left truncation point, and its
strict sign changes are counted.  The recurrence is carried in Johnson's
ratio form (B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)): the ratio of
successive values is the pivot of an LDL^T factorization of a symmetric
tridiagonal matrix, a sign change is a nonpositive pivot, and LAPACK's dpttrf
runs the sweep in compiled code.  Bisecting the coupling on the integer node
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
from scipy.linalg.lapack import dpttrf

from .errors import ConvergenceError, InputError
from .numerics import bracket_and_bisect
from .potentials import LogWell, Settings, quantum_index, scale_log_well

# grid resolution: h = _STEP_FACTOR * ode_tol^(1/4) / k_max keeps the global
# phase error of the fourth-order recurrence safely below the bisection
# resolution (hk ~ 0.02 at the 1e-10 default)
_STEP_FACTOR = 6.6
_WINDOW_LOG = 0.5 * math.log(1e14)
_MAX_STEPS = 8_000_000
_TINY = np.finfo(float).tiny


def _count_nonpositive_pivots(d: np.ndarray) -> int:
    """Number of nonpositive pivots of the LDL^T factorization of tridiag(1, d, 1).

    The pivots obey q_k = d_k - 1/q_{k-1}.  With d = [v_1/v_0, p_1, p_2, ...]
    this is the Numerov recurrence v_{k+1} = p_k v_k - v_{k-1} written for the
    ratio q_k = v_{k+1}/v_k (Johnson's renormalized Numerov method), so every
    nonpositive pivot is one sign change of v and the ratio cannot overflow.
    LAPACK dpttrf factors until the first nonpositive pivot; that node is
    counted, the factorization resumes past it, and an exactly zero pivot is
    taken as -tiny so the next one stays finite.  `d` is overwritten.
    """
    n = d.size
    e = np.ones(n - 1)
    count = 0
    start = 0
    while start < n - 1:
        d_out, _, info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        count += 1
        start += info
        if start < n:
            d[start] -= 1.0 / min(d_out[info - 1], -_TINY)
    # dpttrf needs at least two pivots; check a single trailing one here
    return count + int(start == n - 1 and d[start] <= 0.0)


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
    and returns the number of strict sign changes.  The Numerov recurrence is
    run on the ratio of successive values, as the pivots of a tridiagonal
    LDL^T factorization (_count_nonpositive_pivots), so nothing overflows and
    `step_stats["renormalizations"]` is always 0.

    lambda must be finite; lambda = 0 is rejected: the marginal solution is
    not exponential and node counting is ill conditioned there.
    """
    if not 0.0 < lam < math.inf:
        raise InputError(f"node counting requires finite lambda > 0, got {lam}")
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
    # d = [v_1/v_0, p_1, ..., p_{N-2}] with p_k = (12 - 10 g_k)/g_k, v = g u, u_0 = 1
    d = ((12.0 - 10.0 * g) / g)[:-1]
    d[0] = float(g[1]) * math.exp(lam * h / hbar) / float(g[0])
    return NodeCount(
        count=_count_nonpositive_pivots(d),
        rho_span=(rho_l, rho_r),
        step_stats={"n_steps": n_steps, "h": h, "renormalizations": 0},
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
    n = quantum_index(n, "radial quantum number n")
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
    for name, value in (("a", a), ("Z", Z), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise InputError(f"analytic spectrum needs positive finite {name}, got {value}")
    scale = a * a * hbar * hbar
    sigma = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / scale)) if scale > 0.0 else math.inf
    if not math.isfinite(sigma):
        raise InputError(f"analytic spectrum of a = {a}, Z = {Z}, hbar = {hbar} overflows")
    # lambda_n > 0 exactly for the integers n < sigma
    return [a * hbar * (sigma - n) for n in range(math.ceil(sigma))]
