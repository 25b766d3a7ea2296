"""Critical couplings for the appearance of bound states at zero energy.

A new level (n, l) appears when the total well action matches the state's
renormalized effective quantum number:

    (1 / pi hbar) * integral sqrt(W) d rho = T_ren(nu, lambda).

Every LogWell is W = Z * base, so the left side scales as sqrt(Z) and the
critical coupling Z * (target / I(0))^2 is available in closed form.  For
a family given as a factory Z -> LogWell the same law applied to the well
at Z = 1 gives a guess, which is taken when the law's own slope at the well
built there predicts a step below the stop, and is otherwise the start of
a bracket for Brent's method on the smooth, monotone depth dependence.
The unrenormalized variant (target T instead of T_ren) is kept for
comparison: renormalization always lowers the predicted threshold, by the
exact factor 1 - 1/(4 T^2) on the closed-form route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .action import action
from .effective import TSource, t_effective, t_ren
from .errors import InputError
from .numerics import brent, geometric_bracket
from .oracle import exact_critical_coupling
from .potentials import LogWell, QuantumNumbers, Settings

# first step of the factory route's bracket from its sqrt(Z) guess, relative;
# below the 1e-12 Brent stops at, so a guess that misses by less than that
# but whose predicted step was not below half of it is bracketed by one
# more build
_GUESS_STEP = 5e-13


@dataclass(frozen=True)
class ThresholdReport:
    """Predicted critical couplings for one state, optionally versus the oracle."""

    state: QuantumNumbers
    T: float
    T_ren: float
    Z_pred_ren: float
    Z_pred_unren: float
    Z_exact: float | None = None
    rel_err_ren: float | None = None
    rel_err_unren: float | None = None


def critical_coupling(
    w: LogWell,
    q: QuantumNumbers,
    s: Settings,
    *,
    t_source: TSource,
    renormalized: bool = True,
    well_factory: Callable[[float], LogWell] | None = None,
) -> float:
    """Coupling at which state q first appears at zero energy.

    The matching target is T_ren(nu, lambda) (or plain T when
    renormalized=False) with the deficit taken from t_source (a fitted
    linear slope or a sampled action profile).  Both routes start from the
    sqrt(Z) law's root Z_g = Z0 (target / I(0))^2: without well_factory
    Z0 = w.Z and I(0) is the action of w, which the well keeps per Settings;
    with well_factory, a callable Z -> LogWell, Z0 = 1 and I(0) is that of
    the well built at Z = 1.  A Z_g that is not finite (I(0) not positive
    and finite) is an InputError, and a zero Z_g is returned as it is.
    Without well_factory the family is w rescaled, W = Z * base, and Z_g is
    the coupling.  With well_factory it is found to 1e-12 relative: the well
    at Z_g is built, and Z_g is returned when the step that the sqrt(Z)
    law's slope I / (2 Z) predicts from it is below 1e-12 Z_g / 2, as on
    every linear family up to quadrature error.  Otherwise Brent's method
    runs in a bracket grown out of Z_g.  No coupling is built twice.
    """
    T = t_effective(q.nu, q.lam, t_source)
    target = t_ren(T) if renormalized else T
    # the well built at Z = 1 is dropped before the guess is built
    z0 = w.Z if well_factory is None else 1.0
    i0 = action(w if well_factory is None else well_factory(z0), 0.0, s)
    r = target / i0 if 0.0 < i0 < math.inf else math.nan
    z_guess = z0 * r * r
    if not 0.0 <= z_guess < math.inf:
        raise InputError(f"no finite critical coupling from I(0) = {i0:g} at Z = {z0:g}")
    if well_factory is None or z_guess == 0.0:
        return z_guess
    built = {z0: i0 - target}

    def overshoot(Z: float) -> float:
        if Z not in built:
            built[Z] = action(well_factory(Z), 0.0, s) - target
        return built[Z]

    f_guess = overshoot(z_guess)
    if abs(f_guess) < 0.25e-12 * (f_guess + target):
        return z_guess
    bracket = geometric_bracket(overshoot, z_guess, 1.0 + _GUESS_STEP)
    return brent(overshoot, *bracket, xtol=0.0, rtol=1e-12)


def lenz_exact_threshold(
    a: float, q: QuantumNumbers, hbar: float = 1.0
) -> tuple[float, float]:
    """Closed-form critical coupling of the sech^2 family, in two variants.

    Returns (Z_corrected, Z_as_printed).  The corrected form

        Z = 2 a^2 hbar^2 [ (nu + lambda/(a hbar))^2 - 1/4 ]

    is the one validated by the node-counting oracle and consistent with the
    total-action route.  The bracket is never negative, as nu >= 1/2 and
    lambda >= 0.  The second entry evaluates the frequently quoted variant
    2a * sqrt(...), which is dimensionally inconsistent with the exact
    spectrum; it is reported only so the discrepancy stays visible.
    InputError unless a and hbar are positive and finite.
    """
    if not 0.0 < a < math.inf:
        raise InputError(f"width parameter a must be positive and finite, got {a}")
    if not 0.0 < hbar < math.inf:
        raise InputError(f"hbar must be positive and finite, got {hbar}")
    x = q.nu + q.lam / (a * hbar)
    core = x * x - 0.25
    return 2.0 * a * a * hbar * hbar * core, 2.0 * a * math.sqrt(core)


def threshold_reports(
    w: LogWell,
    states: list[QuantumNumbers],
    s: Settings,
    *,
    t_source: TSource,
    with_oracle: bool = False,
) -> list[ThresholdReport]:
    """Build per-state threshold reports, in input order.

    With with_oracle=True every prediction is compared against the
    node-counting oracle and the relative errors are filled in.  States with
    lambda = 0 (the marginal d = 2 s-wave) are outside the oracle's scope
    and keep empty comparison fields.
    """
    reports = []
    for q in states:
        T = t_effective(q.nu, q.lam, t_source)
        z_ren = critical_coupling(w, q, s, t_source=t_source, renormalized=True)
        z_unren = critical_coupling(w, q, s, t_source=t_source, renormalized=False)
        z_exact = None
        err_ren = None
        err_unren = None
        if with_oracle and q.lam > 0.0:
            z_exact = exact_critical_coupling(w, q.lam, q.n, s)
            err_ren = abs(z_ren - z_exact) / z_exact
            err_unren = abs(z_unren - z_exact) / z_exact
        reports.append(
            ThresholdReport(
                state=q,
                T=T,
                T_ren=t_ren(T),
                Z_pred_ren=z_ren,
                Z_pred_unren=z_unren,
                Z_exact=z_exact,
                rel_err_ren=err_ren,
                rel_err_unren=err_unren,
            )
        )
    return reports
