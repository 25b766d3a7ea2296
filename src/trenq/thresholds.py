"""Critical couplings for the appearance of bound states at zero energy.

A new level (n, l) appears when the total well action matches the state's
renormalized effective quantum number:

    (1 / pi hbar) * integral sqrt(W) d rho = T_ren(nu, lambda).

For wells with linear coupling, W = Z * w, the left side scales as sqrt(Z),
so the critical coupling is available in closed form from the base-profile
integral; otherwise it is found by bisection on the monotone depth
dependence.  The unrenormalized variant (target T instead of T_ren) is kept
for comparison: renormalization always lowers the predicted threshold, by
the exact factor 1 - 1/(4 T^2) for linear wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .action import action
from .effective import TSource, t_effective, t_ren
from .errors import InputError
from .numerics import bracket_and_bisect
from .oracle import exact_critical_coupling
from .potentials import LogWell, QuantumNumbers, Settings


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


def base_action_integral(w: LogWell, s: Settings) -> float:
    """A0 = integral sqrt(base profile) d rho, tails included.

    For W = Z * w the total action is Phi_m = sqrt(Z) * A0 / (pi hbar).
    """
    if w.scaling is None:
        raise InputError("well has no linear coupling decomposition")
    return math.pi * s.hbar * action(w, 0.0, s) / math.sqrt(w.scaling.Z)


def critical_coupling(
    w: LogWell,
    q: QuantumNumbers,
    s: Settings,
    *,
    t_source: TSource,
    renormalized: bool = True,
    well_factory: Callable[[float], LogWell] | None = None,
    base_integral: float | None = None,
) -> float:
    """Coupling at which state q first appears at zero energy.

    The matching target is T_ren(nu, lambda) (or plain T when
    renormalized=False) with the deficit taken from t_source (a fitted
    linear slope or a sampled action profile).  Linearly scaling wells are
    solved in closed form; otherwise pass well_factory and the coupling is
    bisected with geometric bracket expansion.
    """
    T = t_effective(q.nu, q.lam, t_source)
    target = t_ren(T) if renormalized else T
    if w.scaling is not None and well_factory is None:
        a0 = base_action_integral(w, s) if base_integral is None else base_integral
        return (math.pi * s.hbar * target / a0) ** 2
    if well_factory is None:
        raise InputError("well has no coupling decomposition; pass well_factory")

    def overshoot(Z: float) -> float:
        return action(well_factory(Z), 0.0, s) - target

    return bracket_and_bisect(overshoot, rtol=1e-12)


def lenz_exact_threshold(
    a: float, q: QuantumNumbers, hbar: float = 1.0
) -> tuple[float, float]:
    """Closed-form critical coupling of the sech^2 family, in two variants.

    Returns (Z_corrected, Z_as_printed).  The corrected form

        Z = 2 a^2 hbar^2 [ (nu + lambda/(a hbar))^2 - 1/4 ]

    is the one validated by the node-counting oracle and consistent with the
    total-action route.  The second entry evaluates the frequently quoted
    variant 2a * sqrt(...), which is dimensionally inconsistent with the
    exact spectrum; it is reported only so the discrepancy stays visible.
    """
    if a <= 0.0:
        raise InputError(f"width parameter a must be positive, got {a}")
    x = q.nu + q.lam / (a * hbar)
    core = x * x - 0.25
    if core < 0.0:
        raise InputError("nu + lambda/a below 1/2; no threshold exists")
    return 2.0 * a * a * hbar * hbar * core, 2.0 * a * math.sqrt(core)


@dataclass(frozen=True)
class RenormalizationRow:
    state: QuantumNumbers
    T: float
    reduction: float


def renormalization_effect(
    states: list[QuantumNumbers], phi: float
) -> list[RenormalizationRow]:
    """Relative threshold reduction (Z_unren - Z_ren)/Z_unren per state.

    For linearly scaling wells the reduction is exactly 1/(4 T^2): largest
    for the lowest states and strictly decreasing in T.  Rows are sorted by
    T ascending.
    """
    rows = []
    for q in states:
        T = t_effective(q.nu, q.lam, phi)
        rows.append(RenormalizationRow(state=q, T=T, reduction=1.0 / (4.0 * T * T)))
    rows.sort(key=lambda r: (r.T, r.state.n, r.state.l))
    return rows


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
    a0 = base_action_integral(w, s)
    reports = []
    for q in states:
        T = t_effective(q.nu, q.lam, t_source)
        z_ren = critical_coupling(
            w, q, s, t_source=t_source, renormalized=True, base_integral=a0
        )
        z_unren = critical_coupling(
            w, q, s, t_source=t_source, renormalized=False, base_integral=a0
        )
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
