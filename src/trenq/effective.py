"""Effective quantum numbers, their renormalization and level ordering.

A state (n, l) of a central potential enters through the single combination

    T = nu + t(lambda),      nu = n + 1/2,  lambda = l + (d-2)/2,

with t the action deficit of the well; T fixes both the depth at which the
state appears and how states order.  The resummed defect correction maps T
onto the renormalized combination

    T_ren = sqrt(T^2 - 1/4),

which predicts thresholds more accurately while leaving the ordering of any
set of states unchanged (x -> sqrt(x^2 - 1/4) is strictly increasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .action import ActionProfile, t_of
from .errors import InputError
from .potentials import lambda_of

TSource = Union[float, ActionProfile]


def _deficit(lam: float, t_source: TSource) -> float:
    if isinstance(t_source, ActionProfile):
        return t_of(t_source, lam)
    phi = float(t_source)
    if not 0.0 < phi < math.inf:
        raise InputError(f"linear deficit slope must be positive and finite, got {phi}")
    return phi * lam


def t_effective(nu: float, lam: float, t_source: TSource) -> float:
    """Effective quantum number T = nu + t(lambda).

    t_source is either a linear slope phi (t = phi * lambda) or a sampled
    action profile, in which case the exact deficit is interpolated.
    """
    if not 0.5 <= nu < math.inf:
        raise InputError(f"nu must be finite and >= 1/2, got {nu}")
    if not 0.0 <= lam < math.inf:
        raise InputError(f"lambda must be finite and >= 0, got {lam}")
    return nu + _deficit(lam, t_source)


def t_ren(T: float) -> float:
    """Renormalized effective quantum number sqrt(T^2 - 1/4)."""
    if T < 0.5:
        raise InputError(f"T must be >= 1/2 for a real renormalized value, got {T}")
    return math.sqrt((T - 0.5) * (T + 0.5))


def t_ren_expansion(T: float) -> float:
    """First two terms of the large-T expansion of t_ren: T - 1/(8T).

    Overestimates t_ren by at most 1/(64 T^3) for T >= 1; the correction to
    T itself fades rapidly as T grows.
    """
    if T == 0.0:
        raise InputError("expansion undefined at T = 0")
    return T - 1.0 / (8.0 * T)


@dataclass(frozen=True)
class EffectiveNumbers:
    """Effective and renormalized quantum numbers for one state."""

    nu: float
    lam: float
    T: float
    T_ren: float
    phi: float | None = None
    t_exact: float | None = None


def effective_numbers(nu: float, lam: float, t_source: TSource) -> EffectiveNumbers:
    """Assemble (T, T_ren) for a state, recording which deficit source was used."""
    T = t_effective(nu, lam, t_source)
    if isinstance(t_source, ActionProfile):
        return EffectiveNumbers(nu=nu, lam=lam, T=T, T_ren=t_ren(T), t_exact=T - nu)
    return EffectiveNumbers(nu=nu, lam=lam, T=T, T_ren=t_ren(T), phi=float(t_source))


def compare_order(
    a: tuple[float, float], b: tuple[float, float], phi: float
) -> int:
    """Order two states (nu, lambda) under the linear model: -1, 0 or +1.

    Because T -> T_ren is strictly increasing, the ordering by T and by
    T_ren coincide; the common ordering is returned.
    """
    ta = t_effective(a[0], a[1], phi)
    tb = t_effective(b[0], b[1], phi)
    if ta < tb:
        return -1
    if ta > tb:
        return 1
    return 0


@dataclass(frozen=True)
class OrderingRow:
    n: int
    l: int
    nu: float
    lam: float
    T: float
    T_ren: float


def ordering_table(n_max: int, l_max: int, d: int, phi: float) -> list[OrderingRow]:
    """All states with n <= n_max, l <= l_max sorted by T_ren ascending.

    Exact ties (possible under the linear model, e.g. phi = 1) are broken
    lexicographically by (n, l) and reported as ties, not resolved
    physically.
    """
    if n_max < 0 or l_max < 0:
        raise InputError("n_max and l_max must be nonnegative")
    rows = []
    for n in range(n_max + 1):
        for l in range(l_max + 1):
            nu = n + 0.5
            lam = lambda_of(l, d)
            T = t_effective(nu, lam, phi)
            rows.append(OrderingRow(n=n, l=l, nu=nu, lam=lam, T=T, T_ren=t_ren(T)))
    rows.sort(key=lambda r: (r.T_ren, r.n, r.l))
    return rows
