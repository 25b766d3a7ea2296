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
from .potentials import lambda_of, quantum_index

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
    if not 0.5 <= T < math.inf:
        raise InputError(f"T must be finite and >= 1/2 for a real renormalized value, got {T}")
    return math.sqrt((T - 0.5) * (T + 0.5))


def t_ren_expansion(T: float) -> float:
    """First two terms of the large-T expansion of t_ren: T - 1/(8T).

    Overestimates t_ren by at most 1/(64 T^3) for T >= 1; the correction to
    T itself fades rapidly as T grows.
    """
    if T == 0.0 or not math.isfinite(T):
        raise InputError(f"expansion needs a nonzero finite T, got {T}")
    return T - 1.0 / (8.0 * T)


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
    n_max = quantum_index(n_max, "n_max")
    l_max = quantum_index(l_max, "l_max")
    rows = []
    for n in range(n_max + 1):
        for l in range(l_max + 1):
            nu = n + 0.5
            lam = lambda_of(l, d)
            T = t_effective(nu, lam, phi)
            rows.append(OrderingRow(n=n, l=l, nu=nu, lam=lam, T=T, T_ren=t_ren(T)))
    rows.sort(key=lambda r: (r.T_ren, r.n, r.l))
    return rows
