"""Central potentials, quantum-number bookkeeping and the log-metric transform.

The zero-energy radial problem for an attractive short-range potential U(r)
is mapped onto a one-dimensional well by the change of variable rho = ln r:

    hbar^2 Psi'' + [W(rho) - lambda^2] Psi = 0,
    W(rho) = -2 e^(2 rho) U(e^rho) >= 0,
    lambda = l + (d - 2)/2.

W vanishes at both ends whenever r^2 U(r) -> 0 for r -> 0 and r -> infinity.
The companion "formal well" V = (V_m - W)/2 with formal energy
eps = (V_m - lambda^2)/2 recasts the same problem as a conventional
one-dimensional eigenvalue problem with equal asymptotics V_m/2 on both
sides; the defect corrections are written in that picture, directly in
terms of the LogWell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import DegenerateWellError, InputError, PotentialConditionError
from .numerics import bisect_monotone, sech2


@dataclass(frozen=True)
class Settings:
    """Global numerical knobs.

    hbar:       Planck constant in the chosen units (mass is fixed to 1).
    quad_tol:   quadrature tolerance; the action I(lambda) is computed to
                quad_tol * max(1, I), the inner correction integral to an
                absolute quad_tol.
    ode_tol:    accuracy target for the node-counting integrator.
    domain_cut: fraction of the well maximum below which W is treated as
                zero when truncating the infinite rho-line.
    """

    hbar: float = 1.0
    quad_tol: float = 1e-10
    ode_tol: float = 1e-10
    domain_cut: float = 1e-14

    def __post_init__(self) -> None:
        for name in ("hbar", "quad_tol", "ode_tol", "domain_cut"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"Settings.{name} must be strictly positive and finite")
        if self.domain_cut >= 1.0:
            raise InputError("Settings.domain_cut must be below 1")


def lambda_of(l: int, d: int) -> float:
    """Effective orbital number lambda = l + (d - 2)/2.

    For d = 3 this is the Langer-corrected l + 1/2.
    """
    if l < 0:
        raise InputError(f"orbital quantum number l must be >= 0, got {l}")
    if d < 2:
        raise InputError(f"space dimension d must be >= 2, got {d}")
    return l + 0.5 * (d - 2)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial and orbital quantum numbers in d space dimensions."""

    n: int
    l: int
    d: int = 3

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"radial quantum number n must be >= 0, got {self.n}")
        lambda_of(self.l, self.d)  # validates l and d

    @property
    def nu(self) -> float:
        """Radial combination nu = n + 1/2."""
        return self.n + 0.5

    @property
    def lam(self) -> float:
        """Effective orbital number l + (d - 2)/2."""
        return lambda_of(self.l, self.d)


@dataclass(frozen=True)
class Lenz:
    """Attractive potential U(r) = -Z / (r^2 (r^a + r^-a)^2).

    Short-range on both ends for a > 0: |U| ~ r^(2a-2) near the origin and
    ~ r^(-2a-2) at infinity.  Under the log transform it becomes the exactly
    solvable well (Z/2) sech^2(a rho).  The depth enters linearly, which is
    what makes this family the canonical end-to-end validation case.
    """

    a: float
    Z: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise InputError(f"Lenz width parameter a must be finite, got {self.a}")
        if not 0.0 < self.Z < math.inf:
            raise InputError(f"Lenz coupling Z must be positive and finite, got {self.Z}")

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        # r^a + r^-a = 2 cosh(a ln r); sech form avoids overflow at extreme r
        return -self.Z * sech2(self.a * np.log(r)) / (4.0 * np.asarray(r, dtype=float) ** 2)

    @property
    def q_origin(self) -> float:
        """Decay exponent near r = 0: |U| <= C r^(-q_origin)."""
        return 2.0 - 2.0 * self.a

    @property
    def q_infinity(self) -> float:
        """Decay exponent near r = infinity."""
        return 2.0 + 2.0 * self.a


def Tietz(Z: float) -> Lenz:
    """The Tietz potential U(r) = -Z / (r (1 + r)^2), i.e. Lenz with a = 1/2."""
    return Lenz(a=0.5, Z=Z)


@dataclass(frozen=True)
class Tabulated:
    """Potential given by samples (r_i, U_i) with declared decay exponents.

    Inside the sampled range the transformed well is evaluated by monotone
    cubic interpolation of ln W against rho = ln r, which preserves
    positivity.  Outside, the declared power laws |U| ~ r^(-q0) (origin) and
    r^(-qinf) (infinity) continue the well exponentially in rho.
    """

    r_grid: np.ndarray
    U_values: np.ndarray
    q0: float
    qinf: float
    _log_w: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r_grid, dtype=float)
        u = np.asarray(self.U_values, dtype=float)
        if r.ndim != 1 or u.shape != r.shape or r.size < 4:
            raise InputError("tabulated potential needs matching 1-d r and U arrays (>= 4 points)")
        if not np.all((r > 0.0) & (r < np.inf)) or not np.all(np.diff(r) > 0.0):
            raise InputError("tabulated r grid must be strictly ascending, positive and finite")
        if not np.all((u < 0.0) & (u > -np.inf)):
            raise InputError("tabulated U values must all be negative and finite")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "U_values", u)
        rho = np.log(r)
        w = -2.0 * r * r * u
        object.__setattr__(self, "_log_w", PchipInterpolator(rho, np.log(w), extrapolate=False))

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        rho = np.log(r)
        w = self.well_value(rho)
        return -0.5 * w * np.exp(-2.0 * rho)

    def well_value(self, rho: np.ndarray | float) -> np.ndarray | float:
        """Transformed well W(rho) with power-law continuation outside the data."""
        rho_arr = np.asarray(rho, dtype=float)
        lo, hi = self._log_w.x[0], self._log_w.x[-1]
        out = np.empty_like(rho_arr)
        inside = (rho_arr >= lo) & (rho_arr <= hi)
        out[inside] = np.exp(self._log_w(rho_arr[inside]))
        left = rho_arr < lo
        right = rho_arr > hi
        if np.any(left):
            out[left] = math.exp(self._log_w(lo)) * np.exp((2.0 - self.q0) * (rho_arr[left] - lo))
        if np.any(right):
            out[right] = math.exp(self._log_w(hi)) * np.exp((2.0 - self.qinf) * (rho_arr[right] - hi))
        return out if isinstance(rho, np.ndarray) else float(out)

    @property
    def q_origin(self) -> float:
        return self.q0

    @property
    def q_infinity(self) -> float:
        return self.qinf


RadialPotential = Union[Lenz, Tabulated]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the short-range checks r^2 U -> 0 at both ends."""

    q_origin: float
    q_infinity: float
    origin_ok: bool
    infinity_ok: bool
    messages: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.origin_ok and self.infinity_ok


def check_conditions(p: RadialPotential) -> ConditionReport:
    """Report whether r^2 U(r) vanishes at the origin and at infinity.

    Analytic families are judged by their decay exponents; tabulated data
    additionally gets its end-sample log-log slopes compared against the
    declared exponents.  Always returns a report; callers decide what to do.
    """
    q0 = p.q_origin
    qinf = p.q_infinity
    messages: list[str] = []
    origin_ok = q0 < 2.0
    infinity_ok = qinf > 2.0
    if not origin_ok:
        messages.append(f"r^2 U does not vanish at r -> 0: decay exponent q0 = {q0:g} >= 2")
    if not infinity_ok:
        messages.append(f"r^2 U does not vanish at r -> infinity: exponent qinf = {qinf:g} <= 2")
    if isinstance(p, Lenz) and p.a <= 0.0:
        messages.append(f"Lenz width parameter a = {p.a:g} violates a > 0")
    if isinstance(p, Tabulated):
        r, u = p.r_grid, p.U_values
        slope0 = -(math.log(-u[1]) - math.log(-u[0])) / (math.log(r[1]) - math.log(r[0]))
        slope1 = -(math.log(-u[-1]) - math.log(-u[-2])) / (math.log(r[-1]) - math.log(r[-2]))
        messages.append(f"end-sample decay slopes: origin {slope0:.3g}, infinity {slope1:.3g}")
        if slope0 > q0 + 0.5:
            messages.append(
                f"inner samples decay faster (slope {slope0:.3g}) than declared q0 = {q0:g}"
            )
        if slope1 < qinf - 0.5:
            messages.append(
                f"outer samples decay slower (slope {slope1:.3g}) than declared qinf = {qinf:g}"
            )
    return ConditionReport(q0, qinf, origin_ok, infinity_ok, tuple(messages))


@dataclass(frozen=True)
class WellScaling:
    """Linear coupling decomposition W(rho) = Z * base(rho)."""

    Z: float
    base: Callable[[np.ndarray], np.ndarray]
    base_deriv: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class LogWell:
    """The transformed profile W(rho) with its maximum and truncated domain.

    rho_left/rho_right mark where W falls below domain_cut * V_m; all
    quadratures and integrations run on this finite window, with analytic
    exponential-tail corrections where they matter.  decay_left/decay_right
    are the exponential rates of W at the two ends.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    V_m: float
    rho_star: float
    rho_left: float
    rho_right: float
    decay_left: float
    decay_right: float
    scaling: WellScaling | None = None
    profile_deriv: Callable[[np.ndarray], np.ndarray] | None = None
    # knot locations of piecewise-defined profiles; quadratures align on them
    breakpoints: np.ndarray | None = None

    def __call__(self, rho: np.ndarray | float) -> np.ndarray | float:
        return self.profile(rho)


def _locate_maximum(
    profile: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """Grid scan plus bounded local refinement of the profile maximum."""
    grid = np.linspace(lo, hi, 4097)
    vals = np.asarray(profile(grid))
    k = int(np.argmax(vals))
    k0 = max(k - 1, 0)
    k1 = min(k + 1, grid.size - 1)
    res = minimize_scalar(
        lambda x: -float(profile(x)),
        bounds=(grid[k0], grid[k1]),
        method="bounded",
        options={"xatol": 1e-13},
    )
    rho_star = float(res.x)
    vmax = float(profile(rho_star))
    if vals[k] >= vmax:
        rho_star, vmax = float(grid[k]), float(vals[k])
    return vmax, rho_star


def _find_cut(
    profile: Callable[[float], float],
    rho_star: float,
    target: float,
    rate: float,
    direction: int,
) -> float:
    """Outward bracket + bisection for the point where W drops to `target`."""
    step = max(1.0, 2.0 / rate)
    x = rho_star + direction * step
    guard = 0
    while float(profile(x)) > target:
        x += direction * step
        step *= 1.5
        guard += 1
        if guard > 200:
            raise PotentialConditionError("well does not decay below the domain cut")
    inner, outer = rho_star, x

    def f(rho: float) -> float:
        return float(profile(rho)) - target

    if direction > 0:
        return bisect_monotone(f, inner, outer, rtol=1e-14)
    return bisect_monotone(f, outer, inner, rtol=1e-14)


def _lenz_well_parts(p: Lenz, exponent: int):
    a, Z = p.a, p.Z
    if exponent == 2:

        def base(rho):
            return 0.5 * sech2(a * np.asarray(rho, dtype=float))

        def base_deriv(rho):
            rho = np.asarray(rho, dtype=float)
            return -a * sech2(a * rho) * np.tanh(a * rho)

        rates = (2.0 * a, 2.0 * a)
        window = 25.0 / a
    else:

        def base(rho):
            rho = np.asarray(rho, dtype=float)
            return 0.5 * np.exp(-rho) * sech2(a * rho)

        def base_deriv(rho):
            rho = np.asarray(rho, dtype=float)
            return -0.5 * np.exp(-rho) * sech2(a * rho) * (1.0 + 2.0 * a * np.tanh(a * rho))

        rates = (2.0 * a - 1.0, 2.0 * a + 1.0)
        window = 25.0 / min(a, 1.0)

    def profile(rho):
        return Z * base(rho)

    def profile_deriv(rho):
        return Z * base_deriv(rho)

    return profile, profile_deriv, base, base_deriv, rates, (-window, window)


def _tabulated_well_parts(p: Tabulated, exponent: int):
    lo, hi = p._log_w.x[0], p._log_w.x[-1]
    if exponent == 2:

        def profile(rho):
            return p.well_value(rho)

        rates = (2.0 - p.q0, p.qinf - 2.0)
    else:

        def profile(rho):
            rho = np.asarray(rho, dtype=float)
            return p.well_value(rho) * np.exp(-rho)

        rates = (1.0 - p.q0, p.qinf - 1.0)
    margin = 5.0
    return profile, None, profile, None, rates, (lo - margin, hi + margin)


def to_log_well(p: RadialPotential, s: Settings, *, transform_exponent: int = 2) -> LogWell:
    """Transform a radial potential into its log-variable well.

    The standard transform is W(rho) = -2 e^(2 rho) U(e^rho); passing
    transform_exponent=1 selects the variant -2 e^rho U(e^rho) instead,
    which is kept for the discrimination diagnostics only (it does not
    reproduce exact thresholds).

    Raises PotentialConditionError when the short-range conditions fail or
    the chosen transform does not vanish at both ends.
    """
    if transform_exponent not in (1, 2):
        raise InputError(f"transform_exponent must be 1 or 2, got {transform_exponent}")
    report = check_conditions(p)
    if not report.passed:
        raise PotentialConditionError("; ".join(report.messages) or "decay conditions violated")

    breakpoints = None
    if isinstance(p, Lenz):
        profile, deriv, base, base_deriv, rates, window = _lenz_well_parts(p, transform_exponent)
        scaling = WellScaling(Z=p.Z, base=base, base_deriv=base_deriv)
    else:
        profile, deriv, base, base_deriv, rates, window = _tabulated_well_parts(
            p, transform_exponent
        )
        scaling = WellScaling(Z=1.0, base=base, base_deriv=base_deriv)
        breakpoints = np.asarray(p._log_w.x, dtype=float)

    rate_left, rate_right = rates
    if rate_left <= 0.0:
        raise PotentialConditionError(
            f"W(rho -> -infinity) does not vanish under exponent {transform_exponent}: "
            f"decay rate {rate_left:g} <= 0"
        )
    if rate_right <= 0.0:
        raise PotentialConditionError(
            f"W(rho -> +infinity) does not vanish under exponent {transform_exponent}: "
            f"decay rate {rate_right:g} <= 0"
        )

    vmax, rho_star = _locate_maximum(profile, *window)
    if vmax <= s.domain_cut:
        raise DegenerateWellError("transformed well is numerically zero")
    target = s.domain_cut * vmax
    rho_left = _find_cut(profile, rho_star, target, rate_left, -1)
    rho_right = _find_cut(profile, rho_star, target, rate_right, +1)
    return LogWell(
        profile=profile,
        V_m=vmax,
        rho_star=rho_star,
        rho_left=rho_left,
        rho_right=rho_right,
        decay_left=rate_left,
        decay_right=rate_right,
        scaling=scaling,
        profile_deriv=deriv,
        breakpoints=breakpoints,
    )


def scale_log_well(w: LogWell, Z: float) -> LogWell:
    """Rebuild a linearly scaling well at a new coupling Z.

    The maximum location, truncation points and decay rates are coupling
    independent for W = Z * base, so only the amplitudes change.
    """
    if w.scaling is None:
        raise InputError("well has no linear coupling decomposition")
    if Z <= 0.0:
        raise InputError(f"coupling must be positive, got {Z}")
    base = w.scaling.base
    base_deriv = w.scaling.base_deriv
    ratio = Z / w.scaling.Z

    def profile(rho):
        return Z * base(rho)

    deriv = None
    if base_deriv is not None:

        def deriv(rho):
            return Z * base_deriv(rho)

    return LogWell(
        profile=profile,
        V_m=ratio * w.V_m,
        rho_star=w.rho_star,
        rho_left=w.rho_left,
        rho_right=w.rho_right,
        decay_left=w.decay_left,
        decay_right=w.decay_right,
        scaling=WellScaling(Z=Z, base=base, base_deriv=base_deriv),
        profile_deriv=deriv,
        breakpoints=w.breakpoints,
    )


_POTENTIAL_KEYS = {
    "lenz": {"family", "a", "Z"},
    "tietz": {"family", "Z"},
    "tabulated": {"family", "r", "U", "q0", "qinf"},
}


def load_potential(source: str | Path | dict) -> RadialPotential:
    """Load a potential from a JSON file, JSON text or an already-parsed dict.

    Schema (keys exactly as shown, unknown keys rejected):
        {"family": "lenz", "a": 1.0, "Z": 8.0}
        {"family": "tietz", "Z": 1.0}
        {"family": "tabulated", "r": [...], "U": [...], "q0": 1.0, "qinf": 4.0}
    """
    if isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        try:
            text = path.read_text() if path.exists() else str(source)
            data = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read potential specification: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("potential specification must be a JSON object")
    family = data.get("family")
    if family not in _POTENTIAL_KEYS:
        raise InputError(f"unknown potential family: {family!r}")
    extra = set(data) - _POTENTIAL_KEYS[family]
    if extra:
        raise InputError(f"unknown keys for family {family!r}: {sorted(extra)}")
    missing = _POTENTIAL_KEYS[family] - set(data)
    if missing:
        raise InputError(f"missing keys for family {family!r}: {sorted(missing)}")
    try:
        if family == "lenz":
            return Lenz(a=float(data["a"]), Z=float(data["Z"]))
        if family == "tietz":
            return Tietz(Z=float(data["Z"]))
        return Tabulated(
            r_grid=np.asarray(data["r"], dtype=float),
            U_values=np.asarray(data["U"], dtype=float),
            q0=float(data["q0"]),
            qinf=float(data["qinf"]),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid potential parameters: {exc}") from exc
