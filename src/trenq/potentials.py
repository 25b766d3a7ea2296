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
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DegenerateWellError, InputError, PotentialConditionError
from .numerics import brent, sech2


@dataclass(frozen=True)
class Settings:
    """Global numerical knobs.

    hbar:       Planck constant in the chosen units (mass is fixed to 1).
    quad_tol:   quadrature tolerance; the action I(lambda) is computed to
                quad_tol * max(1, I), the inner correction integral to an
                absolute quad_tol.
    ode_tol:    sets the node-counting grid, h ~ ode_tol^(1/4); the oracle's
                critical couplings then carry a grid error of up to about
                15 * ode_tol relative (1.5e-9 at the default), which
                is not estimated at run time.
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


def quantum_index(value: int, name: str) -> int:
    """value as a nonnegative Python int (NumPy integers pass); else InputError."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if index < 0:
        raise InputError(f"{name} must be >= 0, got {index}")
    return index


def lambda_of(l: int, d: int) -> float:
    """Effective orbital number lambda = l + (d - 2)/2.

    For d = 3 this is the Langer-corrected l + 1/2.
    """
    l = quantum_index(l, "orbital quantum number l")
    d = quantum_index(d, "space dimension d")
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
        quantum_index(self.n, "radial quantum number n")
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
    # (lo, hi, W(lo), W(hi)) at the ends of the data in rho
    _ends: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r_grid, dtype=float)
        u = np.asarray(self.U_values, dtype=float)
        if r.ndim != 1 or u.shape != r.shape or r.size < 4:
            raise InputError("tabulated potential needs matching 1-d r and U arrays (>= 4 points)")
        if not np.all((r > 0.0) & (r < np.inf)) or not np.all(np.diff(r) > 0.0):
            raise InputError("tabulated r grid must be strictly ascending, positive and finite")
        if not np.all((u < 0.0) & (u > -np.inf)):
            raise InputError("tabulated U values must all be negative and finite")
        if not (math.isfinite(self.q0) and math.isfinite(self.qinf)):
            raise InputError(
                f"tabulated decay exponents must be finite, got q0 = {self.q0}, qinf = {self.qinf}"
            )
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "U_values", u)
        rho = np.log(r)
        w = -2.0 * r * r * u
        log_w = PchipInterpolator(rho, np.log(w), extrapolate=False)
        lo, hi = log_w.x[0], log_w.x[-1]
        object.__setattr__(self, "_log_w", log_w)
        object.__setattr__(self, "_ends", (lo, hi, math.exp(log_w(lo)), math.exp(log_w(hi))))

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        rho = np.log(r)
        w = self.well_value(rho)
        return -0.5 * w * np.exp(-2.0 * rho)

    def well_value(self, rho: np.ndarray | float) -> np.ndarray | float:
        """Transformed well W(rho) with power-law continuation outside the data."""
        rho_arr = np.asarray(rho, dtype=float)
        lo, hi, w_lo, w_hi = self._ends
        out = np.empty_like(rho_arr)
        if rho_arr.size and lo <= rho_arr.min() and rho_arr.max() <= hi:
            np.exp(self._log_w(rho_arr), out=out)
        else:
            inside = (rho_arr >= lo) & (rho_arr <= hi)
            out[inside] = np.exp(self._log_w(rho_arr[inside]))
            left = rho_arr < lo
            right = rho_arr > hi
            out[left] = w_lo * np.exp((2.0 - self.q0) * (rho_arr[left] - lo))
            out[right] = w_hi * np.exp((2.0 - self.qinf) * (rho_arr[right] - hi))
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
    declared exponents, and a note when its transformed well -2 r^2 U has
    more than one hump (the monotone interpolant has its extrema at the
    samples), since the action is then rejected for lambda^2 below the
    second hump.  Always returns a report; callers decide what to do.
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
        level = _split_level(-2.0 * r * r * u, 0.0)
        if level is not None:
            messages.append(
                f"well -2 r^2 U has more than one hump: the classically allowed region "
                f"can split for lambda^2 below {level:.3g}, where the action is rejected"
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

    rho_left/rho_right are the outermost points at which the scan of the
    search window sees W fall to domain_cut * V_m, so a dip below the cut
    between two humps stays inside the truncated domain; all
    quadratures and integrations run on this finite window, with analytic
    exponential-tail corrections where they matter.  decay_left/decay_right
    are the exponential rates of W at the two ends.  split_level is None for
    a single-hump well; otherwise, for lambda^2 between the domain-cut floor
    and split_level, the classically allowed set W > lambda^2 may fall apart
    into several intervals (_split_level), which the action rejects.
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
    split_level: float | None = None
    # (I(0), error estimate) per Settings, filled by the action module
    _zero_action: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # [scan points, W at them] of the turning-point search, filled by the action module
    _turning_scan: list = field(default_factory=list, init=False, repr=False, compare=False)
    # (count, log amplitude) per (lambda, Settings, Z) of each point the
    # oracle's geometric bracket counts on this well, filled by the oracle
    _bracket_counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, rho: np.ndarray | float) -> np.ndarray | float:
        return self.profile(rho)


_SCAN_POINTS = 4097
_ZOOM_POINTS = 65


def _split_level(vals: np.ndarray, depth: float) -> float | None:
    """Highest level below which {W > level} can split, from samples of W.

    A sample lies in a dip when the highest sample on each side of it
    exceeds it; W > lambda^2 is then disconnected for lambda^2 from the
    sample's value up to the lower of those two rims, which is the running
    maximum from the outer end on its side of the global maximum.  Returns
    the highest rim over the dips deeper than `depth`, or None when there is
    none.
    """
    k = int(np.argmax(vals))
    rim = np.concatenate(
        (np.maximum.accumulate(vals[:k]), np.maximum.accumulate(vals[k:][::-1])[::-1])
    )
    dips = rim - vals > depth
    return float(np.max(rim[dips])) if np.any(dips) else None


def _locate_maximum(
    profile: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, vals: np.ndarray
) -> tuple[float, float]:
    """(V_m, rho_star) from the window scan `vals = profile(grid)`, refined by zooms.

    The bracket starts as the two grid cells next to the scan's argmax; each
    zoom evaluates the profile on _ZOOM_POINTS points across the bracket and
    narrows it to the two cells next to their argmax (1/32 of its width),
    until it is narrower than 1e-13 (relative to |rho| beyond 1), about nine
    zooms.  The best value seen is kept and replaced only by a strictly
    larger one, so V_m is never below the scan maximum and a grid point that
    already holds the top stays put.
    """
    k = int(np.argmax(vals))
    vmax, rho_star = float(vals[k]), float(grid[k])
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    while hi - lo > 1e-13 * max(1.0, abs(rho_star)):
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        v = np.asarray(profile(x))
        j = int(np.argmax(v))
        if v[j] > vmax:
            vmax, rho_star = float(v[j]), float(x[j])
        lo, hi = x[max(j - 1, 0)], x[min(j + 1, x.size - 1)]
    return vmax, rho_star


def _find_cut(
    profile: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    vals: np.ndarray,
    target: float,
    rate: float,
    direction: int,
) -> float:
    """Outermost point on one side where W drops to `target`.

    The window scan `vals = profile(grid)` brackets the outermost crossing of
    `target` on the `direction` side (-1 left, +1 right) in one grid cell;
    Brent's method solves inside it from the two scan values.  When W is
    still above `target` at the window end, the bracket comes from stepping
    outward from there in growing steps (at most 200).
    """

    def f(rho: float) -> float:
        return float(profile(rho)) - target

    above = np.flatnonzero(vals > target)
    if above.size == 0:
        raise PotentialConditionError(
            "no point of the window scan lies above the domain cut; domain_cut is too coarse"
        )
    edge = int(above[0]) if direction < 0 else int(above[-1])
    x_in, f_in = float(grid[edge]), float(vals[edge]) - target
    outer = edge + direction
    if 0 <= outer < grid.size:
        x_out, f_out = float(grid[outer]), float(vals[outer]) - target
    else:
        step = max(1.0, 2.0 / rate)
        x_out = x_in + direction * step
        f_out = f(x_out)
        guard = 0
        while f_out > 0.0:
            x_in, f_in = x_out, f_out
            x_out += direction * step
            f_out = f(x_out)
            step *= 1.5
            guard += 1
            if guard > 200:
                raise PotentialConditionError("well does not decay below the domain cut")
    return brent(f, x_in, x_out, f_in, f_out, xtol=1e-14 * (grid[1] - grid[0]), rtol=1e-14)


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

    One vectorized evaluation of the profile on a _SCAN_POINTS grid across a
    search window serves the maximum (_locate_maximum) and brackets both
    domain cuts (_find_cut).

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

    grid = np.linspace(*window, _SCAN_POINTS)
    vals = np.asarray(profile(grid), dtype=float)
    vmax, rho_star = _locate_maximum(profile, grid, vals)
    if vmax <= s.domain_cut:
        raise DegenerateWellError("transformed well is numerically zero")
    target = s.domain_cut * vmax
    rho_left = _find_cut(profile, grid, vals, target, rate_left, -1)
    rho_right = _find_cut(profile, grid, vals, target, rate_right, +1)
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
        # the sech^2-type analytic wells have one hump by construction
        split_level=None if isinstance(p, Lenz) else _split_level(vals, target),
    )


def scale_log_well(w: LogWell, Z: float) -> LogWell:
    """Rebuild a linearly scaling well at a new coupling Z.

    The maximum location, truncation points and decay rates are coupling
    independent for W = Z * base, so only the amplitudes change.
    """
    if w.scaling is None:
        raise InputError("well has no linear coupling decomposition")
    if not 0.0 < Z < math.inf:
        raise InputError(f"coupling must be positive and finite, got {Z}")
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
        split_level=None if w.split_level is None else ratio * w.split_level,
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
