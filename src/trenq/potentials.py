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

from .errors import DegenerateWellError, InputError, PotentialConditionError
from .numerics import Pchip, brent, sech2


# fraction of the well maximum below which to_log_well treats W as zero
# when it truncates the infinite rho-line
DOMAIN_CUT = 1e-14
# largest ode_tol: up to it the oracle's coarse grid, 4x the fine step, stays
# in the h^4 regime, so every smooth-well threshold is the Richardson value
# of its coarse and fine roots and meets ode_tol / 10 (criterion-1 grid: 7.1e-9
# and 5.6e-9 at 1e-7 under hbar 1 and 0.5; at 1e-6 Lenz(2, 1)'s Z_c(0, l = 0)
# was 1.43e-7 off under hbar 0.5, its coarse/fine error ratio 295, not 256).
# The coarse step has h k <= 6.4 ode_tol^(1/6) <= 0.44 (lambda/hbar <= k), so
# the Numerov weights g = 1 - h^2 (lambda^2 - W) / (12 hbar^2) stay >= 0.984
_ODE_TOL_MAX = 1e-7


@dataclass(frozen=True)
class Settings:
    """Numerical knobs of a run; the CLI flags --hbar, --quad-tol and --ode-tol.

    hbar:       Planck constant in the chosen units (mass is fixed to 1).
    quad_tol:   quadrature tolerance; on a closed-form well the action
                I(lambda) is computed to quad_tol * max(1, I), the slopes of
                the inner correction integral to an absolute
                max(1e-12, 1e-3 quad_tol).  Tabulated wells: see action().
    ode_tol:    sets the node-counting grid, h ~ ode_tol^(1/6).  On a smooth
                well the oracle's critical couplings are within
                max(ode_tol / 10, 1e-12) relative (6.9e-12 at the default on
                the criterion-1 grid); they are extrapolated from the roots
                on the grid and on one 4x coarser.  Below ~5e-13 rounding on
                the longer grid raises that floor (1.5e-12 at 1e-14).  Not
                estimated at run time.  A Tabulated W is only C^1 and is not
                extrapolated: on 400 samples of Lenz(1, 1), Z_c(0, l = 0) at
                the default is 3.0e-7 off an ode_tol = 1e-14 reference, and
                moves between 1.1e-7 and 5.7e-7 as the step changes by a few
                percent, as it does when the grid's end moves with rho_star
                across a flat top (-3.2e-7 to 4.0e-7 over 0.08 on 400 samples
                of Lenz(1.21, 84.6)).  At most _ODE_TOL_MAX = 1e-7: beyond it
                the coarse grid leaves the h^4 regime.

    The truncation of the rho-line is fixed by DOMAIN_CUT, not set here.
    """

    hbar: float = 1.0
    quad_tol: float = 1e-10
    ode_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("hbar", "quad_tol", "ode_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"Settings.{name} must be strictly positive and finite")
        if self.ode_tol > _ODE_TOL_MAX:
            raise InputError(f"Settings.ode_tol must be <= {_ODE_TOL_MAX:g}, got {self.ode_tol:g}")


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

    The transformed well is exp of one piecewise function ln W of rho = ln r
    on the whole line (numerics.Pchip), which keeps W positive.  Inside the
    sampled range it is the monotone cubic interpolant (Fritsch-Carlson) of
    ln W; each of its pieces stays between its end values, also at peaks and
    dips, so every extremum of W lies at a sample: to_log_well takes the
    peak, the cut cells and split_level from the samples on this ground.  It
    is C^1 only, so W'' jumps at the samples.  Its two end pieces are the
    declared power laws |U| ~ r^(-q0) (origin) and r^(-qinf) (infinity), lines
    of slope 2 - q0 and 2 - qinf in ln W.
    """

    r_grid: np.ndarray
    U_values: np.ndarray
    q0: float
    qinf: float
    _log_w: Pchip = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r_grid, dtype=float)
        u = np.asarray(self.U_values, dtype=float)
        if r.ndim != 1 or u.shape != r.shape or r.size < 4:
            raise InputError("tabulated potential needs matching 1-d r and U arrays (>= 4 points)")
        if not np.all((r > 0.0) & (r < np.inf)) or not np.all(np.diff(r) > 0.0):
            raise InputError("tabulated r grid must be strictly ascending, positive and finite")
        with np.errstate(over="ignore"):
            w = -2.0 * r * r * u
        if not np.all((w > 0.0) & (w < np.inf)):
            raise InputError("tabulated U must give W = -2 r^2 U positive and finite at every sample")
        if not (math.isfinite(self.q0) and math.isfinite(self.qinf)):
            raise InputError(
                f"tabulated decay exponents must be finite, got q0 = {self.q0}, qinf = {self.qinf}"
            )
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "U_values", u)
        log_w = Pchip(np.log(r), np.log(w), (2.0 - self.q0, 2.0 - self.qinf))
        object.__setattr__(self, "_log_w", log_w)

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        # U = -W e^(-2 rho) / 2 in one exp: near r = 0, W underflows where
        # e^(-2 rho) overflows, while their product stays finite
        rho = np.log(r)
        return -0.5 * np.exp(self._log_w(rho) - 2.0 * rho)

    def well_value(self, rho: np.ndarray | float) -> np.ndarray | float:
        """W(rho) = exp(ln W(rho)): a float for a scalar rho, else an array of rho's shape."""
        w = np.exp(self._log_w(rho))
        return np.asarray(w) if isinstance(rho, np.ndarray) else float(w)

    def well_curvature(self, rho: np.ndarray) -> np.ndarray:
        """W'' = W ((ln W)'' + (ln W)'^2) off each point's piece: (2 - q)^2 W on an end piece."""
        slope, curv = self._log_w.derivatives(rho)
        return self.well_value(rho) * (curv + slope * slope)

    @property
    def q_origin(self) -> float:
        return self.q0

    @property
    def q_infinity(self) -> float:
        return self.qinf


RadialPotential = Union[Lenz, Tabulated]


@dataclass(frozen=True)
class LogWell:
    """The transformed well W(rho) = Z * base(rho) with its maximum and truncated domain.

    Z is the coupling (1 for a tabulated well), base the coupling-free shape
    and base_curv its exact second derivative, W'' = Z * base_curv.  base
    must be elementwise: its value at a point may not depend on the other
    points of the array it is given, since the oracle evaluates the well one
    block of its grid at a time.
    rho_left/rho_right are the outermost points at which W falls to
    DOMAIN_CUT * V_m, so a dip below the cut between two humps stays inside
    the truncated domain; all quadratures and integrations run on this
    finite window, with analytic exponential-tail corrections where they
    matter.  decay_left/decay_right are the exponential rates of W at the
    two ends.  split_level is None for a single-hump well; otherwise, for
    lambda^2 between the domain-cut floor and split_level, the classically
    allowed set W > lambda^2 may fall apart into several intervals
    (_split_level), which the action rejects.

    _memo holds what other modules compute once per well, each under keys
    of its own; it starts empty and is filled lazily by its readers.
    """

    base: Callable[[np.ndarray], np.ndarray]
    Z: float
    V_m: float
    rho_star: float
    rho_left: float
    rho_right: float
    decay_left: float
    decay_right: float
    base_curv: Callable[[np.ndarray], np.ndarray]
    # knot locations of piecewise-defined profiles; quadratures align on them
    breakpoints: np.ndarray | None = None
    split_level: float | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def profile(self, rho: np.ndarray | float) -> np.ndarray | float:
        """W(rho) = Z * base(rho)."""
        return self.Z * self.base(rho)


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


def _lenz_well_parts(p: Lenz):
    """base b = (1/2) sech^2(a rho) and b'' = a^2 sech^2 (3 tanh^2 - 1) = 4 a^2 b (1 - 3 b)."""
    a = p.a

    def base(rho):
        return 0.5 * sech2(a * np.asarray(rho, dtype=float))

    def base_curv(rho):
        b = base(rho)
        return 4.0 * a * a * b * (1.0 - 3.0 * b)

    return base, base_curv


def _printed_lenz_parts(p: Lenz):
    """The printed base b e^(-rho) and (b'' - 2 b' + b) e^(-rho), b' = -2 a b tanh(a rho)."""
    base, base_curv = _lenz_well_parts(p)

    def printed(rho):
        rho = np.asarray(rho, dtype=float)
        return base(rho) * np.exp(-rho)

    def printed_curv(rho):
        rho = np.asarray(rho, dtype=float)
        b = base(rho)
        return (base_curv(rho) + 4.0 * p.a * b * np.tanh(p.a * rho) + b) * np.exp(-rho)

    return printed, printed_curv


def _tabulated_geometry(p: Tabulated) -> tuple[float, float, float, float, float | None]:
    """(V_m, rho_star, rho_left, rho_right, split_level) of a tabulated well, off its samples.

    The interpolant keeps every piece between its end values, so the top
    sample is the maximum, and on each side the outermost crossing of the
    cut lies on the power-law end piece, in closed form from the end sample,
    when that sample is above the cut, and otherwise in the outermost knot
    cell that straddles it, where Brent's method solves the monotone cubic
    ln W.
    """
    log_w, x = p._log_w, p._log_w.x
    ys = log_w(x)
    vals = np.exp(ys)  # what well_value returns at the samples
    k = int(np.argmax(vals))
    vmax = float(vals[k])
    if vmax <= DOMAIN_CUT:
        raise DegenerateWellError("transformed well is numerically zero")
    target = DOMAIN_CUT * vmax
    log_target = math.log(target)
    above = np.flatnonzero(ys > log_target)
    cuts = []
    for i, step, q in ((above[0], -1, p.q0), (above[-1], 1, p.qinf)):
        j = i + step
        if not 0 <= j < x.size:
            cut = x[i] + math.log(target / vals[i]) / (2.0 - q)
        else:
            cut = brent(lambda rho: log_w(rho) - log_target, x[i], x[j],
                        ys[i] - log_target, ys[j] - log_target,
                        xtol=1e-14 * (x[j] - x[i]) * step, rtol=1e-14)
        if not math.isfinite(cut):
            raise PotentialConditionError("W reaches DOMAIN_CUT * V_m only beyond the float range")
        cuts.append(float(cut))
    return vmax, float(x[k]), cuts[0], cuts[1], _split_level(vals, target)


_LN2 = math.log(2.0)


def _printed_lenz_geometry(p: Lenz, profile) -> tuple[float, float, float, float]:
    """(V_m, rho_star, rho_left, rho_right) of the printed well (Z/2) sech^2(a rho) e^(-rho).

    ln W is concave; it peaks where 2a tanh(a rho) = -1 and decays at rate
    c = 2a -+ 1 on either side.  There e^(-2|x|) <= sech^2 x <= 4 e^(-2|x|)
    puts each cut between the distances ln(Z / (2 target)) / c and
    ln(4 Z / target) / c from 0 (a factor 2 beyond the bound, which is tight
    to rounding), and Brent's method solves ln W = ln target there with
    2 ln sech computed stably.  A peak or cut where profile, the well, is
    not a positive finite float raises PotentialConditionError.
    """
    a = p.a
    rho_star = -math.atanh(0.5 / a) / a
    with np.errstate(over="ignore"):
        vmax = float(profile(rho_star))
    if vmax <= DOMAIN_CUT:
        raise DegenerateWellError("transformed well is numerically zero")
    if vmax == math.inf:
        raise PotentialConditionError("the printed well overflows at its peak")
    target = DOMAIN_CUT * vmax
    log_ratio = math.log(0.5 * p.Z) - math.log(target)

    def f(rho: float) -> float:
        x = abs(a * rho)
        return log_ratio + 2.0 * (_LN2 - x - math.log1p(math.exp(-2.0 * x))) - rho

    cuts = []
    for side, rate in ((-1.0, 2.0 * a - 1.0), (1.0, 2.0 * a + 1.0)):
        inner, outer = side * log_ratio / rate, side * (log_ratio + 3.0 * _LN2) / rate
        xtol = 1e-14 * abs(outer - inner)
        cuts.append(brent(f, inner, outer, f(inner), f(outer), xtol=xtol, rtol=1e-14))
    # e^(-rho) overflows beyond rho = -709, and sech^2 underflows far out
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(0.0 < float(profile(cut)) < math.inf for cut in cuts):
            raise PotentialConditionError("W is not a positive finite float at a domain cut")
    return vmax, rho_star, cuts[0], cuts[1]


def to_log_well(p: RadialPotential, s: Settings, *, transform_exponent: int = 2) -> LogWell:
    """Transform a radial potential into its log-variable well.

    The standard transform is W(rho) = -2 e^(2 rho) U(e^rho); passing
    transform_exponent=1 selects the printed variant -2 e^rho U(e^rho) =
    W e^(-rho) instead, kept for the discrimination diagnostics only (it
    does not reproduce exact thresholds).

    Under exponent e the well decays as e^(rate rho) with rate e - q_origin
    as rho -> -infinity (r -> 0) and q_infinity - e as rho -> +infinity.
    The potential is admissible when both rates are positive for e = 2,
    which is the short-range condition r^2 U -> 0, and for the chosen
    exponent; otherwise PotentialConditionError names every end that fails.

    Each family reads its peak and its cuts at DOMAIN_CUT * V_m off its own
    definition: a Lenz (and so Tietz) well in closed form, or by Brent's
    method in a closed-form bracket for the printed variant
    (_printed_lenz_geometry); a tabulated well off its samples, which also
    give split_level (_tabulated_geometry).  The printed variant of a
    tabulated U is the standard well of U/r, whose decay exponents are one
    higher.  The well does not depend on s.  A cut beyond the float range,
    W not a positive finite float at a cut or at a sample of -2 r U, or a
    q0 + 1 that rounds to 2 also raises PotentialConditionError.
    """
    e = transform_exponent
    if e not in (1, 2):
        raise InputError(f"transform_exponent must be 1 or 2, got {e}")
    q0, qinf = p.q_origin, p.q_infinity
    slowest = {"r -> 0": min(e, 2) - q0, "r -> infinity": qinf - max(e, 2)}
    failed = " and ".join(end for end, rate in slowest.items() if rate <= 0.0)
    if failed:
        raise PotentialConditionError(
            f"W does not vanish at {failed}: q0 = {q0:g} must be below {min(e, 2)} "
            f"and qinf = {qinf:g} above {max(e, 2)}"
        )

    split_level = None
    if isinstance(p, Lenz):
        Z, breakpoints = p.Z, None
        if e == 1:
            base, base_curv = _printed_lenz_parts(p)
            vmax, rho_star, rho_left, rho_right = _printed_lenz_geometry(p, lambda x: Z * base(x))
        else:
            base, base_curv = _lenz_well_parts(p)
            # (Z/2) sech^2(a rho) peaks at 0 and falls to DOMAIN_CUT of its peak
            # at cosh(a rho) = DOMAIN_CUT^(-1/2); one hump by construction
            vmax, rho_star = float(Z * base(0.0)), 0.0
            if vmax <= DOMAIN_CUT:
                raise DegenerateWellError("transformed well is numerically zero")
            cut = math.acosh(DOMAIN_CUT**-0.5) / p.a
            rho_left, rho_right = -cut, cut
    else:
        if e == 1:
            # -2 e^rho U(e^rho) = -2 e^(2 rho) (U/r)(e^rho)
            if q0 + 1.0 >= 2.0:  # within an ulp below q0 = 1, flat at r -> 0
                raise PotentialConditionError("W does not vanish at r -> 0: q0 + 1 rounds to 2")
            try:
                with np.errstate(over="ignore"):
                    p = Tabulated(p.r_grid, p.U_values / p.r_grid, q0 + 1.0, qinf + 1.0)
            except InputError:  # U/r or -2 r U leaves the float range at a sample
                raise PotentialConditionError("printed W = -2 r U is out of float range") from None
        Z, breakpoints = 1.0, np.asarray(p._log_w.x, dtype=float)
        base, base_curv = p.well_value, p.well_curvature
        vmax, rho_star, rho_left, rho_right, split_level = _tabulated_geometry(p)
    return LogWell(
        base=base,
        Z=Z,
        V_m=vmax,
        rho_star=rho_star,
        rho_left=rho_left,
        rho_right=rho_right,
        decay_left=e - q0,
        decay_right=qinf - e,
        base_curv=base_curv,
        breakpoints=breakpoints,
        split_level=split_level,
    )


_POTENTIAL_KEYS = {
    "lenz": {"family", "a", "Z"},
    "tietz": {"family", "Z"},
    "tabulated": {"family", "r", "U", "q0", "qinf"},
}


def load_potential(source: str | Path | dict) -> RadialPotential:
    """Load a potential from a JSON file, JSON text or an already-parsed dict.

    A str whose first non-blank character is "{" is JSON text; any other str
    or Path names a UTF-8 file.  The text is never looked up as a file name,
    so an inline spec of any length loads.

    Schema (keys exactly as shown, unknown keys rejected):
        {"family": "lenz", "a": 1.0, "Z": 8.0}
        {"family": "tietz", "Z": 1.0}
        {"family": "tabulated", "r": [...], "U": [...], "q0": 1.0, "qinf": 4.0}
    """
    if isinstance(source, dict):
        data = source
    else:
        is_text = isinstance(source, str) and source.lstrip().startswith("{")
        try:
            data = json.loads(source if is_text else Path(source).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read potential specification: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("potential specification must be a JSON object")
    family = data.get("family")
    if not isinstance(family, str) or family not in _POTENTIAL_KEYS:
        raise InputError(f"unknown potential family: {family!r}")
    extra = set(data) - _POTENTIAL_KEYS[family]
    if extra:
        raise InputError(f"unknown keys for family {family!r}: {sorted(extra)}")
    missing = _POTENTIAL_KEYS[family] - set(data)
    if missing:
        raise InputError(f"missing keys for family {family!r}: {sorted(missing)}")
    if family == "lenz":
        return Lenz(a=_number(data["a"], "a"), Z=_number(data["Z"], "Z"))
    if family == "tietz":
        return Tietz(Z=_number(data["Z"], "Z"))
    return Tabulated(
        r_grid=_numbers(data["r"], "r"),
        U_values=_numbers(data["U"], "U"),
        q0=_number(data["q0"], "q0"),
        qinf=_number(data["qinf"], "qinf"),
    )


def _number(value, key: str) -> float:
    """value as a float; InputError unless it is a number (a bool is not, nor a numeric string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"potential key {key!r} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise InputError(f"potential key {key!r} is beyond the double range") from None


def _numbers(values, key: str) -> np.ndarray:
    """values as a float array, every element checked by _number before NumPy converts it."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # NumPy bools become bools, NumPy floats floats
    if not isinstance(values, (list, tuple)):
        raise InputError(f"potential key {key!r} must be a JSON array of numbers, got {values!r}")
    return np.array([_number(v, key) for v in values], dtype=float)
