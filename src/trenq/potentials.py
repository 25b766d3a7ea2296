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
# largest ode_tol: the Numerov weights g = 1 - h^2 (lambda^2 - W) / (12 hbar^2)
# of the oracle stay >= 1 - 3.63 sqrt(ode_tol) >= 0.64 (h k <= 6.6 ode_tol^(1/4)
# with lambda/hbar <= k), so the node count and its amplitude stay defined
_ODE_TOL_MAX = 1e-2


@dataclass(frozen=True)
class Settings:
    """Numerical knobs of a run; the CLI flags --hbar, --quad-tol and --ode-tol.

    hbar:       Planck constant in the chosen units (mass is fixed to 1).
    quad_tol:   quadrature tolerance; the action I(lambda) is computed to
                quad_tol * max(1, I), the inner correction integral to an
                absolute quad_tol.
    ode_tol:    sets the node-counting grid, h ~ ode_tol^(1/4); the oracle's
                critical couplings then carry a grid error of up to about
                15 * ode_tol relative (1.5e-9 at the default), which
                is not estimated at run time.  At most _ODE_TOL_MAX.

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

    Inside the sampled range the transformed well is exp of the monotone
    cubic interpolant (numerics.Pchip, Fritsch-Carlson) of ln W against
    rho = ln r, which keeps W positive and, since the interpolant does not
    overshoot, puts every extremum of W at a sample.  It is C^1 only, so W''
    jumps at the samples.  Outside, the declared power laws |U| ~ r^(-q0)
    (origin) and r^(-qinf) (infinity) continue the well exponentially in rho.
    """

    r_grid: np.ndarray
    U_values: np.ndarray
    q0: float
    qinf: float
    _log_w: Pchip = field(init=False, repr=False, compare=False)
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
        log_w = Pchip(rho, np.log(w))
        lo, hi = log_w.x[0], log_w.x[-1]
        object.__setattr__(self, "_log_w", log_w)
        object.__setattr__(self, "_ends", (lo, hi, math.exp(log_w(lo)), math.exp(log_w(hi))))

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        rho = np.log(r)
        w = self.well_value(rho)
        return -0.5 * w * np.exp(-2.0 * rho)

    def well_value(self, rho: np.ndarray | float) -> np.ndarray | float:
        """Transformed well W(rho) with power-law continuation outside the data."""
        lo, hi, w_lo, w_hi = self._ends
        if not isinstance(rho, np.ndarray):
            # one point: the array branches' arithmetic on a Python float
            rho = float(rho)
            if rho < lo:
                return float(w_lo * np.exp((2.0 - self.q0) * (rho - lo)))
            if rho > hi:
                return float(w_hi * np.exp((2.0 - self.qinf) * (rho - hi)))
            return float(np.exp(self._log_w(rho)))
        rho_arr = np.asarray(rho, dtype=float)
        out = np.empty_like(rho_arr)
        if rho_arr.size and lo <= rho_arr.min() and rho_arr.max() <= hi:
            np.exp(self._log_w(rho_arr), out=out)
        else:
            out.fill(np.nan)  # nan is neither inside nor outside the data
            inside = (rho_arr >= lo) & (rho_arr <= hi)
            out[inside] = np.exp(self._log_w(rho_arr[inside]))
            left = rho_arr < lo
            right = rho_arr > hi
            out[left] = w_lo * np.exp((2.0 - self.q0) * (rho_arr[left] - lo))
            out[right] = w_hi * np.exp((2.0 - self.qinf) * (rho_arr[right] - hi))
        return out

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
    and base_deriv its derivative, or None where it has no closed form.
    base must be elementwise: its value at a point may not depend on the
    other points of the array it is given, since the oracle evaluates the
    well one block of its grid at a time.
    rho_left/rho_right are the outermost points at which the scan of the
    search window sees W fall to DOMAIN_CUT * V_m, so a dip below the cut
    between two humps stays inside the truncated domain; all
    quadratures and integrations run on this finite window, with analytic
    exponential-tail corrections where they matter.  decay_left/decay_right
    are the exponential rates of W at the two ends.  split_level is None for
    a single-hump well; otherwise, for lambda^2 between the domain-cut floor
    and split_level, the classically allowed set W > lambda^2 may fall apart
    into several intervals (_split_level), which the action rejects.

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
    base_deriv: Callable[[np.ndarray], np.ndarray] | None = None
    # knot locations of piecewise-defined profiles; quadratures align on them
    breakpoints: np.ndarray | None = None
    split_level: float | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def profile(self, rho: np.ndarray | float) -> np.ndarray | float:
        """W(rho) = Z * base(rho)."""
        return self.Z * self.base(rho)

    def profile_deriv(self, rho: np.ndarray | float) -> np.ndarray | float:
        """W'(rho) = Z * base_deriv(rho); only for a well with a base_deriv."""
        return self.Z * self.base_deriv(rho)


_SCAN_POINTS = 4097
_ZOOM_POINTS = 65
# k of the zoom grid's points lo + k (hi - lo)/64, np.linspace's arithmetic
_ZOOM_STEPS = np.arange(float(_ZOOM_POINTS))


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


def _zoom_grid(lo: float, hi: float) -> np.ndarray:
    """np.linspace(lo, hi, _ZOOM_POINTS), bit for bit, without its call overhead."""
    x = _ZOOM_STEPS * ((hi - lo) / (_ZOOM_POINTS - 1))
    x += lo
    x[-1] = hi
    return x


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
        x = _zoom_grid(lo, hi)
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
    outward from there in growing steps; a step that lands where W is not a
    finite float is halved back towards the last finite point, and
    PotentialConditionError is raised when 200 steps find no crossing.
    """

    def f(rho: float) -> float:
        return float(profile(rho)) - target

    above = np.flatnonzero(vals > target)
    if above.size == 0:
        raise PotentialConditionError("no point of the window scan lies above DOMAIN_CUT * V_m")
    edge = int(above[0]) if direction < 0 else int(above[-1])
    x_in, f_in = float(grid[edge]), float(vals[edge]) - target
    outer = edge + direction
    if 0 <= outer < grid.size:
        x_out, f_out = float(grid[outer]), float(vals[outer]) - target
    else:
        step = max(1.0, 2.0 / rate)
        x_out = x_in + direction * step
        # e^(-rho) of the printed variant overflows beyond rho = -709
        with np.errstate(over="ignore", invalid="ignore"):
            f_out = f(x_out)
            for _ in range(201):
                if f_out <= 0.0:
                    break
                if math.isfinite(f_out):
                    x_in, f_in = x_out, f_out
                    x_out += direction * step
                    step *= 1.5
                else:  # step back towards the last finite W
                    x_out = 0.5 * (x_in + x_out)
                f_out = f(x_out)
            else:
                raise PotentialConditionError("W does not reach DOMAIN_CUT * V_m while finite")
    return brent(f, x_in, x_out, f_in, f_out, xtol=1e-14 * (grid[1] - grid[0]), rtol=1e-14)


def _lenz_well_parts(p: Lenz):
    a = p.a

    def base(rho):
        return 0.5 * sech2(a * np.asarray(rho, dtype=float))

    def base_deriv(rho):
        rho = np.asarray(rho, dtype=float)
        return -a * sech2(a * rho) * np.tanh(a * rho)

    return base, base_deriv, (-25.0 / a, 25.0 / a)


def _tabulated_well_parts(p: Tabulated):
    lo, hi = p._log_w.x[0], p._log_w.x[-1]
    return p.well_value, None, (lo - 5.0, hi + 5.0)


def _printed_parts(base, base_deriv):
    """base e^(-rho) and its derivative (base' - base) e^(-rho): the printed variant."""

    def printed(rho):
        rho = np.asarray(rho, dtype=float)
        return base(rho) * np.exp(-rho)

    def printed_deriv(rho):
        rho = np.asarray(rho, dtype=float)
        return (base_deriv(rho) - base(rho)) * np.exp(-rho)

    return printed, None if base_deriv is None else printed_deriv


def to_log_well(p: RadialPotential, s: Settings, *, transform_exponent: int = 2) -> LogWell:
    """Transform a radial potential into its log-variable well.

    The standard transform is W(rho) = -2 e^(2 rho) U(e^rho); passing
    transform_exponent=1 selects the printed variant -2 e^rho U(e^rho) =
    W e^(-rho) instead, built from the standard well of any family and kept
    for the discrimination diagnostics only (it does not reproduce exact
    thresholds).

    Under exponent e the well decays as e^(rate rho) with rate e - q_origin
    as rho -> -infinity (r -> 0) and q_infinity - e as rho -> +infinity.
    The potential is admissible when both rates are positive for e = 2,
    which is the short-range condition r^2 U -> 0, and for the chosen
    exponent; otherwise PotentialConditionError names every end that fails.

    One vectorized evaluation of the profile on a _SCAN_POINTS grid across a
    search window serves the maximum (_locate_maximum) and brackets both
    domain cuts (_find_cut).  The well does not depend on s: the cuts sit at
    the constant DOMAIN_CUT.  A cut that lies where W is no longer a finite
    float also raises PotentialConditionError.
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

    if isinstance(p, Lenz):
        Z, breakpoints = p.Z, None
        base, base_deriv, window = _lenz_well_parts(p)
    else:
        Z, breakpoints = 1.0, np.asarray(p._log_w.x, dtype=float)
        base, base_deriv, window = _tabulated_well_parts(p)
    if e == 1:
        base, base_deriv = _printed_parts(base, base_deriv)
    rate_left, rate_right = e - q0, qinf - e

    def profile(rho):
        return Z * base(rho)

    grid = np.linspace(*window, _SCAN_POINTS)
    vals = np.asarray(profile(grid), dtype=float)
    vmax, rho_star = _locate_maximum(profile, grid, vals)
    if vmax <= DOMAIN_CUT:
        raise DegenerateWellError("transformed well is numerically zero")
    target = DOMAIN_CUT * vmax
    rho_left = _find_cut(profile, grid, vals, target, rate_left, -1)
    rho_right = _find_cut(profile, grid, vals, target, rate_right, +1)
    return LogWell(
        base=base,
        Z=Z,
        V_m=vmax,
        rho_star=rho_star,
        rho_left=rho_left,
        rho_right=rho_right,
        decay_left=rate_left,
        decay_right=rate_right,
        base_deriv=base_deriv,
        breakpoints=breakpoints,
        # the sech^2-type analytic wells have one hump by construction
        split_level=None if isinstance(p, Lenz) else _split_level(vals, target),
    )


_POTENTIAL_KEYS = {
    "lenz": {"family", "a", "Z"},
    "tietz": {"family", "Z"},
    "tabulated": {"family", "r", "U", "q0", "qinf"},
}


def load_potential(source: str | Path | dict) -> RadialPotential:
    """Load a potential from a JSON file, JSON text or an already-parsed dict.

    A str whose first non-blank character is "{" is JSON text; any other str
    or Path names a file.  The text is never looked up as a file name, so an
    inline spec of any length loads.

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
            data = json.loads(source if is_text else Path(source).read_text())
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
