"""The three workloads: seeded inputs, the program calls of one item, its checks.

Every workload is an endless generator of items.  An item has three methods:
run() makes the program calls and returns the outputs (this is what item
latency times), references() gives the independent reference values, and
check(out, ref, checker) raises checks.Mismatch when an output is wrong.
Items call trenq through the package namespace at call time, so the traced
run sees every call.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import math

import numpy as np
import trenq as tq

from checks import (
    GATE,
    PEAK_BOUND,
    TABULATED_INTEGRAL_TOL,
    Checker,
    lenz_count,
    lenz_level,
    lenz_samples,
    lenz_sigma,
    lenz_threshold,
)

SETTINGS = tq.Settings()
D = 3
STATES = [(n, l) for n in range(4) for l in range(4)]

# seeds kept out of tuning: a claim is confirmed on these after it is made
HOLDOUT_SEEDS = {"validate_grid": 7919, "predict_batch": 7927, "count_scan": 7933}

# seed 0 is the acceptance criterion-1 grid; other seeds draw each a
# log-uniformly from a 6 % band at its grid value, inside [0.5, 2].  Oracle
# cost grows like n + 1/2 + lambda/a, so draws over the whole of [0.5, 2] would
# move a run's cost by more than the bounds in BENCHMARK.json.
ACCEPTANCE_A = (0.5, 1.0, 2.0)
A_BANDS = ((0.5, 0.53), (1.0 / 1.03, 1.03), (2.0 / 1.06, 2.0))

# predict_batch and count_scan draw their wells in a balanced design: a
# round gives each of k fixed slots (a kind of well, and for count_scan an l)
# one of k equal strata of log10 Z, and the strata rotate from round to
# round, so k rounds meet every slot with every stratum once.  Item cost and
# failure depend strongly on kind and depth; this keeps their mix the same
# from run to run.  predict_batch uses k = 4 so that a run holds several
# whole cycles.  Z stops at 1e6: action_profile raises ConvergenceError on
# deep wells, from Z ~ 1e8 at a = 0.5 (and at every a from Z ~ 1e10), and a
# workload must not fail, or the count of failed items drifts between runs
# with how many items a run gets through.  Two decades of margin stay.
PREDICT_LOG10_Z = (-2.0, 6.0)
PREDICT_SLOTS = ("lenz", "tietz", "lenz", "tietz")
# one tabulated well follows every 32 analytic ones, its stratum rotating
# the same way.  A tabulated item costs ~10x an analytic one.  The tail
# percentile has ten items above it, so a run must hold well under ten
# tabulated items (runs hold 100-170 items) or the tail lands in the gap
# between the two clusters and jumps from run to run.
TABULATED_EVERY = 32
COUNT_LOG10_Z = (0.0, 4.0)
COUNT_SLOTS = tuple(zip(("tabulated", "lenz", "lenz", "lenz", "lenz", "lenz", "tabulated", "lenz"), (0, 1, 2, 3) * 2))
# redraw a coupling this close (relative) to a threshold: the count there
# is decided by the last digits, or, for a tabulated well, by its sampling
COUNT_MARGIN = {"lenz": 1e-4, "tabulated": 4.0 * PEAK_BOUND}
# redraw a predict_batch well with a level this close to appearing
LEVEL_MARGIN = 1e-3


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def balanced_rounds(rng: np.random.Generator, slots: tuple, log10_z: tuple[float, float]):
    """Endless (slot, log10 Z stratum) pairs, one round of all slots at a time."""
    k = len(slots)
    lo, hi = log10_z
    width = (hi - lo) / k
    shift = int(rng.integers(k))
    while True:
        for i in rng.permutation(k):
            stratum = (i + shift) % k
            yield slots[i], (lo + stratum * width, lo + (stratum + 1) * width)
        shift += 1


class Potential:
    """A seeded Lenz well, given either in closed form or as 400 samples."""

    def __init__(self, kind: str, a: float, Z: float) -> None:
        self.kind, self.a, self.Z = kind, a, Z
        if kind == "tabulated":
            r, u = lenz_samples(a, Z)
            self.r, self.u = np.array(r), np.array(u)

    @property
    def unit(self) -> float:
        """Coupling unit of the program's well: a tabulated well has Z = 1 for its data."""
        return self.Z if self.kind == "tabulated" else 1.0

    def build(self, c: float):
        """The program's potential at coupling c, in units of self.unit."""
        if self.kind == "tabulated":
            return tq.Tabulated(r_grid=self.r, U_values=c * self.u, q0=2.0 - 2.0 * self.a, qinf=2.0 + 2.0 * self.a)
        return tq.Lenz(self.a, c)

    def well(self):
        return tq.to_log_well(self.build(self.Z / self.unit), SETTINGS)

    def tol(self, integral: bool) -> float:
        if self.kind != "tabulated":
            return GATE
        return TABULATED_INTEGRAL_TOL if integral else PEAK_BOUND

    def __repr__(self) -> str:
        return f"{self.kind}(a={self.a:.6g}, Z={self.Z:.6g})"


# --- validate_grid -----------------------------------------------------------


class GridState:
    """One state of the sweep: renormalized prediction plus the exact oracle.

    The first item of each a in a pass also builds the well and fits phi;
    the later items of that a in the pass reuse them, as the sweep does.
    """

    def __init__(self, a: float, n: int, l: int, shared: dict) -> None:
        self.a, self.n, self.l, self.shared = a, n, l, shared

    def run(self) -> dict:
        if not self.shared:
            well = tq.to_log_well(tq.Lenz(self.a, 1.0), SETTINGS)
            self.shared["phi"] = tq.fit_phi(tq.action_profile(well, SETTINGS))
            self.shared["well"] = well
        well, phi = self.shared["well"], self.shared["phi"]
        q = tq.QuantumNumbers(self.n, self.l, D)
        z_pred = tq.critical_coupling(well, q, SETTINGS, t_source=phi, renormalized=True)
        z_oracle = tq.exact_critical_coupling(well, q.lam, q.n, SETTINGS)
        return {"z_pred": z_pred, "z_oracle": z_oracle}

    def references(self) -> dict:
        return {"z_closed": lenz_threshold(self.a, self.n, self.l + 0.5)}

    def check(self, out: dict, ref: dict, c: Checker) -> None:
        c.close("oracle vs closed form", out["z_oracle"], ref["z_closed"], GATE)
        c.close("prediction vs oracle", out["z_pred"], out["z_oracle"], GATE)

    def __repr__(self) -> str:
        return f"GridState(a={self.a:.6g}, n={self.n}, l={self.l})"


class TietzSpot:
    """The Tietz spot check of criterion 1: Z_c(0, 0) = 1."""

    def run(self) -> dict:
        well = tq.to_log_well(tq.Tietz(1.0), SETTINGS)
        phi = tq.fit_phi(tq.action_profile(well, SETTINGS))
        return {"z_pred": tq.critical_coupling(well, tq.QuantumNumbers(0, 0, D), SETTINGS, t_source=phi)}

    def references(self) -> dict:
        return {"z_tietz": 1.0}

    def check(self, out: dict, ref: dict, c: Checker) -> None:
        c.close("Tietz Z_c(0, 0)", out["z_pred"], ref["z_tietz"], GATE)

    def __repr__(self) -> str:
        return "TietzSpot()"


def grid_a_values(seed: int) -> tuple[float, ...]:
    if seed == 0:
        return ACCEPTANCE_A
    rng = np.random.default_rng(seed)
    return tuple(log_uniform(rng, lo, hi) for lo, hi in A_BANDS)


def spread_order(costs: list[float]) -> list[int]:
    """Indices ranked by cost, visited in bit-reversed rank order.

    Every prefix of the order then samples the whole range of costs evenly,
    so the part of a pass a run ends in looks like the whole pass, however
    fast the machine is.
    """
    by_cost = sorted(range(len(costs)), key=costs.__getitem__)
    bits = max(1, (len(costs) - 1).bit_length())
    ranks = (int(format(p, f"0{bits}b")[::-1], 2) for p in range(1 << bits))
    return [by_cost[r] for r in ranks if r < len(costs)]


def validate_grid(seed: int):
    a_values = grid_a_values(seed)
    # oracle work grows like n + 1/2 + lambda/a; the Tietz spot check has none
    costs = [n + 0.5 + (l + 0.5) / a for a in a_values for n, l in STATES] + [0.0]
    order = spread_order(costs)
    while True:
        shared: dict = {a: {} for a in a_values}
        items = [GridState(a, n, l, shared[a]) for a in a_values for n, l in STATES] + [TietzSpot()]
        for i in order:
            yield items[i]


# --- predict_batch -----------------------------------------------------------


class WellPrediction:
    """One well through the semiclassical path only; the oracle is not called."""

    def __init__(self, pot: Potential, factory_state: tuple[int, int]) -> None:
        self.pot = pot
        self.factory_state = factory_state

    def factory(self, c: float):
        """Fresh well at coupling c: the route for families that do not scale linearly."""
        return tq.to_log_well(self.pot.build(c), SETTINGS)

    def run(self) -> dict:
        well = self.pot.well()
        phi = tq.fit_phi(tq.action_profile(well, SETTINGS))
        qs = [tq.QuantumNumbers(n, l, D) for n, l in STATES]
        z_ren = [tq.critical_coupling(well, q, SETTINGS, t_source=phi) for q in qs]
        z_plain = [tq.critical_coupling(well, q, SETTINGS, t_source=phi, renormalized=False) for q in qs]
        levels = []
        for n in range(4):
            try:
                levels.append(tq.solve_spectrum(well, n, SETTINGS))
            except tq.NoSuchLevelError:
                levels.append(None)
        table = tq.ordering_table(3, 3, D, phi)
        z_factory = tq.critical_coupling(
            well, tq.QuantumNumbers(*self.factory_state, D), SETTINGS, t_source=phi, well_factory=self.factory
        )
        return {
            "phi": phi,
            "z_ren": z_ren,
            "z_plain": z_plain,
            "levels": levels,
            "order": [(r.n, r.l) for r in table],
            "t_ren": [r.T_ren for r in table],
            "z_factory": z_factory,
        }

    def references(self) -> dict:
        p = self.pot
        return {
            "phi": 1.0 / p.a,
            "z_closed": [lenz_threshold(p.a, n, l + 0.5) / p.unit for n, l in STATES],
            "levels": [lenz_level(p.a, p.Z, n) for n in range(4)],
        }

    def check(self, out: dict, ref: dict, c: Checker) -> None:
        p = self.pot
        phi = out["phi"]
        c.close("phi vs 1/a", phi, ref["phi"], p.tol(integral=True))
        for (n, l), z, z_plain, z_ref in zip(STATES, out["z_ren"], out["z_plain"], ref["z_closed"]):
            c.close(f"Z_c({n},{l}) vs closed form", z, z_ref, p.tol(integral=True))
            T = n + 0.5 + phi * (l + 0.5)
            # renormalization lowers a linear well's threshold by exactly 1/(4 T^2)
            c.close(f"plain Z_c({n},{l}) vs renormalized", z_plain, z / (1.0 - 0.25 / (T * T)), 1e-10)
        top = math.sqrt(0.5 * p.Z)
        for n, (lam, lam_ref) in enumerate(zip(out["levels"], ref["levels"])):
            c.same(f"level {n} exists", lam is not None, lam_ref is not None)
            if lam is not None:
                c.close(f"level {n}", lam, lam_ref, p.tol(integral=False), scale=top)
        rows = []
        for n, l in STATES:
            T = n + 0.5 + phi * (l + 0.5)
            rows.append((math.sqrt((T - 0.5) * (T + 0.5)), n, l))
        rows.sort()
        c.same("ordering", out["order"], [(n, l) for _, n, l in rows])
        for (t_ren_ref, n, l), t_ren in zip(rows, out["t_ren"]):
            c.close(f"T_ren({n},{l})", t_ren, t_ren_ref, 1e-12)
        i = STATES.index(self.factory_state)
        c.close("factory route vs closed-form route", out["z_factory"], out["z_ren"][i], 1e-9)

    def __repr__(self) -> str:
        return f"WellPrediction({self.pot!r}, factory_state={self.factory_state})"


def _prediction(rng: np.random.Generator, kind: str, lo: float, hi: float) -> WellPrediction:
    a = 0.5 if kind == "tietz" else log_uniform(rng, 0.5, 2.0)
    while True:
        Z = 10.0 ** rng.uniform(lo, hi)
        sigma = lenz_sigma(a, Z)
        if all(abs(sigma - n) >= LEVEL_MARGIN for n in (1, 2, 3)):
            break
    return WellPrediction(Potential(kind, a, Z), STATES[rng.integers(len(STATES))])


def predict_batch(seed: int):
    rng = np.random.default_rng(seed)
    analytic = balanced_rounds(rng, PREDICT_SLOTS, PREDICT_LOG10_Z)
    tabulated = balanced_rounds(rng, ("tabulated",) * len(PREDICT_SLOTS), PREDICT_LOG10_Z)
    for i, (kind, (lo, hi)) in enumerate(analytic, start=1):
        yield _prediction(rng, kind, lo, hi)
        if i % TABULATED_EVERY == 0:
            kind, (lo, hi) = next(tabulated)
            yield _prediction(rng, kind, lo, hi)


# --- count_scan --------------------------------------------------------------


class BoundStateCount:
    """One node count on a fresh well: build the well, count at one lambda."""

    def __init__(self, pot: Potential, l: int) -> None:
        self.pot, self.l = pot, l

    def run(self) -> dict:
        return {"count": tq.count_bound_states(self.pot.well(), self.l + 0.5, SETTINGS).count}

    def references(self) -> dict:
        return {"count": lenz_count(self.pot.a, self.pot.Z, self.l + 0.5)}

    def check(self, out: dict, ref: dict, c: Checker) -> None:
        c.close("bound-state count", out["count"], ref["count"], 0.0, scale=max(ref["count"], 1))

    def __repr__(self) -> str:
        return f"BoundStateCount({self.pot!r}, l={self.l})"


def count_scan(seed: int):
    rng = np.random.default_rng(seed)
    for (kind, l), (lo, hi) in balanced_rounds(rng, COUNT_SLOTS, COUNT_LOG10_Z):
        a = log_uniform(rng, 0.5, 2.0)
        lam = l + 0.5
        while True:
            Z = 10.0 ** rng.uniform(lo, hi)
            n = lenz_count(a, Z, lam)
            nearest = [lenz_threshold(a, m, lam) for m in (n - 1, n) if m >= 0]
            if all(abs(Z - z) >= COUNT_MARGIN[kind] * z for z in nearest):
                break
        yield BoundStateCount(Potential(kind, a, Z), l)


WORKLOADS = {"validate_grid": validate_grid, "predict_batch": predict_batch, "count_scan": count_scan}


def warm_up() -> None:
    """Call every public entry point the workloads use once, on small wells.

    First-call costs (lazy imports, a numba JIT where numba is installed) then
    land in set-up rather than in the first item, and the traced run has a
    cost for every layer, also on workloads whose items skip it.
    """
    GridState(2.0, 0, 0, {}).run()
    WellPrediction(Potential("lenz", 2.0, 8.0), (0, 0)).run()
    tab = Potential("tabulated", 2.0, 8.0).well()
    tq.count_bound_states(tab, 0.5, SETTINGS)
    tq.action_profile(tab, SETTINGS)
