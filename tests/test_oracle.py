
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from trenq import (
    ConvergenceError,
    InputError,
    Lenz,
    QuantumNumbers,
    Settings,
    Tabulated,
    Tietz,
    count_bound_states,
    exact_critical_coupling,
    lenz_analytic_spectrum,
    lenz_exact_threshold,
    to_log_well,
)
from trenq.numerics import brent, geometric_bracket


def test_count_bound_states_examples(settings) -> None:
    s = settings
    w4 = to_log_well(Lenz(a=1.0, Z=4.0), s)
    assert count_bound_states(w4, 0.5, s).count == 1
    w8 = to_log_well(Lenz(a=1.0, Z=8.0), s)
    assert count_bound_states(w8, 0.5, s).count == 2
    w1 = to_log_well(Lenz(a=1.0, Z=1.0), s)
    assert count_bound_states(w1, 0.5, s).count == 0


def test_count_rejects_marginal_lambda(settings, lenz18_well) -> None:
    with pytest.raises(InputError):
        count_bound_states(lenz18_well, 0.0, settings)
    with pytest.raises(InputError):
        count_bound_states(lenz18_well, -0.5, settings)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            count_bound_states(lenz18_well, bad, settings)
        with pytest.raises(InputError):
            exact_critical_coupling(lenz18_well, bad, 0, settings)
    for n in (1.5, np.nan, -1):
        with pytest.raises(InputError):
            exact_critical_coupling(lenz18_well, 0.5, n, settings)
    for Z in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InputError):
            count_bound_states(lenz18_well, 0.5, settings, Z=Z)


@pytest.mark.parametrize(
    "Z,lam,hbar,cause,hint,not_blamed",
    [
        # a deep well: sqrt(V_m) sets the step, not lambda
        (1e12, 2.5, 1.0, r"step 4\.875e-08, set by sqrt\(V_m\) in k_ref", "the well is too deep",
         "marginal"),
        # a marginal lambda: the capped step is fine, the window is too wide
        (1.0, 1e-5, 1.0,
         r"spans 1\.61183e\+06 in rho at step 0\.01616, set by the step cap 0\.75 ode_tol",
         "marginal", "deep"),
        # a shallow well at a large lambda: lambda sets the step
        (1.0, 1e4, 1.0, r"step 3\.447e-06, set by lambda in k_ref", "lambda is too large", "deep"),
        # sqrt(V_m) and lambda both below 1e-2: the floor of k_ref sets the step
        (1e-6, 1e-3, 1e-6, r"step 3\.447e-06, set by the floor 1e-2 of k_ref", "hbar is too small",
         "marginal"),
    ],
    ids=["deep-well", "small-lambda", "large-lambda", "k-ref-floor"],
)
def test_grid_budget_error_names_its_cause(Z, lam, hbar, cause, hint, not_blamed) -> None:
    s = Settings(hbar=hbar)
    w = to_log_well(Lenz(1.0, Z), s)
    with pytest.raises(ConvergenceError, match=cause) as err:
        count_bound_states(w, lam, s)
    assert hint in str(err.value) and not_blamed not in str(err.value)


def test_count_reports_stats(settings, lenz18_well) -> None:
    nc = count_bound_states(lenz18_well, 0.5, settings)
    assert nc.step_stats["n_steps"] > 1000
    assert nc.step_stats["h"] > 0.0
    left, right = nc.rho_span
    # window reaches into the growing-exponential region far enough for the
    # near-threshold node to be visible
    assert right >= lenz18_well.rho_star + 16.0 / 0.5 * 0.99


def _step_rule(w, lam: float, s: Settings, Z=None) -> tuple[float, float, float, float]:
    """(rho_l, rho_r, k_ref, h): the window and the fine step, before np.linspace rounds it."""
    import trenq.oracle as oracle_mod

    Z = w.Z if Z is None else Z
    rho_l = w.rho_left
    rho_r = max(w.rho_right, w.rho_star + oracle_mod._WINDOW_LOG * s.hbar / lam)
    k_ref = max(math.sqrt(Z / w.Z * w.V_m), lam, 1e-2) / s.hbar
    cap, factor = oracle_mod._STEP_CAP, oracle_mod._STEP_FACTOR
    return rho_l, rho_r, k_ref, s.ode_tol ** (1.0 / 6.0) * min(cap, factor / k_ref)


def _one_shot_count(w, lam: float, s: Settings, Z=None, coarsen=1):
    """Reference: the whole grid from one np.linspace, u, g and d as full arrays.

    The well is counted at coupling Z (w.Z by default), with its maximum
    scaled as (Z / w.Z) * w.V_m.  The fine grid has a multiple of _COARSEN
    steps; a coarse one has a step `coarsen` times the fine one.
    """
    import trenq.oracle as oracle_mod

    Z = w.Z if Z is None else Z
    hbar = s.hbar
    rho_l, rho_r, _, h = _step_rule(w, lam, s, Z)
    if coarsen == 1:
        m = oracle_mod._COARSEN
        n_steps = m * int(math.ceil((rho_r - rho_l) / (m * h))) + 1
    else:
        h = coarsen * h
        n_steps = int(math.ceil((rho_r - rho_l) / h)) + 1
    rho = np.linspace(rho_l, rho_r, n_steps)
    h = float(rho[1] - rho[0])
    # u = h^2 (lambda^2 - W) / (12 hbar^2), g = 1 - u, p = (12 - 10 g)/g = 2 + 12 u/(1 - u)
    c = h * h / 12.0
    alpha, beta = c * (lam * lam) / (hbar * hbar), -c * Z / (hbar * hbar)
    u = beta * np.asarray(w.base(rho), dtype=float) + alpha
    d = (12.0 * (u / (1.0 - u)) + 2.0)[:-1]
    g0, g1 = 1.0 - float(u[0]), 1.0 - float(u[1])
    d[0] = g1 * math.exp(lam * h / hbar) / g0
    return {
        "count": oracle_mod._count_nonpositive_pivots(d),
        "rho_span": (rho_l, rho_r),
        "step_stats": {"n_steps": n_steps, "h": h, "renormalizations": 0},
        "pivots": d,
        "log_scale": math.log(g0) - lam * (rho_r - rho_l) / hbar,
    }


def test_blocked_sweep_matches_one_shot_grid(settings) -> None:
    # count_bound_states builds the grid and the pivots' inputs block by
    # block; every output must be the one-shot computation's, bit for bit
    import trenq.oracle as oracle_mod

    block = oracle_mod._BLOCK
    rho = np.linspace(-10.0, 10.0, 801)
    tab = Tabulated(
        r_grid=np.exp(rho),
        U_values=-0.5 * 8000.0 * (0.5 / np.cosh(rho) ** 2) * np.exp(-2.0 * rho),
        q0=0.0,
        qinf=4.0,
    )
    w_tab = to_log_well(tab, settings)
    cases = [
        # shorter than one block
        (to_log_well(Lenz(1.0, 8.0), settings), 0.5, settings),
        # more than 10 blocks, with its 223 nodes spread over six of them
        (to_log_well(Lenz(0.5, 2.5e4), settings), 0.5, settings),
        # the window crosses both ends of the data, and whole blocks lie inside it
        (w_tab, 0.5, settings),
        (to_log_well(Lenz(1.0, 8.0), Settings(hbar=0.5)), 0.5, Settings(hbar=0.5)),
    ]
    assert w_tab.rho_left < rho[0] and rho[-1] < w_tab.rho_right

    def assert_one_shot(nc, w, lam, s, Z=None, coarsen=1) -> None:
        ref = _one_shot_count(w, lam, s, Z, coarsen)
        assert nc.count == ref["count"]
        assert nc.rho_span == ref["rho_span"]
        assert nc.step_stats == ref["step_stats"]
        assert np.array_equal(nc.pivots, ref["pivots"])
        assert nc.log_scale == ref["log_scale"]

    sizes = []
    for w, lam, s in cases:
        nc = count_bound_states(w, lam, s)
        assert_one_shot(nc, w, lam, s)
        # the default coarsening is the fine grid itself, bit for bit
        assert_one_shot(count_bound_states(w, lam, s, _coarsen=1), w, lam, s)
        sizes.append(nc.step_stats["n_steps"])
        # a coarse count of the search: one np.linspace grid too, with a step
        # coarsen times as long and about 1/coarsen of the fine steps
        coarse = count_bound_states(w, lam, s, _coarsen=oracle_mod._COARSEN)
        assert_one_shot(coarse, w, lam, s, coarsen=oracle_mod._COARSEN)
        fine_stats, coarse_stats = nc.step_stats, coarse.step_stats
        ratio = fine_stats["n_steps"] / coarse_stats["n_steps"]
        assert ratio == pytest.approx(oracle_mod._COARSEN, rel=1e-2)
        assert coarse_stats["h"] == pytest.approx(oracle_mod._COARSEN * fine_stats["h"], rel=1e-2)
        if len(sizes) == 2:
            node_blocks = set(np.flatnonzero(nc.pivots <= 0.0) // block)
            assert nc.count == 223 and len(node_blocks) >= 6
        # the search's grid memo: filled by one count, then read by the next
        # count on the same grid, which must still be the one-shot count
        grid = {}
        count_bound_states(w, lam, s, _grid=grid)
        ((key, base),) = grid.items()
        assert key == (*nc.rho_span, nc.step_stats["n_steps"])
        for factor in (1.0 + 1e-9, 1.0 - 1e-9):
            z = w.Z * factor
            assert_one_shot(count_bound_states(w, lam, s, Z=z, _grid=grid), w, lam, s, z)
            assert grid.keys() == {key} and grid[key] is base
        # a deeper well needs a finer grid: the memo is rebuilt for it, not reused
        deep = count_bound_states(w, lam, s, Z=4.0 * w.Z, _grid=grid)
        assert_one_shot(deep, w, lam, s, 4.0 * w.Z)
        assert grid.keys() == {(*deep.rho_span, deep.step_stats["n_steps"])} != {key}
    assert sizes[0] < block and sizes[1] > 10 * block and sizes[2] > 3 * block


def test_analytic_spectrum() -> None:
    np.testing.assert_allclose(
        lenz_analytic_spectrum(1.0, 8.0),
        [1.5615528128088303, 0.5615528128088303],
        atol=1e-15,
    )
    np.testing.assert_allclose(lenz_analytic_spectrum(1.0, 4.0), [1.0], atol=1e-15)
    shallow = lenz_analytic_spectrum(1.0, 1e-3)
    assert len(shallow) == 1
    assert shallow[0] == pytest.approx(5e-4, rel=1e-3)
    with pytest.raises(InputError):
        lenz_analytic_spectrum(0.0, 1.0)
    for args in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf), (1.0, np.nan), (1.0, 1.0, 0.0),
                 (1.0, 1.0, np.nan), (1e-200, 1.0, 1e-200)):
        with pytest.raises(InputError):
            lenz_analytic_spectrum(*args)


def test_analytic_spectrum_bounds_its_levels() -> None:
    # a deep well holds ~sigma levels: past 10^6 of them the call raises
    # before it builds the list (a = 0.5, Z = 1e20 has 1.4e10), and up to
    # that bound it returns every level
    import trenq.oracle as oracle_mod

    bound = oracle_mod._SPECTRUM_MAX_LEVELS
    with pytest.raises(InputError, match="14142135624 levels"):
        lenz_analytic_spectrum(0.5, 1e20)
    # sigma = bound - 1/2 holds exactly `bound` levels, sigma = bound + 1/2 one more
    for sigma, raises in ((bound - 0.5, False), (bound + 0.5, True)):
        Z = 2.0 * sigma * (sigma + 1.0)
        if raises:
            with pytest.raises(InputError, match="more than the"):
                lenz_analytic_spectrum(1.0, Z)
        else:
            assert len(lenz_analytic_spectrum(1.0, Z)) == bound


def test_count_consistent_with_analytic_spectrum(settings) -> None:
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        a = rng.uniform(0.4, 2.2)
        Z = rng.uniform(0.5, 40.0)
        levels = lenz_analytic_spectrum(a, Z)
        lam = rng.uniform(0.25, max(0.3, levels[0] * 1.05))
        if min(abs(lam - v) for v in levels) < 1e-3:
            continue  # skip near-degenerate probes
        w = to_log_well(Lenz(a=a, Z=Z), settings)
        expected = sum(1 for v in levels if v > lam)
        assert count_bound_states(w, lam, settings).count == expected
        checked += 1


def test_count_monotone_in_coupling(settings) -> None:
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    counts = [
        count_bound_states(w, 0.5, settings, Z=z).count
        for z in np.linspace(0.5, 40.0, 24)
    ]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_stable_under_tolerance_halving(settings) -> None:
    tight = Settings(ode_tol=settings.ode_tol / 2.0)
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = rng.uniform(0.5, 2.0)
        Z = rng.uniform(1.0, 30.0)
        levels = lenz_analytic_spectrum(a, Z)
        lam = rng.uniform(0.3, max(0.35, levels[0]))
        if min(abs(lam - v) for v in levels) < 1e-4 * max(1.0, lam):
            continue
        w = to_log_well(Lenz(a=a, Z=Z), settings)
        assert (
            count_bound_states(w, lam, settings).count
            == count_bound_states(w, lam, tight).count
        )


def test_exact_critical_coupling_values(settings) -> None:
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    z0 = exact_critical_coupling(w, 0.5, 0, settings)
    assert z0 == pytest.approx(1.5, rel=1e-6)
    z1 = exact_critical_coupling(w, 0.5, 1, settings)
    assert z1 == pytest.approx(7.5, rel=1e-6)
    # analytic value for (nu, lambda) = (1/2, 3/2): 2 (4 - 1/4) = 7.5
    assert exact_critical_coupling(w, 1.5, 0, settings) == pytest.approx(7.5, rel=1e-6)
    wt = to_log_well(Tietz(1.0), settings)
    assert exact_critical_coupling(wt, 0.5, 0, settings) == pytest.approx(1.0, rel=1e-6)


def test_exact_critical_coupling_factory_route(settings) -> None:
    # wells built afresh at each Z (the route a family of wells takes) must
    # step at the threshold found by rescaling the Z = 1 well
    def make_well(Z: float):
        return to_log_well(Lenz(a=1.0, Z=Z), settings)

    z_scaled = exact_critical_coupling(make_well(1.0), 1.5, 0, settings)
    assert count_bound_states(make_well(z_scaled * (1.0 - 1e-8)), 1.5, settings).count == 0
    assert count_bound_states(make_well(z_scaled * (1.0 + 1e-8)), 1.5, settings).count == 1
    # the threshold is absolute: a well built at another Z finds the same one
    z_other = exact_critical_coupling(make_well(7.5), 1.5, 0, settings)
    assert z_other == pytest.approx(z_scaled, rel=1e-8)
    # analytic value for (nu, lambda) = (1/2, 3/2): 2 (4 - 1/4) = 7.5
    assert z_scaled == pytest.approx(7.5, rel=1e-6)


def test_oracle_on_tabulated_well(settings) -> None:
    # node counting runs on interpolated profiles too; the threshold it finds
    # is limited only by how faithfully the samples represent the well
    import numpy as np

    w0 = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    rho = np.linspace(w0.rho_left, w0.rho_right, 2001)
    w_vals = np.asarray(w0.profile(rho))
    from trenq import Tabulated

    tab = Tabulated(
        r_grid=np.exp(rho),
        U_values=-0.5 * w_vals * np.exp(-2.0 * rho),
        q0=0.0,
        qinf=4.0,
    )
    wt = to_log_well(tab, settings)
    z = exact_critical_coupling(wt, 0.5, 0, settings)
    assert z == pytest.approx(1.5, rel=1e-6)


def _numerov_signflips(p: np.ndarray, v0: float, v1: float) -> tuple[int, float]:
    """Reference counter: strict sign changes of v_{k+1} = p_k v_k - v_{k-1}.

    Runs the recurrence on the values themselves (rescaled before they
    overflow, the scale carried in a logarithm) and never counts the sign of
    v0; an exact zero keeps the previous sign, so the change is counted at the
    next nonzero value.  Returns (count, log|v_last / v0|).
    """
    count = 0
    log_scale = -math.log(abs(v0))
    sign = v1 > 0.0
    for pk in p:
        v2 = pk * v1 - v0
        if v2 != 0.0:
            s = v2 > 0.0
            if s != sign:
                count += 1
                sign = s
        if v2 > 1e250 or v2 < -1e250:
            v1 *= 1e-250
            v2 *= 1e-250
            log_scale += 250.0 * math.log(10.0)
        v0 = v1
        v1 = v2
    return count, math.log(abs(v1)) + log_scale


def test_pivot_count_matches_numerov_reference(settings, monkeypatch) -> None:
    # the pivot count must agree with the value recurrence it replaces, most of
    # all right at thresholds, where a miscount moves a critical coupling; the
    # pivots it leaves behind must multiply up to the end value of the solution,
    # and the residual built from them must change sign across each step
    import trenq.oracle as oracle_mod

    kernel = oracle_mod._count_nonpositive_pivots

    def reference(d: np.ndarray) -> tuple[int, float]:
        return _numerov_signflips(d[1:], 1.0, float(d[0]))

    def log_product(pivots: np.ndarray) -> float:
        return float(np.sum(np.log(np.abs(pivots))))

    seen = []

    def checked_kernel(d: np.ndarray) -> int:
        expected, log_end = reference(d)
        got = kernel(d)
        seen.append((got, expected, log_end))
        return got

    def residual_size(x: float) -> float:
        return math.exp(x) if x < 0.0 else 1.0 + x

    def check_amplitude(w, z: float, lam: float) -> oracle_mod.NodeCount:
        nc = count_bound_states(w, lam, settings, Z=z)
        # u_0 = 1 and v = g u with g = 1 - h^2 (lam^2 - W)/12, relative to the
        # free growth e^(lam (rho - rho_l))
        rho_l, rho_r = nc.rho_span
        h = nc.step_stats["h"]
        g0 = 1.0 - h * h * (lam * lam - z * float(w.base(rho_l))) / 12.0
        expected = seen[-1][2] + math.log(g0) - lam * (rho_r - rho_l)
        # near a step the end value cancels (A ~ 1e-9 at Z_c(1 +- 1e-8)), and
        # rounding moves its log by up to ~1e-5 in either recurrence; the
        # residual size A itself agrees to 1e-12, i.e. ~1e-11 in Z there, the
        # 1e-11 width the root-find stops at
        assert abs(residual_size(nc.log_amplitude()) - residual_size(expected)) <= 1e-12
        # log_amplitude sums the same logs as the plain expression, bit for bit
        assert nc.log_amplitude() == log_product(nc.pivots) + nc.log_scale
        return nc

    def check_step(w, z_c: float, lam: float, n: int) -> None:
        # the continuous residual changes sign across the count step
        below = check_amplitude(w, z_c * (1.0 - 1e-6), lam)
        above = check_amplitude(w, z_c * (1.0 + 1e-6), lam)
        assert (
            oracle_mod._step_residual(below.count, below.log_amplitude, n)
            < 0.0
            < oracle_mod._step_residual(above.count, above.log_amplitude, n)
        )

    monkeypatch.setattr(oracle_mod, "_count_nonpositive_pivots", checked_kernel)
    for a, n, l in ((0.5, 3, 0), (1.0, 0, 0), (1.0, 2, 3), (2.0, 1, 2)):
        q = QuantumNumbers(n, l, 3)
        w = to_log_well(Lenz(a=a, Z=1.0), settings)
        z_c, _ = lenz_exact_threshold(a, q)
        for z in (z_c * (1.0 - 1e-8), z_c * (1.0 + 1e-8)):
            check_amplitude(w, z, q.lam)
        check_step(w, z_c, q.lam, n)
    w0 = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    rho = np.linspace(w0.rho_left, w0.rho_right, 2001)
    tab = Tabulated(
        r_grid=np.exp(rho),
        U_values=-0.5 * np.asarray(w0.profile(rho)) * np.exp(-2.0 * rho),
        q0=0.0,
        qinf=4.0,
    )
    wt = to_log_well(tab, settings)
    for z in (1.4, 1.5 * (1.0 - 1e-8), 1.5 * (1.0 + 1e-8), 30.0):
        check_amplitude(wt, z, 0.5)
    check_step(wt, 1.5, 0.5, 0)
    assert len(seen) == 22
    assert all(got == expected for got, expected, _ in seen), seen
    assert {got for got, *_ in seen} >= {0, 1, 2, 3, 4}

    # d = 1 everywhere makes every third pivot exactly zero; each is one node,
    # and the pivots as taken still multiply up to the end value
    ones = np.ones(100)
    assert reference(ones) == (33, 0.0)
    pivots = ones.copy()
    assert kernel(pivots) == 33
    assert log_product(pivots) == pytest.approx(0.0, abs=1e-9)
    # many nodes, including a node at the last or second to last pivot
    rng = np.random.default_rng(5)
    for size in list(range(1, 40)) + [5000]:
        for _ in range(5):
            d = rng.uniform(-3.0, 3.0, size)
            d[0] = 1.0  # v1/v0 > 0, as count_bound_states sets it
            expected, log_end = reference(d)
            pivots = d.copy()
            assert kernel(pivots) == expected, d
            assert log_product(pivots) == pytest.approx(log_end, abs=1e-9), d


def test_oracle_work_and_accuracy(settings, monkeypatch) -> None:
    # work guard in Numerov steps, no timing: each search finds its root on a
    # grid _COARSEN times coarser (bracket doubling from Z = 1, its points
    # counted once per well and lambda, then Brent to 3e-5 and a secant step
    # corrected by the bend of its own points to 1e-9), then brackets the
    # fine root from there in two counts and ends on their secant root,
    # corrected by the coarse bend and certified by the bracket's own counts,
    # and extrapolates the two roots.  On the criterion-1 grid that is 10.71
    # counts per threshold, 2.04 of them fine (12.92 and 3.00 with Brent to
    # 1e-9 and a fine secant count), and 20,092 steps per threshold (26,294),
    # and every threshold stays within 6.9e-12 of the closed form, ode_tol /
    # 10 at most.  Every count goes through the module-level
    # count_bound_states, which the benchmark's spans wrap, at the coupling it
    # is given as Z; its step tells a coarse count from a fine one.  A count on
    # the grid of the previous count reads the well from the search's one grid
    # memo: 6.27 fresh grids per threshold, as before either finish, whose
    # dropped counts were all on a held grid
    import trenq.oracle as oracle_mod

    coarsen = oracle_mod._COARSEN
    counted_at = []
    counter = oracle_mod.count_bound_states

    def counted(w, lam, s, *, Z, **kwargs):
        nc = counter(w, lam, s, Z=Z, **kwargs)
        ratio = nc.step_stats["h"] / _step_rule(w, lam, s, Z)[-1]
        # np.linspace rounds each step down by at most one part in its length
        assert 0.99 < ratio <= 1.0 + 1e-12 or 0.99 * coarsen < ratio <= coarsen + 1e-12, ratio
        counted_at.append((Z, ratio > 2.0, nc.step_stats["n_steps"]))
        return nc

    monkeypatch.setattr(oracle_mod, "count_bound_states", counted)
    fresh_grids = 0
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        w = to_log_well(Lenz(a=a, Z=1.0), settings)

        def counting(rho, base=w.base, rho_l=w.rho_left):
            # the first block of a grid starts at its left end
            nonlocal fresh_grids
            if rho[0] == rho_l:
                fresh_grids += 1
            return base(rho)

        w = replace(w, base=counting)
        for n in range(4):
            for l in range(4):
                q = QuantumNumbers(n, l, 3)
                z = exact_critical_coupling(w, q.lam, q.n, settings)
                z_exact, _ = lenz_exact_threshold(a, q)
                worst = max(worst, abs(z - z_exact) / z_exact)
    fine = [steps for _, coarse, steps in counted_at if not coarse]
    coarse = [steps for _, is_coarse, steps in counted_at if is_coarse]
    per_threshold = (len(fine) / 48, sum(fine) / 48, len(coarse) / 48, sum(coarse) / 48)
    assert (sum(fine) + sum(coarse)) / 48 <= 21_000, per_threshold
    assert len(fine) / 48 <= 2.1, per_threshold
    assert fresh_grids / 48 <= 6.8, fresh_grids / 48
    assert worst <= 0.1 * settings.ode_tol, worst

    # a second threshold of the same well and lambda counts none of the
    # coarse bracket points the first one counted
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    counted_at.clear()
    z_first = exact_critical_coupling(w, 0.5, 0, settings)
    first = {Z for Z, coarse, _ in counted_at if coarse}
    counted_at.clear()
    exact_critical_coupling(w, 0.5, 2, settings)
    assert {1.0, 2.0} <= first
    assert first.isdisjoint(Z for Z, coarse, _ in counted_at if coarse)
    # the well keeps every coarse count, the coarse Brent's too: the same
    # search again returns the same float from fine counts alone
    counted_at.clear()
    assert exact_critical_coupling(w, 0.5, 0, settings).hex() == z_first.hex()
    assert counted_at and not any(coarse for _, coarse, _ in counted_at)


def _brent_rtols(monkeypatch) -> list:
    """The rtol of each Brent call of the oracle, in order, for the caller to clear."""
    import trenq.oracle as oracle_mod

    rtols = []
    solve = oracle_mod.brent

    def counted(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle_mod, "brent", counted)
    return rtols


def _fine_counts(monkeypatch) -> list:
    """(Z, count) of each fine count of the oracle, in order, for the caller to clear."""
    import trenq.oracle as oracle_mod

    counts = []
    counter = oracle_mod.count_bound_states

    def counted(*args, **kwargs):
        nc = counter(*args, **kwargs)
        if kwargs.get("_coarsen", 1) == 1:
            counts.append((kwargs["Z"], nc.count))
        return nc

    monkeypatch.setattr(oracle_mod, "count_bound_states", counted)
    return counts


@pytest.mark.parametrize(
    "s",
    [
        Settings(),
        Settings(hbar=0.5),
        Settings(ode_tol=1e-8),
        Settings(ode_tol=1e-7),
        Settings(ode_tol=1e-7, hbar=0.5),
        Settings(ode_tol=1e-11),
        Settings(ode_tol=1e-11, hbar=0.5),
    ],
    ids=["default", "hbar-0.5", "ode-tol-1e-8", "ode-tol-1e-7", "ode-tol-1e-7-hbar-0.5",
         "ode-tol-1e-11", "ode-tol-1e-11-hbar-0.5"],
)
def test_oracle_error_within_tenth_of_ode_tol(s, monkeypatch) -> None:
    # on a smooth well ode_tol bounds the relative error of the returned
    # coupling by ode_tol / 10, from the loosest ode_tol accepted, 1e-7, down
    # to 1e-11; on the criterion-1 grid the worst errors are 6.9e-12,
    # 5.3e-12, 7.0e-10, 7.1e-9, 5.6e-9, 7.2e-13 and 5.4e-13.  At 1e-11 the
    # coarse root is solved to 10 ode_tol: its error enters the Richardson
    # value divided by 255, and solved to 1e-9 it left 1.06e-12.  The
    # returned value is the Richardson value of the coarse root and the fine
    # root, which both finishes reach after the loose coarse Brent without
    # handing over to Brent, inside the bracket of fine counts n and n + 1
    import trenq.oracle as oracle_mod

    brents = _brent_rtols(monkeypatch)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        w = to_log_well(Lenz(a=a, Z=1.0), s)
        for n in range(4):
            for l in range(4):
                q = QuantumNumbers(n, l, 3)
                brents.clear()
                z_coarse, z_fine, below, above = oracle_mod._search(w, q.lam, q.n, s)
                assert brents == [oracle_mod._COARSE_BRENT_RTOL], brents
                assert below <= z_fine <= above
                z = exact_critical_coupling(w, q.lam, q.n, s)
                assert z == (256.0 * z_fine - z_coarse) / 255.0
                z_exact, _ = lenz_exact_threshold(a, q, s.hbar)
                worst = max(worst, abs(z - z_exact) / z_exact)
    assert worst <= 0.1 * s.ode_tol, worst


def _lenz_samples(count: int, a: float = 1.0) -> Tabulated:
    """count samples of Lenz(a, 1), evenly spaced in rho where W > 1e-14 of its peak."""
    half = math.log(4.0 / 1e-14) / (2.0 * a)
    rho = np.linspace(-half, half, count)
    return Tabulated(
        r_grid=np.exp(rho),
        U_values=-0.25 / np.cosh(a * rho) ** 2 * np.exp(-2.0 * rho),
        q0=0.0,
        qinf=4.0,
    )


def test_tabulated_oracle_is_not_extrapolated(settings) -> None:
    # a Tabulated W is only C^1, and there the Richardson value is no better
    # than the fine root: over n < 3 and lambda in {0.5, 1.5} on these
    # samples it was worse for two of six thresholds, and 4.3e-7 off at worst
    # against 3.5e-7.  So the oracle returns the certified fine root.  Its
    # error against a reference at ode_tol = 1e-14 is 3.0e-7, the figure the
    # Settings.ode_tol docstring gives; it moves between 1.1e-7 and 5.7e-7 as
    # the step changes by a few percent
    import trenq.oracle as oracle_mod

    w = to_log_well(_lenz_samples(400), settings)
    _, z_fine, below, above = oracle_mod._search(w, 0.5, 0, settings)
    z = exact_critical_coupling(w, 0.5, 0, settings)
    assert below <= z == z_fine <= above
    reference = 1.5000060388506669
    assert abs(z - reference) <= 3.1e-7 * reference


def _fine_residual(w, lam: float, n: int, s: Settings):
    """The oracle's fine residual of the n -> n + 1 step, as a function of Z."""
    import trenq.oracle as oracle_mod

    def residual(Z: float) -> float:
        nc = oracle_mod.count_bound_states(w, lam, s, Z=Z)
        return oracle_mod._step_residual(nc.count, nc.log_amplitude, n)

    return residual


def _fine_only_threshold(w, lam: float, n: int, s: Settings) -> float:
    """The single-stage search on fine counts: bracket doubling from Z = 1, Brent to 1e-11."""
    residual = _fine_residual(w, lam, n, s)
    return brent(residual, *geometric_bracket(residual), xtol=0.0, rtol=1e-11)


def test_coarse_first_matches_fine_only_route(settings, monkeypatch) -> None:
    # the coarse root only places the fine bracket: every search's fine root,
    # before extrapolation, is the fine residual's root as the fine-only search
    # finds it, to twice the 1e-11 Brent width; on the criterion-1 grid the
    # coarse root is close enough for the first fine step to bracket it
    # (worst 0.46 of the first step's width)
    import trenq.oracle as oracle_mod

    starts = []
    bracket = oracle_mod.geometric_bracket

    def recorded(f, start=1.0, ratio=2.0):
        starts.append((start, ratio))
        return bracket(f, start, ratio)

    monkeypatch.setattr(oracle_mod, "geometric_bracket", recorded)

    def check(w, lam: float, n: int, s: Settings) -> float:
        starts.clear()
        z_coarse, z, _, _ = oracle_mod._search(w, lam, n, s)
        assert z == pytest.approx(_fine_only_threshold(w, lam, n, s), rel=2e-11)
        (coarse_start, _), (fine_start, ratio) = starts
        assert coarse_start == 1.0 and fine_start == z_coarse
        return abs(z - z_coarse) / z / (ratio - 1.0)

    for s in (settings, Settings(hbar=0.5), Settings(ode_tol=1e-8)):
        first_steps = []
        for a in (0.5, 1.0, 2.0):
            w = to_log_well(Lenz(a=a, Z=1.0), s)
            for n in range(4):
                for l in range(4):
                    q = QuantumNumbers(n, l, 3)
                    first_steps.append(check(w, q.lam, q.n, s))
        assert max(first_steps) <= 1.0, max(first_steps)
    w_tab = to_log_well(_lenz_samples(400), settings)
    printed = to_log_well(Lenz(a=1.0, Z=1.0), settings, transform_exponent=1)
    for n in range(3):
        check(w_tab, 0.5, n, settings)
        for lam in (0.5, 1.5):
            check(printed, lam, n, settings)


@hypothesis_settings(max_examples=12, deadline=None)
@given(a=st.floats(0.5, 2.0), n=st.integers(0, 3), l=st.integers(0, 3))
def test_secant_finish_is_certified_and_matches_closed_bracket(a: float, n: int, l: int) -> None:
    # the fine root lies in a bracket whose fine counts are exactly n and
    # n + 1, and agrees with the same residual solved by Brent on that bracket
    # at rtol 1e-13 to 2e-12; the returned threshold is its Richardson value
    import trenq.oracle as oracle_mod

    s = Settings()
    w = to_log_well(Lenz(a=a, Z=1.0), s)
    lam = QuantumNumbers(n, l, 3).lam
    z_coarse, z_fine, below, above = oracle_mod._search(w, lam, n, s)
    assert below <= z_fine <= above
    assert exact_critical_coupling(w, lam, n, s) == (256.0 * z_fine - z_coarse) / 255.0
    residual = _fine_residual(w, lam, n, s)
    f_below, f_above = residual(below), residual(above)
    assert f_below < 0.0 < f_above
    reference = brent(residual, below, above, f_below, f_above, xtol=0.0, rtol=1e-13)
    assert z_fine == pytest.approx(reference, rel=2e-12, abs=0.0)


@pytest.mark.parametrize(
    "f,root,lo,hi",
    [(math.log, 1.0, 0.999, 1.001), (lambda x: math.exp(x) - math.e, 1.0, 0.998, 1.001)],
    ids=["concave", "convex"],
)
def test_secant_finish_meets_its_bound(f, root, lo, hi, monkeypatch) -> None:
    # on a smooth residual whose first secant root is ~3e-10 off, the finish
    # takes a second secant step because its bound says so, and returns a
    # root within _FINE_RTOL (1e-13 off here), without Brent
    import trenq.oracle as oracle_mod

    brents = _brent_rtols(monkeypatch)
    calls = []

    def counted(x: float) -> float:
        calls.append(x)
        return f(x)

    rtol = oracle_mod._FINE_RTOL
    z = oracle_mod._secant_finish(counted, lo, hi, counted(lo), counted(hi), rtol=rtol)
    assert not brents
    assert len(calls) == 2 + 2
    assert abs(z - root) <= rtol * root


def test_secant_finish_hands_over_to_brent(settings, monkeypatch) -> None:
    # Brent takes over a bracket with an end off the step, where the residual
    # is the constant _OFF_STEP, and a finish that has not met its bound in
    # _SECANT_STEPS steps; its root is then Brent's on the bracket it is given
    import trenq.oracle as oracle_mod

    brents = _brent_rtols(monkeypatch)
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    residual = _fine_residual(w, 0.5, 1, settings)
    # the n = 0 and n = 1 thresholds of lambda = 0.5 are 1.5 and 7.5: count 0 at Z = 1
    lo, hi = 1.0, 7.6
    f_lo, f_hi = residual(lo), residual(hi)
    assert f_lo == -oracle_mod._OFF_STEP and 0.0 < f_hi < oracle_mod._OFF_STEP
    rtol = oracle_mod._FINE_RTOL
    z = oracle_mod._secant_finish(residual, lo, hi, f_lo, f_hi, rtol=rtol, bend=0.0)
    assert brents == [rtol]
    assert z == brent(residual, lo, hi, f_lo, f_hi, xtol=0.0, rtol=rtol)
    assert z == pytest.approx(7.5, rel=1e-6)

    # regula falsi on a strongly convex residual keeps its far end, and its
    # steps creep up from the near one, short of the bound
    brents.clear()
    calls = []

    def convex(x: float) -> float:
        calls.append(x)
        return math.expm1(20.0 * x) - 1.0

    root = math.log(2.0) / 20.0
    z = oracle_mod._secant_finish(convex, 0.0, 1.0, convex(0.0), convex(1.0), rtol=rtol)
    assert brents == [rtol]
    assert len(calls) > 2 + oracle_mod._SECANT_STEPS
    assert z == pytest.approx(root, rel=2e-11)


def test_secant_finish_takes_a_given_bend() -> None:
    # given the bend f[lo, hi, r] / f[lo, hi] (-1/2 for log x at 1), the
    # finish corrects the secant root of its bracket, 1.0e-12 off here, to
    # the float, and returns without a count once the bound holds
    import trenq.oracle as oracle_mod

    calls = []

    def counted(x: float) -> float:
        calls.append(x)
        return math.log(x)

    lo, hi = 1.0 - 1e-6, 1.0 + 2e-6
    z = oracle_mod._secant_finish(
        counted, lo, hi, math.log(lo), math.log(hi), rtol=oracle_mod._FINE_RTOL, bend=-0.5
    )
    assert not calls
    assert z == 1.0


def test_coarse_bend_takes_three_close_points_of_one_grid() -> None:
    # the bend of the tightest bracket and the nearest point on its grid,
    # within _BEND_SPAN and of residual below 1 in size; otherwise none
    import trenq.oracle as oracle_mod

    def points(*xs, steps=100, far_steps=100):
        return [(x, math.log(x), steps if i else far_steps) for i, x in enumerate(xs)]

    lo, hi = 0.9999, 1.0001
    *bracket, bend = oracle_mod._coarse_bracket(points(0.997, lo, hi, 1.5))
    assert bracket == [lo, hi, math.log(lo), math.log(hi)]
    assert bend == pytest.approx(-0.5, rel=5e-3)
    # the nearest point counted on another grid, and one beyond _BEND_SPAN
    assert oracle_mod._coarse_bracket(points(0.997, lo, hi, far_steps=101))[-1] is None
    assert oracle_mod._coarse_bracket(points(0.99, lo, hi))[-1] is None
    # an end of residual 1 or more, where the residual is compressed
    assert oracle_mod._coarse_bracket(points(0.997, lo, 3.0))[-1] is None


def _finish_calls(monkeypatch) -> list:
    """(arguments, keywords, root) of each secant finish of the oracle, in order."""
    import trenq.oracle as oracle_mod

    calls = []
    finish = oracle_mod._secant_finish

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, finish(*args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(oracle_mod, "_secant_finish", recorded)
    return calls


@hypothesis_settings(max_examples=12, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    n=st.integers(0, 3),
    l=st.integers(0, 3),
    hbar=st.sampled_from([1.0, 0.5]),
)
def test_bent_fine_root_matches_three_count_finish(a: float, n: int, l: int, hbar: float) -> None:
    # the fine root from the two bracket counts and the coarse bend agrees to
    # 2e-12 with a finish of the same bracket given no bend, which counts at
    # the secant root and bends by its own three points, and lies between the
    # fine counts n and n + 1
    import trenq.oracle as oracle_mod

    s = Settings(hbar=hbar)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _finish_calls(monkeypatch)
        w = to_log_well(Lenz(a=a, Z=1.0), s)
        _, z, below, above = oracle_mod._search(w, QuantumNumbers(n, l, 3).lam, n, s)
    (fine, lo, hi, f_lo, f_hi), kwargs, root = calls[-1]
    assert kwargs["rtol"] == oracle_mod._FINE_RTOL
    assert below <= root == z <= above
    third = []

    def counted(Z: float) -> float:
        third.append(Z)
        return fine(Z)

    reference = oracle_mod._secant_finish(counted, lo, hi, f_lo, f_hi, rtol=oracle_mod._FINE_RTOL)
    assert third
    assert z == pytest.approx(reference, rel=2e-12, abs=0.0)


def test_fine_finish_counts_where_the_bend_misses_its_bound(monkeypatch) -> None:
    # at ode_tol = 1e-8 the fine bracket is ~7e-5 wide, so the coarse bend
    # bounds the remainder of its secant root only to ~1e-9, above
    # _FINE_RTOL: the fine stage counts a third time, at that secant root,
    # and ends on the bend of its own three points, certified and within
    # ode_tol / 10 of the closed form
    import trenq.oracle as oracle_mod

    s = Settings(ode_tol=1e-8)
    calls = _finish_calls(monkeypatch)
    counts = _fine_counts(monkeypatch)
    w = to_log_well(Lenz(a=1.0, Z=1.0), s)
    q = QuantumNumbers(1, 1, 3)
    _, z_fine, below, above = oracle_mod._search(w, q.lam, q.n, s)
    (_, lo, hi, f_lo, f_hi), kwargs, root = calls[-1]
    secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    bend = kwargs["bend"]
    assert abs(bend) * (secant - lo) * (hi - secant) > 10.0 * oracle_mod._FINE_RTOL * secant
    assert [Z for Z, _ in counts] in ([lo, hi, secant], [hi, lo, secant])
    assert below <= root == z_fine <= above
    monkeypatch.undo()
    z = exact_critical_coupling(w, q.lam, q.n, s)
    z_exact, _ = lenz_exact_threshold(1.0, q)
    assert abs(z - z_exact) <= 0.1 * s.ode_tol * z_exact


def test_unclean_transition_raises(settings, monkeypatch) -> None:
    # a count that jumps from n to n + 2 has no coupling counted n + 1, so no
    # bracket certifies an n -> n + 1 step and the search raises
    import trenq.oracle as oracle_mod

    counter = oracle_mod.count_bound_states

    def doubled(*args, **kwargs):
        nc = counter(*args, **kwargs)
        return replace(nc, count=2 * nc.count)

    monkeypatch.setattr(oracle_mod, "count_bound_states", doubled)
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    with pytest.raises(ConvergenceError, match="not clean"):
        exact_critical_coupling(w, 0.5, 0, settings)


def test_numerov_weights_bounded_at_loosest_ode_tol() -> None:
    # at the loosest ode_tol, 1e-7, the fine step has h k_ref <= _STEP_FACTOR
    # 1e-7^(1/6) = 0.109 and a search's coarse step, _COARSEN times it,
    # h k_ref <= 0.436, so the Numerov weight g = 1 - h^2 (lambda^2 - W) /
    # (12 hbar^2), least where W = 0, stays >= 1 - 0.436^2 / 12 = 0.984; at a
    # large lambda k_ref = lambda / hbar and the bound is reached
    import trenq.oracle as oracle_mod
    from trenq.potentials import _ODE_TOL_MAX

    assert _ODE_TOL_MAX == 1e-7
    loose = Settings(ode_tol=_ODE_TOL_MAX)
    lam = 200.5
    w = to_log_well(Lenz(a=1.0, Z=1.0), loose)
    for coarsen, least, most in ((1, 0.1089, 0.10901), (oracle_mod._COARSEN, 0.4355, 0.43603)):
        nc = count_bound_states(w, lam, loose, _coarsen=coarsen)
        h = nc.step_stats["h"]
        assert least <= h * lam <= most
        assert 1.0 - (h * lam) ** 2 / 12.0 >= 0.984
        rho_l, rho_r = nc.rho_span
        g0 = math.exp(nc.log_scale + lam * (rho_r - rho_l))
        assert g0 == pytest.approx(1.0 - (h * lam) ** 2 / 12.0, rel=1e-6)
        assert nc.count == 0


@hypothesis_settings(max_examples=8, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    order=st.permutations([(n, l) for n in range(3) for l in range(2)]),
)
def test_oracle_shared_well_matches_fresh_well(a: float, order: list) -> None:
    # the bracket points a shared well keeps change no threshold, bit for bit,
    # in whatever order the thresholds are asked for
    s = Settings()
    shared = to_log_well(Lenz(a=a, Z=1.0), s)
    for n, l in order:
        lam = QuantumNumbers(n, l, 3).lam
        fresh = to_log_well(Lenz(a=a, Z=1.0), s)
        assert exact_critical_coupling(shared, lam, n, s) == exact_critical_coupling(
            fresh, lam, n, s
        )


def test_transform_exponent_discrimination(settings) -> None:
    # corrected transform: the oracle lands on the closed-form thresholds
    q = QuantumNumbers(0, 0, 3)
    w2 = to_log_well(Lenz(a=1.0, Z=1.0), settings, transform_exponent=2)
    z2 = exact_critical_coupling(w2, q.lam, q.n, settings)
    z_closed, _ = lenz_exact_threshold(1.0, q)
    assert abs(z2 - z_closed) / z_closed <= 1e-6
    # printed variant: far off the exact answer
    w1 = to_log_well(Lenz(a=1.0, Z=1.0), settings, transform_exponent=1)
    z1 = exact_critical_coupling(w1, q.lam, q.n, settings)
    assert abs(z1 - z_closed) / z_closed > 1e-3
