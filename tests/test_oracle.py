
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
    "Z,lam,cause,hint,not_blamed",
    [
        # a deep well: sqrt(V_m) sets the step, not lambda
        (1e12, 2.5, r"step 2\.952e-08, set by sqrt\(V_m\) in k_ref", "the well is too deep", "marginal"),
        # a marginal lambda: the capped step is fine, the window is too wide
        (1.0, 1e-5, r"spans 1\.61183e\+06 in rho at step 0\.02, set by the step cap", "marginal", "deep"),
    ],
    ids=["deep-well", "small-lambda"],
)
def test_grid_budget_error_names_its_cause(Z, lam, cause, hint, not_blamed, settings) -> None:
    w = to_log_well(Lenz(1.0, Z), settings)
    with pytest.raises(ConvergenceError, match=cause) as err:
        count_bound_states(w, lam, settings)
    assert hint in str(err.value) and not_blamed not in str(err.value)


def test_count_reports_stats(settings, lenz18_well) -> None:
    nc = count_bound_states(lenz18_well, 0.5, settings)
    assert nc.step_stats["n_steps"] > 1000
    assert nc.step_stats["h"] > 0.0
    left, right = nc.rho_span
    # window reaches into the growing-exponential region far enough for the
    # near-threshold node to be visible
    assert right >= lenz18_well.rho_star + 16.0 / 0.5 * 0.99


def _one_shot_count(w, lam: float, s: Settings, Z=None):
    """Reference: the whole grid from one np.linspace, f, g and d as full arrays.

    The well is counted at coupling Z (w.Z by default), with its maximum
    scaled as (Z / w.Z) * w.V_m.
    """
    import trenq.oracle as oracle_mod

    Z = w.Z if Z is None else Z
    hbar = s.hbar
    rho_l = w.rho_left
    rho_r = max(w.rho_right, w.rho_star + oracle_mod._WINDOW_LOG * hbar / lam)
    k_ref = max(math.sqrt(Z / w.Z * w.V_m), lam, 1e-2) / hbar
    h = min(0.02, oracle_mod._STEP_FACTOR * s.ode_tol**0.25 / k_ref)
    n_steps = int(math.ceil((rho_r - rho_l) / h)) + 1
    rho = np.linspace(rho_l, rho_r, n_steps)
    h = float(rho[1] - rho[0])
    f = (lam * lam - np.asarray(Z * w.base(rho), dtype=float)) / (hbar * hbar)
    g = 1.0 - h * h / 12.0 * f
    d = ((12.0 - 10.0 * g) / g)[:-1]
    d[0] = float(g[1]) * math.exp(lam * h / hbar) / float(g[0])
    return {
        "count": oracle_mod._count_nonpositive_pivots(d),
        "rho_span": (rho_l, rho_r),
        "step_stats": {"n_steps": n_steps, "h": h, "renormalizations": 0},
        "pivots": d,
        "log_scale": math.log(float(g[0])) - lam * (rho_r - rho_l) / hbar,
    }


def test_blocked_sweep_matches_one_shot_grid(settings) -> None:
    # count_bound_states builds the grid and the pivots' inputs block by
    # block; every output must be the one-shot computation's, bit for bit
    import trenq.oracle as oracle_mod

    block = oracle_mod._BLOCK
    rho = np.linspace(-10.0, 10.0, 801)
    tab = Tabulated(
        r_grid=np.exp(rho),
        U_values=-0.5 * 2000.0 * (0.5 / np.cosh(rho) ** 2) * np.exp(-2.0 * rho),
        q0=0.0,
        qinf=4.0,
    )
    w_tab = to_log_well(tab, settings)
    cases = [
        # shorter than one block
        (to_log_well(Lenz(1.0, 8.0), settings), 0.5, settings),
        # more than 10 blocks, with its 140 nodes spread over four of them
        (to_log_well(Lenz(0.5, 1e4), settings), 0.5, settings),
        # the window crosses both ends of the data, and whole blocks lie inside it
        (w_tab, 0.5, settings),
        (to_log_well(Lenz(1.0, 8.0), Settings(hbar=0.5)), 0.5, Settings(hbar=0.5)),
    ]
    assert w_tab.rho_left < rho[0] and rho[-1] < w_tab.rho_right

    def assert_one_shot(nc, w, lam, s, Z=None) -> None:
        ref = _one_shot_count(w, lam, s, Z)
        assert nc.count == ref["count"]
        assert nc.rho_span == ref["rho_span"]
        assert nc.step_stats == ref["step_stats"]
        assert np.array_equal(nc.pivots, ref["pivots"])
        assert nc.log_scale == ref["log_scale"]

    sizes = []
    for w, lam, s in cases:
        nc = count_bound_states(w, lam, s)
        assert_one_shot(nc, w, lam, s)
        sizes.append(nc.step_stats["n_steps"])
        if len(sizes) == 2:
            node_blocks = set(np.flatnonzero(nc.pivots <= 0.0) // block)
            assert nc.count == 140 and len(node_blocks) >= 4
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
        # residual size A itself agrees to 1e-12, i.e. ~1e-11 in Z there, below
        # the 1e-10 width the root-find stops at
        assert abs(residual_size(nc.log_amplitude()) - residual_size(expected)) <= 1e-12
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
    # work-count guard, no timing: Brent on the continuous residual, with the
    # bracket points of each well and lambda counted once, needs 579 counts,
    # 12.06 per threshold in grid order (16.40 when every search walked its
    # bracket afresh, 34.69 bisecting the count to 1e-8), and every threshold
    # stays within 3e-9 of the closed form.  Every count goes through the
    # module-level count_bound_states, which the benchmark's spans wrap, at
    # the coupling it is given as Z.  A count on the grid of the previous
    # count of its search reads the well from the search's memo: 6.44 fresh
    # grids per threshold (12.06 when each count evaluated its own)
    import trenq.oracle as oracle_mod

    counted_at = []
    counter = oracle_mod.count_bound_states

    def counted(w, lam, s, *, Z, **kwargs):
        counted_at.append(Z)
        return counter(w, lam, s, Z=Z, **kwargs)

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
    assert len(counted_at) == 579, len(counted_at) / 48
    assert fresh_grids / 48 <= 6.5, fresh_grids / 48
    assert worst <= 3e-9

    # a second threshold of the same well and lambda counts none of the
    # bracket points the first one counted
    w = to_log_well(Lenz(a=1.0, Z=1.0), settings)
    counted_at.clear()
    exact_critical_coupling(w, 0.5, 0, settings)
    first = set(counted_at)
    counted_at.clear()
    exact_critical_coupling(w, 0.5, 2, settings)
    assert {1.0, 2.0} <= first
    assert first.isdisjoint(counted_at)


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
