"""Tiny self-test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py

It runs one small item of every kind and requires its checks to pass, then
perturbs every output and every reference value of that item, one at a
time, and requires the checks to reject each perturbation.  It also shows
that a program exception fails an item without aborting the run, that the
closed forms here agree with trenq's own, and that a short run of every
workload prints the metric names BENCHMARK.json declares.  About a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import checks
import run

tq = run._load_program()
import workloads  # noqa: E402  (needs trenq on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def variants(value):
    """Every single-value perturbation of an output or reference value."""
    if isinstance(value, list):
        for i, v in enumerate(value):
            for p in variants(v):
                yield value[:i] + [p] + value[i + 1 :]
    elif isinstance(value, tuple):
        yield (value[0] + 1,) + value[1:]
    elif value is None:
        yield 1.0
    elif isinstance(value, int):
        yield value + 1
    else:
        yield value * 1.05


def check_item(item) -> None:
    """Run one item; its checks must pass, and fail for every perturbation."""
    out, ref = item.run(), item.references()
    item.check(out, ref, checks.Checker())
    rejected = 0
    for is_output, key in [(True, k) for k in out] + [(False, k) for k in ref]:
        for bad in variants(out[key] if is_output else ref[key]):
            pair = (dict(out, **{key: bad}), ref) if is_output else (out, dict(ref, **{key: bad}))
            try:
                item.check(*pair, checks.Checker())
            except checks.Mismatch:
                rejected += 1
                continue
            raise AssertionError(f"{item!r}: perturbed {key} = {bad!r} was accepted")
    print(f"ok  {item!r}: checks pass, {rejected} perturbations rejected")


def test_items() -> None:
    p = workloads.Potential
    for item in (
        workloads.GridState(2.0, 0, 1, {}),
        workloads.TietzSpot(),
        workloads.WellPrediction(p("lenz", 2.0, 8.0), (1, 1)),
        workloads.WellPrediction(p("tietz", 0.5, 40.0), (0, 2)),
        workloads.WellPrediction(p("tabulated", 1.5, 30.0), (0, 0)),
        workloads.BoundStateCount(p("lenz", 1.3, 60.0), 1),
        workloads.BoundStateCount(p("tabulated", 0.8, 25.0), 0),
    ):
        check_item(item)


def test_generators() -> None:
    for name, make in workloads.WORKLOADS.items():
        for seed in (0, 1, workloads.HOLDOUT_SEEDS[name]):
            a, b = make(seed), make(seed)
            first = [repr(next(a)) for _ in range(50)]
            assert first == [repr(next(b)) for _ in range(50)], f"{name} seed {seed} is not reproducible"
    assert workloads.grid_a_values(0) == workloads.ACCEPTANCE_A
    print("ok  every workload makes the same inputs from the same seed")


def test_references() -> None:
    for a in (0.5, 1.0, 1.7):
        for n in range(4):
            for l in range(4):
                q = tq.QuantumNumbers(n, l, 3)
                assert math.isclose(checks.lenz_threshold(a, n, q.lam), tq.lenz_exact_threshold(a, q)[0], rel_tol=1e-14)
        for Z in (0.3, 8.0, 1e5):
            mine = [checks.lenz_level(a, Z, n) for n in range(60)]
            theirs = tq.lenz_analytic_spectrum(a, Z)
            assert [m is not None for m in mine] == [n < len(theirs) for n in range(60)]
            assert all(math.isclose(m, t, rel_tol=1e-12) for m, t in zip(mine, theirs))
    print("ok  closed forms agree with trenq.lenz_exact_threshold and lenz_analytic_spectrum")


class _Raises:
    def __init__(self, exc_factory) -> None:
        self.exc_factory = exc_factory

    def run(self):
        return self.exc_factory()


def test_failures_are_counted() -> None:
    package = Path(tq.__file__).resolve().parent
    bad_input = _Raises(lambda: tq.t_ren(0.1))
    wrong = workloads.GridState(2.0, 0, 0, {})
    wrong.references = lambda: {"z_closed": 2.0}
    items = iter([bad_input, wrong] + [workloads.TietzSpot()] * 1000)
    res = run.measure(items, 0.5, package)
    assert res["failures"]["InputError in t_ren"] == 1, res["failures"]
    assert res["failures"]["wrong output"] == 1 and len(res["mismatches"]) == 1, res
    assert len(res["latencies"]) >= 3
    try:
        run.measure(iter([_Raises(lambda: 1 / 0)]), 0.5, package)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("an exception from the benchmark's own code was swallowed")
    print("ok  program exceptions and wrong outputs fail their item; the run goes on")


def test_metric_names() -> None:
    declared = {
        "0": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1, result
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert units == declared[trace], set(units.items()) ^ set(declared[trace].items())
            assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values()), result
    print("ok  every workload prints exactly the declared metrics, traced and untraced")


if __name__ == "__main__":
    test_references()
    test_generators()
    test_items()
    test_failures_are_counted()
    test_metric_names()
    print("selftest passed")
    sys.exit(0)
