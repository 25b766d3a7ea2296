"""Compare benchmark records written by run.py --out.

    python3 perfbench/compare.py BEFORE.json ... [--vs AFTER.json ...]

For every workload and metric it prints the median and the spread
(interquartile distance over median) of each side.  With --vs it also prints
the change of the median, marked REGRESSION where it is worse than the
metric's bound in BENCHMARK.json, and the tracing overhead when one side is
traced and the other is not.  Records made with and without numba are
flagged, because numba changes the oracle's cost about a hundredfold.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SPEC = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def _load(paths: list[Path]) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        by_workload[record["stamp"]["workload"]].append(record)
    return by_workload


def _stats(records: list[dict], metric: str) -> tuple[float, float] | None:
    values = [r["result"]["metrics"][metric]["value"] for r in records if metric in r["result"]["metrics"]]
    if not values:
        return None
    median = statistics.median(values)
    if len(values) < 2:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("nan")


def _numba(records: list[dict]) -> set:
    return {r["stamp"]["numba"] is not None for r in records}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before", nargs="+", type=Path)
    p.add_argument("--vs", nargs="+", type=Path, default=[], dest="after")
    args = p.parse_args(argv)
    before, after = _load(args.before), _load(args.after)

    numba = _numba([r for rs in list(before.values()) + list(after.values()) for r in rs])
    if len(numba) > 1:
        print("WARNING: records with and without numba are mixed; the oracle's cost differs ~100x between them")
    for workload, records in sorted(before.items()):
        others = after.get(workload, [])
        print(f"{workload}: {len(records)} record(s)" + (f" vs {len(others)}" if others else ""))
        names = sorted({m for r in records + others for m in r["result"]["metrics"]})
        for name in names:
            a, b = _stats(records, name), _stats(others, name)
            bound = SPEC.get(name, {}).get("bound")
            line = f"  {name:40s}"
            for side in (a, b):
                if side is not None:
                    line += f" {side[0]:12.5g} (spread {side[1]:.3f})"
            if a is not None and b is not None and a[0]:
                change = (b[0] - a[0]) / abs(a[0])
                worse = -change if SPEC.get(name, {}).get("better") == "higher" else change
                line += f" change {change:+.3f}"
                if bound is not None and worse > bound:
                    line += " REGRESSION"
            if bound is not None and a is not None and a[1] > bound / 3:
                line += " (spread above a third of the bound)"
            print(line)
        untraced, traced = _stats(records, "items_per_kcal"), _stats(others, "trace.items_per_kcal")
        if untraced and traced:
            print(f"  tracing overhead: items_per_kcal {untraced[0]:.4g} untraced vs {traced[0]:.4g} traced ({traced[0] / untraced[0] - 1:+.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
