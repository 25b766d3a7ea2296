"""Benchmark of trenq, run from the root of a source checkout.

    python3 perfbench/run.py --workload validate_grid --seed 1 --seconds 30 --trace 0

One process drives trenq's public API in a closed loop, one item at a time,
until --seconds have passed, and checks every output against an independent
reference.  The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The lines
before it give the run's stamp (versions, numba, nproc, seed, commit) and a
summary (tail percentile and sample count, worst relative error, failures by
cause).  --out FILE also writes stamp, summary and result to FILE for
compare.py.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from contextlib import redirect_stdout
from importlib import metadata, util
from pathlib import Path

# one process, one thread: keep numerical libraries off the second core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibration  # noqa: E402  (imports numpy)
import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("validate_grid", "predict_batch", "count_scan")
SETUP_PROBES = 3
CALIBRATION_INTERVAL = 0.1  # seconds; the kernel takes 3-6 ms, so 3-5 % of a run
CLI_ARGS = ["validate", "--family", "lenz", "--a", "1", "--n-max", "1", "--l-max", "1", "--tol", "1e-6"]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="also write the full record here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_program():
    """Import trenq from this checkout's src/, never from an installed copy."""
    if not (SRC / "trenq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no trenq sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import trenq

    if SRC not in Path(trenq.__file__).resolve().parents:
        raise SystemExit(f"run.py: imported trenq from {trenq.__file__}, not from {SRC}")
    return trenq


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without walking to parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(args: argparse.Namespace, holdout_seed: int) -> dict:
    import numpy
    import scipy

    has_numba = util.find_spec("numba") is not None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "holdout_seed": holdout_seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": metadata.version("numba") if has_numba else None,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median time from process start to the first item being ready, over fresh processes.

    Wall-clock seconds: the calibration kernel does not track set-up, which
    is mostly interpreter start and imports (scaling by it widened the
    spread of set-up times from 0.23 to 0.38).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def _failure_site(exc: BaseException, package: Path) -> str:
    """'<Error> in <public function>' for an exception raised inside trenq.

    The public function is the outermost trenq frame.  An exception with no
    trenq frame is a fault of the benchmark itself and is re-raised.
    """
    tb = exc.__traceback__
    while tb is not None:
        if Path(tb.tb_frame.f_code.co_filename).resolve().is_relative_to(package):
            return f"{type(exc).__name__} in {tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    raise exc


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _digits(err: float) -> float:
    """Correct decimal digits of an output with relative error err, 0 to 16."""
    return min(16.0, max(0.0, -math.log10(max(err, 1e-16))))


def measure(items, seconds: float, package: Path, tracer=None) -> dict:
    """Run items in a closed loop for `seconds`; time run(), then check outside the timing.

    The calibration kernel is timed before the first item, after the last,
    and between items whenever CALIBRATION_INTERVAL has passed since it last
    ran.  An item's calibrated latency is its latency over the mean of the
    two kernel times that bracket it: the machine's speed moves within a
    second, and wider windows made the latency metrics spread more.
    """
    latencies: list[float] = []
    brackets: list[int] = []
    errors: list[float] = []
    kernel_s = [calibration.sample()]
    failures: Counter = Counter()
    mismatches: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    calibrated_at = start
    while time.perf_counter() < deadline:
        if time.perf_counter() - calibrated_at >= CALIBRATION_INTERVAL:
            kernel_s.append(calibration.sample())
            calibrated_at = time.perf_counter()
        brackets.append(len(kernel_s) - 1)
        item = next(items)
        if tracer is not None:
            tracer.item = len(latencies)
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a program error fails this item, not the run
            latencies.append(time.perf_counter() - t0)
            failures[_failure_site(exc, package)] += 1
            continue
        latencies.append(time.perf_counter() - t0)
        checker = checks.Checker()
        try:
            item.check(out, item.references(), checker)
        except checks.Mismatch as exc:
            failures["wrong output"] += 1
            mismatches.append(f"{item!r}: {exc}")
        errors.append(checker.worst)
    wall = time.perf_counter() - start
    kernel_s.append(calibration.sample())
    return {
        "wall": wall,
        "latencies": latencies,
        "calibrated": [
            lat / (0.5 * (kernel_s[k] + kernel_s[k + 1])) for lat, k in zip(latencies, brackets)
        ],
        "kernel_s": kernel_s,
        "failures": failures,
        "mismatches": mismatches,
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("run.py: --seconds must be positive")
    tq = _load_program()
    import workloads

    if not args.setup_probe and not args.trace:
        setup_s = _setup_seconds(args)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workloads.warm_up()
    items = workloads.WORKLOADS[args.workload](args.seed)
    first = next(items)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    package = Path(tq.__file__).resolve().parent
    run = measure(chain([first], items), args.seconds, package, tracer)
    attempted = len(run["latencies"])
    failed = sum(run["failures"].values())
    correct = not run["mismatches"]
    tail, tail_pct, samples = _tail(run["calibrated"])
    items_per_kcal = 1000.0 * attempted / sum(run["calibrated"])
    summary = {
        "item_tail_percentile": tail_pct,
        "item_samples": samples,
        "max_rel_err": max(run["errors"], default=0.0),
        "failures": dict(run["failures"]),
        "mismatches": run["mismatches"][:5],
        "kernel_ms_median": 1e3 * statistics.median(run["kernel_s"]),
        "items_per_s": attempted / run["wall"],
        "item_p50_s": statistics.median(run["latencies"]),
        "item_tail_s": _tail(run["latencies"])[0],
        "wall_s": run["wall"],
    }
    if args.workload == "validate_grid":
        summary["a_values"] = workloads.grid_a_values(args.seed)

    if args.trace:
        tracer.item = spans.CLI
        with redirect_stdout(io.StringIO()) as captured:
            rc = tq.cli.main(CLI_ARGS)
        rows = [line for line in captured.getvalue().splitlines() if line and not line.startswith("#")]
        summary["cli_validate"] = {"exit_code": rc, "rows": len(rows) - 1}
        if rc != 0 or len(rows) != 5:
            correct = False
        metrics = spans.layer_metrics(tracer.spans, attempted)
        metrics["trace.items_per_kcal"] = (items_per_kcal, "1/kcal")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_kcal": (items_per_kcal, "1/kcal"),
            "item_p50_cal": (statistics.median(run["calibrated"]), "cal"),
            "item_tail_cal": (tail, "cal"),
            "ok_frac": ((attempted - failed) / attempted, "1"),
            "err_digits": (statistics.median(_digits(e) for e in run["errors"]) if run["errors"] else 0.0, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stamp = _stamp(args, workloads.HOLDOUT_SEEDS[args.workload])
    if args.out is not None:
        args.out.write_text(json.dumps({"stamp": stamp, "summary": summary, "result": result}, indent=1))
    print("stamp " + json.dumps(stamp))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
