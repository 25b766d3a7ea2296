"""Command-line front end: potential loading, dispatch, CSV/JSON emission.

Commands:
    well       sample the transformed well (rho, W, V)
    action     sample the action profile (lambda, I, t)
    phi        fit the linear deficit slope of a potential
    tren       effective and renormalized quantum numbers for one state
    spectrum   approximate zero-energy spectrum lambda_n of a well
    threshold  predicted critical couplings per state, optionally vs oracle
    ordering   level-ordering table sorted by the renormalized number
    validate   end-to-end sweep of predictions against the exact oracle

main(argv) is the one entry point: it parses the flags and hands the
argparse namespace to the command's handler.  Exit codes: 0 success,
1 invalid input or configuration, 2 numerical non-convergence,
3 validation exceeded tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .action import action_profile, fit_phi
from .corrections import solve_spectrum
from .effective import ordering_table, t_effective, t_ren
from .errors import ConvergenceError, InputError, NoSuchLevelError
from .potentials import (
    Lenz,
    QuantumNumbers,
    Settings,
    Tietz,
    load_potential,
    quantum_index,
    to_log_well,
)
from .thresholds import threshold_reports

_DEFAULT_PHI = 1.75  # universal slope for atom-like wells; override per potential
_TRANSFORM_EXPONENTS = {"corrected": 2, "printed": 1}
# most --samples of `well` and --points of `action`, (n, l) states of a grid
# and levels of `spectrum`, checked before anything is built: the action
# profile's batched quadrature holds ~12 KB a point (1.2 GB at the cap), the
# well's CSV rows ~0.5 KB a sample, and `spectrum` solves the levels one by one
_MAX_POINTS = 100_000


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        args.output.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write --output: {exc}") from None


def _emit(args: argparse.Namespace, header: list[str], rows: list[list], comments: list[str]) -> None:
    if args.format == "json":
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = list(comments)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _settings(args: argparse.Namespace) -> Settings:
    # a command takes only the Settings flags it reads; the rest keep their defaults
    return Settings(
        hbar=getattr(args, "hbar", Settings.hbar),
        quad_tol=getattr(args, "quad_tol", Settings.quad_tol),
        ode_tol=getattr(args, "ode_tol", Settings.ode_tol),
    )


def _family_potential(family: str, a: float | None, Z: float):
    if family == "tietz":
        if a is not None:
            raise InputError("family 'tietz' takes no --a: its width is fixed at 1/2")
        return Tietz(Z=Z)
    if a is None:
        raise InputError("family 'lenz' requires --a")
    return Lenz(a=a, Z=Z)


def _log_well(args: argparse.Namespace, p, s: Settings):
    return to_log_well(p, s, transform_exponent=_TRANSFORM_EXPONENTS[args.transform])


def _well(args: argparse.Namespace, s: Settings):
    if args.potential is not None:
        given = (("--family", args.family), ("--a", args.a), ("--Z", args.Z))
        flags = [flag for flag, value in given if value is not None]
        if flags:
            raise InputError(f"--potential sets the whole well and takes no {', '.join(flags)}")
        return _log_well(args, load_potential(args.potential), s)
    if args.family is not None:
        Z = 1.0 if args.Z is None else args.Z
        return _log_well(args, _family_potential(args.family, args.a, Z), s)
    raise InputError(f"command '{args.command}' requires --potential or --family")


def _check_grid(args: argparse.Namespace) -> None:
    states = (args.n_max + 1) * (args.l_max + 1)
    if states > _MAX_POINTS:
        raise InputError(f"--n-max and --l-max give {states} states, more than {_MAX_POINTS}")


def _states(args: argparse.Namespace) -> list[QuantumNumbers]:
    _check_grid(args)
    return [
        QuantumNumbers(n=n, l=l, d=args.d)
        for n in range(args.n_max + 1)
        for l in range(args.l_max + 1)
    ]


def _run_well(args: argparse.Namespace) -> int:
    if not 2 <= args.samples <= _MAX_POINTS:
        raise InputError(f"--samples must lie between 2 and {_MAX_POINTS}, got {args.samples}")
    well = _well(args, _settings(args))
    rho = np.linspace(well.rho_left, well.rho_right, args.samples)
    w_vals = np.asarray(well.profile(rho), dtype=float)
    v_vals = 0.5 * (well.V_m - w_vals)
    rows = [[r, wv, vv] for r, wv, vv in zip(rho, w_vals, v_vals)]
    _emit(args, ["rho", "W", "V"], rows, [])
    return 0


def _run_action(args: argparse.Namespace) -> int:
    if args.points > _MAX_POINTS:
        raise InputError(f"--points must be at most {_MAX_POINTS}, got {args.points}")
    s = _settings(args)
    profile = action_profile(_well(args, s), s, n_points=args.points)
    rows = [
        [lam, ival, profile.Phi_m - ival]
        for lam, ival in zip(profile.lambda_grid, profile.I_values)
    ]
    _emit(args, ["lambda", "I", "t"], rows, [])
    return 0


def _run_phi(args: argparse.Namespace) -> int:
    s = _settings(args)
    phi, _ = _resolve_phi(args, s, _well(args, s))
    if args.format == "json":
        _emit(args, ["phi"], [[phi]], [])
    else:
        _write(args, _fmt(phi) + "\n")
    return 0


def _resolve_phi(args: argparse.Namespace, s: Settings, well=None) -> tuple[float, str]:
    # phi and validate take no --phi flag
    if getattr(args, "phi", None) is not None:
        return args.phi, "override"
    if well is None and args.potential is None and args.family is None:
        return _DEFAULT_PHI, "default"
    return fit_phi(action_profile(_well(args, s) if well is None else well, s)), "fitted"


def _run_tren(args: argparse.Namespace) -> int:
    q = QuantumNumbers(args.n, args.l, args.d)
    phi, _ = _resolve_phi(args, _settings(args))
    lam = q.lam if args.lam is None else args.lam
    T = t_effective(q.nu, lam, phi)
    rows = [[q.n, q.l, q.d, q.nu, lam, phi, T, t_ren(T)]]
    _emit(args, ["n", "l", "d", "nu", "lambda", "phi", "T", "T_ren"], rows, [])
    return 0


def _run_spectrum(args: argparse.Namespace) -> int:
    if args.n_max >= _MAX_POINTS:
        raise InputError(f"--n-max must be below {_MAX_POINTS}, got {args.n_max}")
    s = _settings(args)
    well = _well(args, s)
    rows = []
    floor = 1e-9 * well.V_m**0.5  # drop states sitting exactly at threshold
    for n in range(args.n_max + 1):
        try:
            lam_n = solve_spectrum(well, n, s)
        except NoSuchLevelError:
            break
        if lam_n <= floor:
            break
        rows.append([n, lam_n])
    _emit(args, ["n", "lambda_n"], rows, [])
    return 0


_REPORT_HEADER = [
    "n",
    "l",
    "d",
    "T",
    "T_ren",
    "Z_ren",
    "Z_unren",
    "Z_exact",
    "rel_err_ren",
    "rel_err_unren",
]


def _report_rows(reports) -> list[list]:
    return [
        [
            r.state.n,
            r.state.l,
            r.state.d,
            r.T,
            r.T_ren,
            r.Z_pred_ren,
            r.Z_pred_unren,
            r.Z_exact,
            r.rel_err_ren,
            r.rel_err_unren,
        ]
        for r in reports
    ]


def _run_threshold(args: argparse.Namespace) -> int:
    states = _states(args)
    s = _settings(args)
    well = _well(args, s)
    phi, source = _resolve_phi(args, s, well)
    reports = threshold_reports(well, states, s, t_source=phi, with_oracle=args.oracle)
    comments = [f"# phi = {_fmt(phi)} ({source})"] if args.format == "csv" else []
    _emit(args, _REPORT_HEADER, _report_rows(reports), comments)
    return 0


def _run_ordering(args: argparse.Namespace) -> int:
    _check_grid(args)
    phi, source = _resolve_phi(args, _settings(args))
    rows = ordering_table(args.n_max, args.l_max, args.d, phi)
    comments = [f"# phi = {_fmt(phi)} ({source})"] if args.format == "csv" else []
    table = [[r.n, r.l, r.nu, r.lam, r.T, r.T_ren] for r in rows]
    _emit(args, ["n", "l", "nu", "lambda", "T", "T_ren"], table, comments)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    if args.family is None:
        raise InputError("validate requires --family lenz or --family tietz")
    if not 0.0 < args.tol < math.inf:
        raise InputError("tol must be positive and finite")
    states = _states(args)
    s = _settings(args)
    p = _family_potential(args.family, args.a, 1.0)
    well = _log_well(args, p, s)
    phi, _ = _resolve_phi(args, s, well)
    reports = threshold_reports(well, states, s, t_source=phi, with_oracle=True)
    compared = [r.rel_err_ren for r in reports if r.rel_err_ren is not None]
    if not compared:
        raise InputError("no state in the grid is within the oracle's scope")
    worst = max(compared)
    comments = []
    if args.format == "csv":
        comments = [
            f"# family = {args.family}, a = {_fmt(p.a)}, transform = {args.transform}, "
            f"phi = {_fmt(phi)}, max_rel_err_ren = {_fmt(worst)}, tol = {_fmt(args.tol)}"
        ]
    _emit(args, _REPORT_HEADER, _report_rows(reports), comments)
    return 0 if worst <= args.tol else 3


def _max_index(text: str) -> int:
    """argparse type of --n-max and --l-max."""
    return quantum_index(int(text), "--n-max and --l-max")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the documented
    # invalid-input code by raising through the normal error path instead
    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trenq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        # validate always sweeps a family at Z = 1, so it takes no --potential or --Z
        if name != "validate":
            p.add_argument("--potential", default=None, help="potential JSON file or JSON text")
            p.add_argument(
                "--Z", type=float, default=None, help="coupling for inline families (default 1)"
            )
        p.add_argument("--family", choices=["lenz", "tietz"], default=None)
        p.add_argument("--a", type=float, default=None, help="Lenz width parameter")
        p.add_argument(
            "--transform",
            choices=list(_TRANSFORM_EXPONENTS),
            default="corrected",
            help="log-transform variant (printed is a diagnostic only)",
        )
        p.add_argument("--output", type=Path, default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        return p

    # the flags below go only to the commands whose handler reads them
    def semiclassical(p: _Parser) -> None:
        p.add_argument("--hbar", type=float, default=Settings.hbar)
        p.add_argument("--quad-tol", type=float, default=Settings.quad_tol,
                       help="quadrature tolerance, relative to max(1, I) for the action I")

    def oracle(p: _Parser) -> None:
        p.add_argument("--ode-tol", type=float, default=Settings.ode_tol,
                       help="sets the node-counting grid of the exact oracle; "
                       "0 < ODE_TOL <= 1e-7")

    def dimension(p: _Parser) -> None:
        p.add_argument("--d", type=int, default=3, help="space dimension")

    p = command("well", _run_well, "sample the transformed well")
    p.add_argument("--samples", type=int, default=1001, help=f"2 to {_MAX_POINTS}")

    p = command("action", _run_action, "sample the action profile")
    semiclassical(p)
    p.add_argument("--points", type=int, default=65, help=f"5 to {_MAX_POINTS}")

    semiclassical(command("phi", _run_phi, "fit the linear deficit slope"))

    p = command("tren", _run_tren, "effective quantum numbers for one state")
    semiclassical(p)
    dimension(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--lambda", type=float, default=None, dest="lam")

    p = command("spectrum", _run_spectrum, "approximate spectrum lambda_n")
    semiclassical(p)
    p.add_argument("--n-max", type=_max_index, default=32, help=f"below {_MAX_POINTS}")

    p = command("threshold", _run_threshold, "critical couplings per state")
    semiclassical(p)
    oracle(p)
    dimension(p)
    p.add_argument("--n-max", type=_max_index, default=3)
    p.add_argument("--l-max", type=_max_index, default=3)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--oracle", action="store_true", help="compare against the exact oracle")

    p = command("ordering", _run_ordering, "level ordering table")
    semiclassical(p)
    dimension(p)
    p.add_argument("--n-max", type=_max_index, default=3)
    p.add_argument("--l-max", type=_max_index, default=3)
    p.add_argument("--phi", type=float, default=None)

    p = command("validate", _run_validate, "sweep predictions against the oracle")
    semiclassical(p)
    oracle(p)
    dimension(p)
    p.add_argument("--n-max", type=_max_index, default=3)
    p.add_argument("--l-max", type=_max_index, default=3)
    p.add_argument("--tol", type=float, default=1e-6)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one invocation (sys.argv[1:] by default); returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"trenq: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"trenq: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
