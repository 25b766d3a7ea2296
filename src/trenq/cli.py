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

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical
non-convergence, 3 validation exceeded tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .action import action_profile, fit_phi
from .corrections import solve_spectrum
from .effective import ordering_table, t_effective, t_ren
from .errors import (
    ConvergenceError,
    DegenerateWellError,
    InputError,
    NoSuchLevelError,
    PotentialConditionError,
    TrenqError,
)
from .potentials import (
    Lenz,
    QuantumNumbers,
    Settings,
    Tietz,
    lambda_of,
    load_potential,
    to_log_well,
)
from .thresholds import threshold_reports

_DEFAULT_PHI = 1.75  # universal slope for atom-like wells; override per potential


@dataclass
class RunConfig:
    """Parsed invocation; one instance fully determines one run."""

    command: str
    potential_file: Path | None = None
    d: int = 3
    hbar: float = 1.0
    phi_override: float | None = None
    n_max: int = 3
    l_max: int = 3
    lam: float | None = None
    Z: float | None = None
    tol: float = 1e-6
    output_path: Path | None = None
    format: str = "csv"
    n: int | None = None
    l: int | None = None
    family: str | None = None
    a: float | None = None
    samples: int = 1001
    points: int = 65
    transform: str = "corrected"
    oracle: bool = False
    quad_tol: float = 1e-10
    ode_tol: float = 1e-10

    def settings(self) -> Settings:
        return Settings(hbar=self.hbar, quad_tol=self.quad_tol, ode_tol=self.ode_tol)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _emit(config: RunConfig, header: list[str], rows: list[list], comments: list[str]) -> None:
    if config.format == "json":
        records = []
        for row in rows:
            rec = {}
            for key, val in zip(header, row):
                if isinstance(val, (np.floating, np.integer)):
                    val = val.item()
                rec[key] = val
            records.append(rec)
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = list(comments)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    if config.output_path is not None:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _potential(config: RunConfig):
    if config.potential_file is not None:
        return load_potential(config.potential_file)
    if config.family is not None:
        return _family_potential(config.family, config.a, config.Z)
    raise InputError(f"command '{config.command}' requires --potential or --family")


def _family_potential(family: str, a: float | None, Z: float | None):
    Z = 1.0 if Z is None else Z
    if family == "lenz":
        if a is None:
            raise InputError("family 'lenz' requires --a")
        return Lenz(a=a, Z=Z)
    if family == "tietz":
        return Tietz(Z=Z)
    raise InputError(f"unknown family {family!r}; expected lenz or tietz")


def _transform_exponent(config: RunConfig) -> int:
    if config.transform not in ("corrected", "printed"):
        raise InputError(f"transform must be 'corrected' or 'printed', got {config.transform!r}")
    return 2 if config.transform == "corrected" else 1


def _states(config: RunConfig) -> list[QuantumNumbers]:
    return [
        QuantumNumbers(n=n, l=l, d=config.d)
        for n in range(config.n_max + 1)
        for l in range(config.l_max + 1)
    ]


def _fitted_phi(config: RunConfig, s: Settings):
    p = _potential(config)
    well = to_log_well(p, s, transform_exponent=_transform_exponent(config))
    return fit_phi(action_profile(well, s)), well


def _run_well(config: RunConfig) -> int:
    s = config.settings()
    well = to_log_well(_potential(config), s, transform_exponent=_transform_exponent(config))
    if config.samples < 2:
        raise InputError("need at least 2 samples")
    rho = np.linspace(well.rho_left, well.rho_right, config.samples)
    w_vals = np.asarray(well.profile(rho), dtype=float)
    v_vals = 0.5 * (well.V_m - w_vals)
    rows = [[r, wv, vv] for r, wv, vv in zip(rho, w_vals, v_vals)]
    _emit(config, ["rho", "W", "V"], rows, [])
    return 0


def _run_action(config: RunConfig) -> int:
    s = config.settings()
    well = to_log_well(_potential(config), s, transform_exponent=_transform_exponent(config))
    profile = action_profile(well, s, n_points=config.points)
    rows = [
        [lam, ival, profile.Phi_m - ival]
        for lam, ival in zip(profile.lambda_grid, profile.I_values)
    ]
    _emit(config, ["lambda", "I", "t"], rows, [])
    return 0


def _run_phi(config: RunConfig) -> int:
    s = config.settings()
    phi, _ = _fitted_phi(config, s)
    if config.format == "json":
        _emit(config, ["phi"], [[phi]], [])
    else:
        text = _fmt(phi) + "\n"
        if config.output_path is not None:
            Path(config.output_path).write_text(text)
        else:
            sys.stdout.write(text)
    return 0


def _resolve_phi(config: RunConfig, s: Settings) -> tuple[float, str]:
    if config.phi_override is not None:
        return config.phi_override, "override"
    if config.potential_file is not None or config.family is not None:
        phi, _ = _fitted_phi(config, s)
        return phi, "fitted"
    return _DEFAULT_PHI, "default"


def _run_tren(config: RunConfig) -> int:
    if config.n is None or config.l is None:
        raise InputError("tren requires --n and --l")
    s = config.settings()
    phi, _ = _resolve_phi(config, s)
    lam = config.lam if config.lam is not None else lambda_of(config.l, config.d)
    nu = config.n + 0.5
    T = t_effective(nu, lam, phi)
    rows = [[config.n, config.l, config.d, nu, lam, phi, T, t_ren(T)]]
    _emit(config, ["n", "l", "d", "nu", "lambda", "phi", "T", "T_ren"], rows, [])
    return 0


def _run_spectrum(config: RunConfig) -> int:
    s = config.settings()
    well = to_log_well(_potential(config), s, transform_exponent=_transform_exponent(config))
    rows = []
    floor = 1e-9 * well.V_m**0.5  # drop states sitting exactly at threshold
    for n in range(config.n_max + 1):
        try:
            lam_n = solve_spectrum(well, n, s)
        except NoSuchLevelError:
            break
        if lam_n <= floor:
            break
        rows.append([n, lam_n])
    _emit(config, ["n", "lambda_n"], rows, [])
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


def _run_threshold(config: RunConfig) -> int:
    s = config.settings()
    well = to_log_well(_potential(config), s, transform_exponent=_transform_exponent(config))
    if config.phi_override is not None:
        phi, source = config.phi_override, "override"
    else:
        phi, source = fit_phi(action_profile(well, s)), "fitted"
    reports = threshold_reports(
        well, _states(config), s, t_source=phi, with_oracle=config.oracle
    )
    comments = [f"# phi = {_fmt(phi)} ({source})"] if config.format == "csv" else []
    _emit(config, _REPORT_HEADER, _report_rows(reports), comments)
    return 0


def _run_ordering(config: RunConfig) -> int:
    s = config.settings()
    phi, source = _resolve_phi(config, s)
    rows = ordering_table(config.n_max, config.l_max, config.d, phi)
    comments = [f"# phi = {_fmt(phi)} ({source})"] if config.format == "csv" else []
    table = [[r.n, r.l, r.nu, r.lam, r.T, r.T_ren] for r in rows]
    _emit(config, ["n", "l", "nu", "lambda", "T", "T_ren"], table, comments)
    return 0


def _run_validate(config: RunConfig) -> int:
    if config.family is None:
        raise InputError("validate requires --family lenz or --family tietz")
    s = config.settings()
    p = _family_potential(config.family, config.a, 1.0)
    well = to_log_well(p, s, transform_exponent=_transform_exponent(config))
    phi = fit_phi(action_profile(well, s))
    reports = threshold_reports(well, _states(config), s, t_source=phi, with_oracle=True)
    compared = [r.rel_err_ren for r in reports if r.rel_err_ren is not None]
    if not compared:
        raise InputError("no state in the grid is within the oracle's scope")
    worst = max(compared)
    comments = []
    if config.format == "csv":
        comments = [
            f"# family = {config.family}, a = {_fmt(p.a)}, transform = {config.transform}, "
            f"phi = {_fmt(phi)}, max_rel_err_ren = {_fmt(worst)}, tol = {_fmt(config.tol)}"
        ]
    _emit(config, _REPORT_HEADER, _report_rows(reports), comments)
    return 0 if worst <= config.tol else 3


_HANDLERS = {
    "well": _run_well,
    "action": _run_action,
    "phi": _run_phi,
    "tren": _run_tren,
    "spectrum": _run_spectrum,
    "threshold": _run_threshold,
    "ordering": _run_ordering,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    if config.command not in _HANDLERS:
        raise InputError(f"unknown command {config.command!r}")
    if config.format not in ("csv", "json"):
        raise InputError(f"format must be csv or json, got {config.format!r}")
    if not 0.0 < config.tol < np.inf:
        raise InputError("tol must be positive and finite")
    if config.n_max < 0 or config.l_max < 0:
        raise InputError("n_max and l_max must be nonnegative")
    return _HANDLERS[config.command](config)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the documented
    # invalid-input code by raising through the normal error path instead
    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trenq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, potential: bool = True) -> None:
        if potential:
            p.add_argument("--potential", type=Path, default=None, help="potential JSON file")
            p.add_argument("--family", choices=["lenz", "tietz"], default=None)
            p.add_argument("--a", type=float, default=None, help="Lenz width parameter")
            p.add_argument("--Z", type=float, default=None, help="coupling for inline families")
            p.add_argument(
                "--transform",
                choices=["corrected", "printed"],
                default="corrected",
                help="log-transform variant (printed is a diagnostic only)",
            )
        p.add_argument("--d", type=int, default=3, help="space dimension")
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--quad-tol", type=float, default=1e-10, dest="quad_tol",
                       help="quadrature tolerance, relative to max(1, I) for the action I")
        p.add_argument("--ode-tol", type=float, default=1e-10, dest="ode_tol")
        p.add_argument("--output", type=Path, default=None, dest="output")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("well", help="sample the transformed well")
    add_common(p)
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("action", help="sample the action profile")
    add_common(p)
    p.add_argument("--points", type=int, default=65)

    p = sub.add_parser("phi", help="fit the linear deficit slope")
    add_common(p)

    p = sub.add_parser("tren", help="effective quantum numbers for one state")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--phi", type=float, default=None, dest="phi")
    p.add_argument("--lambda", type=float, default=None, dest="lam")

    p = sub.add_parser("spectrum", help="approximate spectrum lambda_n")
    add_common(p)
    p.add_argument("--n-max", type=int, default=32, dest="n_max")

    p = sub.add_parser("threshold", help="critical couplings per state")
    add_common(p)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--l-max", type=int, default=3, dest="l_max")
    p.add_argument("--phi", type=float, default=None, dest="phi")
    p.add_argument("--oracle", action="store_true", help="compare against the exact oracle")

    p = sub.add_parser("ordering", help="level ordering table")
    add_common(p)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--l-max", type=int, default=3, dest="l_max")
    p.add_argument("--phi", type=float, default=None, dest="phi")

    p = sub.add_parser("validate", help="sweep predictions against the oracle")
    add_common(p)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--l-max", type=int, default=3, dest="l_max")
    p.add_argument("--tol", type=float, default=1e-6)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    mapping = {
        "potential": "potential_file",
        "output": "output_path",
        "phi": "phi_override",
    }
    for key, value in vars(args).items():
        if key == "command" or value is None:
            continue
        setattr(cfg, mapping.get(key, key), value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return run(_config_from_args(args))
    except (InputError, PotentialConditionError, NoSuchLevelError) as exc:
        print(f"trenq: error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, DegenerateWellError) as exc:
        print(f"trenq: numerical failure: {exc}", file=sys.stderr)
        return 2
    except TrenqError as exc:  # pragma: no cover - safety net
        print(f"trenq: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
