import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import trenq
import trenq.cli as cli
from trenq.cli import main

LENZ_A1 = {"family": "lenz", "a": 1.0, "Z": 8.0}


def write_potential(tmp_path, spec, name="pot.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def parse_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_tren_command(capsys) -> None:
    assert main(["tren", "--n", "0", "--l", "0", "--d", "3", "--phi", "1.75"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["T"]) == 1.375
    assert float(rec["T_ren"]) == pytest.approx(1.2808688457449497, rel=1e-11)


def test_tren_lambda_override(capsys) -> None:
    assert main(["tren", "--n", "0", "--l", "0", "--phi", "1.0", "--lambda", "2.5"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["T"]) == 3.0


def test_phi_command(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main(["phi", "--potential", str(pot)]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.0) <= 1e-8
    assert main(["phi", "--family", "tietz"]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 2.0) <= 1e-8
    # the JSON path: one record holding phi alone
    assert main(["phi", "--family", "tietz", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1 and list(records[0]) == ["phi"]
    assert abs(records[0]["phi"] - 2.0) <= 1e-8


def test_spectrum_command(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main(["spectrum", "--potential", str(pot)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["n", "lambda_n"]
    assert len(rows) == 2
    assert float(rows[0][1]) == pytest.approx(1.5615528128088303, abs=1e-8)
    assert float(rows[1][1]) == pytest.approx(0.5615528128088303, abs=1e-8)


def test_threshold_command(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main([
        "threshold", "--potential", str(pot), "--n-max", "1", "--l-max", "1",
    ]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == [
        "n", "l", "d", "T", "T_ren", "Z_ren", "Z_unren", "Z_exact",
        "rel_err_ren", "rel_err_unren",
    ]
    assert len(rows) == 4
    rec = dict(zip(header, rows[0]))
    assert (rec["n"], rec["l"]) == ("0", "0")
    assert float(rec["Z_ren"]) == pytest.approx(1.5, rel=1e-8)
    assert rec["Z_exact"] == ""


def test_threshold_with_oracle(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main([
        "threshold", "--potential", str(pot), "--n-max", "0", "--l-max", "0", "--oracle",
    ]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["Z_exact"]) == pytest.approx(1.5, rel=1e-6)
    assert float(rec["rel_err_ren"]) <= 1e-6


def test_ordering_deterministic_output(tmp_path) -> None:
    out1 = tmp_path / "o1.csv"
    out2 = tmp_path / "o2.csv"
    for out in (out1, out2):
        assert main(["ordering", "--n-max", "2", "--l-max", "2", "--output", str(out)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0] == "# phi = 1.75 (default)"
    header, rows = parse_csv(text)
    assert header == ["n", "l", "nu", "lambda", "T", "T_ren"]
    assert len(rows) == 9


def test_ordering_fitted_phi_comment(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main(["ordering", "--potential", str(pot), "--n-max", "1", "--l-max", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# phi = ")
    assert "(fitted)" in out.splitlines()[0]


def test_json_format_mirrors_csv(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main([
        "threshold", "--potential", str(pot), "--n-max", "0", "--l-max", "0",
        "--format", "json",
    ]) == 0
    records = json.loads(capsys.readouterr().out)
    assert isinstance(records, list) and len(records) == 1
    assert set(records[0]) == {
        "n", "l", "d", "T", "T_ren", "Z_ren", "Z_unren", "Z_exact",
        "rel_err_ren", "rel_err_unren",
    }
    assert records[0]["Z_exact"] is None
    assert records[0]["Z_ren"] == pytest.approx(1.5, rel=1e-8)


def test_well_command_and_round_trip(tmp_path, capsys) -> None:
    # sample the unit-coupling well, re-ingest it as tabulated data, and
    # check the predicted thresholds against the analytic family values
    pot = write_potential(tmp_path, {"family": "lenz", "a": 1.0, "Z": 1.0})
    well_csv = tmp_path / "well.csv"
    assert main([
        "well", "--potential", str(pot), "--samples", "2001", "--output", str(well_csv),
    ]) == 0
    header, rows = parse_csv(well_csv.read_text())
    assert header == ["rho", "W", "V"]
    rho = np.array([float(r[0]) for r in rows])
    w_vals = np.array([float(r[1]) for r in rows])
    assert np.all(w_vals >= 0.0)
    r = np.exp(rho)
    u = -0.5 * w_vals * np.exp(-2.0 * rho)
    tab = write_potential(
        tmp_path,
        {"family": "tabulated", "r": list(r), "U": list(u), "q0": 0.0, "qinf": 4.0},
        name="tab.json",
    )
    assert main([
        "threshold", "--potential", str(tab), "--n-max", "1", "--l-max", "1",
    ]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    for row in rows:
        rec = dict(zip(header, row))
        nu = int(rec["n"]) + 0.5
        lam = int(rec["l"]) + 0.5
        exact = 2.0 * ((nu + lam) ** 2 - 0.25)
        assert abs(float(rec["Z_ren"]) - exact) / exact <= 1e-4


def test_action_command(tmp_path, capsys) -> None:
    pot = write_potential(tmp_path, LENZ_A1)
    assert main(["action", "--potential", str(pot)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["lambda", "I", "t"]
    assert len(rows) == 65
    assert float(rows[0][2]) == 0.0  # t(0) = 0
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-8)
    assert float(rows[-1][1]) == 0.0


def test_validate_command_pass_and_printed_failure(capsys) -> None:
    assert main([
        "validate", "--family", "tietz", "--n-max", "1", "--l-max", "1", "--tol", "1e-6",
    ]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# family = tietz")
    assert main([
        "validate", "--family", "lenz", "--a", "1", "--n-max", "0", "--l-max", "0",
        "--transform", "printed",
    ]) == 3
    capsys.readouterr()


def test_exit_codes_for_bad_input(tmp_path, capsys) -> None:
    # command requiring a potential without one
    assert main(["spectrum"]) == 1
    # unknown key in the potential file
    bad = write_potential(tmp_path, {"family": "lenz", "a": 1.0, "Z": 8.0, "w": 1})
    assert main(["spectrum", "--potential", str(bad)]) == 1
    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{family: lenz")
    assert main(["spectrum", "--potential", str(broken)]) == 1
    # bad dimension makes lambda negative
    assert main(["tren", "--n", "0", "--l", "0", "--d", "1"]) == 1
    # unknown flag goes through the documented invalid-input path
    assert main(["spectrum", "--nope"]) == 1
    # condition violation: lenz with a = 0
    zero_a = write_potential(tmp_path, {"family": "lenz", "a": 0.0, "Z": 8.0}, "zero.json")
    assert main(["well", "--potential", str(zero_a)]) == 1
    # non-finite parameters and settings are input errors, not numerical ones
    assert main(["validate", "--family", "lenz", "--a", "inf"]) == 1
    assert main(["phi", "--family", "lenz", "--a", "1", "--quad-tol", "nan"]) == 1
    assert main(["validate", "--family", "tietz", "--tol", "nan"]) == 1
    # an ode_tol above 1e-7, where the oracle's error bound no longer holds, is rejected
    argv = ["validate", "--family", "lenz", "--a", "1", "--n-max", "0", "--l-max", "200", "--ode-tol", "1e-3"]
    assert main(argv) == 1
    # a negative grid bound is rejected by the parser
    assert main(["spectrum", "--family", "tietz", "--n-max", "-1"]) == 1
    # --lambda overrides lambda but not the checks on the state's l and d
    assert main(["tren", "--n", "0", "--l", "0", "--d", "1", "--lambda", "2.5", "--phi", "1"]) == 1
    assert main(["tren", "--n", "0", "--l", "-3", "--lambda", "2.5", "--phi", "1"]) == 1
    # validate sweeps the family at Z = 1 and takes neither a file nor --Z
    pot = write_potential(tmp_path, {"family": "lenz", "a": 2.0, "Z": 8.0}, "a2.json")
    assert main(["validate", "--potential", str(pot), "--family", "lenz", "--a", "1"]) == 1
    assert main(["validate", "--family", "lenz", "--a", "1", "--Z", "77"]) == 1
    # a command takes only the flags its handler reads
    argv = ["well", "--family", "tietz", "--samples", "3", "--d", "1", "--ode-tol", "5", "--hbar", "7"]
    assert main(argv) == 1
    assert main(["spectrum", "--family", "lenz", "--a", "1", "--Z", "20", "--d", "1"]) == 1
    # one past the size cap, rejected before anything is built
    too_many = str(cli._MAX_POINTS + 1)
    assert main(["well", "--family", "lenz", "--a", "1", "--samples", too_many]) == 1
    assert main(["action", "--family", "lenz", "--a", "1", "--points", too_many]) == 1
    assert main(["ordering", "--n-max", str(cli._MAX_POINTS), "--l-max", "0"]) == 1
    assert main(["spectrum", "--family", "tietz", "--n-max", str(cli._MAX_POINTS)]) == 1
    capsys.readouterr()
    # a well flag the well would drop: --a on Tietz (width 1/2), and any of
    # --family, --a and --Z beside --potential, which sets the whole well
    inline = json.dumps(LENZ_A1)
    for argv in (
        ["spectrum", "--family", "tietz", "--a", "3", "--Z", "20"],
        ["validate", "--family", "tietz", "--a", "7"],
        ["spectrum", "--potential", inline, "--family", "tietz", "--Z", "99", "--a", "3"],
        ["phi", "--potential", inline, "--family", "lenz"],
        ["well", "--potential", inline, "--a", "1"],
        ["threshold", "--potential", inline, "--Z", "1"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("trenq: error: ") and err.count("\n") == 1, (argv, err)


# input errors of the CLI met nowhere else; "list.json" holds [1, 2] and
# "latin1.json" a spec that is not UTF-8
INPUT_ERROR_CASES = {
    "family-without-a": ["well", "--family", "lenz"],
    "validate-without-family": ["validate"],
    "validate-no-state-in-scope": [
        "validate", "--family", "lenz", "--a", "1", "--d", "2", "--n-max", "0", "--l-max", "0"
    ],
    "printed-zero-well": ["well", "--family", "lenz", "--a", "1", "--Z", "1e-15", "--transform", "printed"],
    "potential-not-an-object": ["well", "--potential", "list.json"],
    "potential-not-utf8": ["well", "--potential", "latin1.json"],
}


@pytest.mark.parametrize("argv", INPUT_ERROR_CASES.values(), ids=INPUT_ERROR_CASES.keys())
def test_input_error_exit(argv, tmp_path, monkeypatch, capsys) -> None:
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "latin1.json").write_bytes('{"family": "lenzé"}'.encode("latin-1"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("trenq: error: ") and err.count("\n") == 1, err


def test_output_into_missing_directory(tmp_path, capsys) -> None:
    missing = str(tmp_path / "missing" / "out.csv")
    # the CSV/JSON writer and the bare number printed by phi
    for argv in (["ordering", "--n-max", "0", "--l-max", "0"], ["phi", "--family", "tietz"]):
        assert main([*argv, "--output", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("trenq: error: cannot write --output") and err.count("\n") == 1


def test_inline_family_potential(capsys) -> None:
    assert main(["spectrum", "--family", "lenz", "--a", "1", "--Z", "4"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-8)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# JSON values a spec field may hold besides a number in range
_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, True, False, "nan", "inf", "x"])
_Z = _log_uniform(1e-300, 1e300) | _ODD
_ANALYTIC = st.fixed_dictionaries(
    {"family": st.just("lenz"), "a": _log_uniform(1e-3, 1e3) | _ODD, "Z": _Z}
) | st.fixed_dictionaries({"family": st.just("tietz"), "Z": _Z})
_MAGNITUDE = _log_uniform(1e-3, 1e3) | _log_uniform(1e-300, 1e300)
# the decay rule asks for q0 < 2 < qinf
_EXPONENT = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 6.0])


@st.composite
def _tabulated(draw) -> dict:
    r = sorted(draw(st.lists(_MAGNITUDE, min_size=4, max_size=8, unique=True)))
    shape = draw(st.sampled_from(["ascending", "ascending", "repeated", "unordered"]))
    if shape == "repeated":
        r[1] = r[0]
    elif shape == "unordered":
        r.reverse()
    u = [-draw(_MAGNITUDE) for _ in r]
    if draw(st.integers(0, 3)) == 0:
        u[draw(st.integers(0, len(u) - 1))] *= -1.0
    return {"family": "tabulated", "r": r, "U": u, "q0": draw(_EXPONENT), "qinf": draw(_EXPONENT)}


# small grids keep every command fast; the flags change no code path
_FUZZ_ARGV = [
    ["well", "--samples", "5"],
    ["phi"],
    ["spectrum", "--n-max", "2"],
    ["threshold", "--n-max", "1", "--l-max", "1"],
]


# in-process, so capsys is out: it is a function-scoped fixture, which
# hypothesis's health check rejects under @given
@hypothesis_settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(spec=_ANALYTIC | _tabulated())
# deep or narrow wells whose level search runs to within rounding of V_m,
# where the action integrand must stay finite: the spectrum of both Tietz
# wells exits 0 (its quadrature saturates there, and the levels are exact),
# the phi fit of Lenz(1e5, 1e300) overflows (exit 1), and the coupling of
# Lenz(1e200, 1e12) is not finite (exit 1); a family that is not a string
# is unknown (exit 1), even where it is not hashable
@example(spec={"family": "tietz", "Z": 10**28.5})
@example(spec={"family": "tietz", "Z": 1.849e32})
@example(spec={"family": "lenz", "a": 1e5, "Z": 1e300})
@example(spec={"family": "lenz", "a": 1e200, "Z": 1e12})
@example(spec={"family": ["lenz"], "a": 1, "Z": 1})
@example(spec={"family": {"a": 1}})
def test_cli_fuzz_exits_cleanly(spec) -> None:
    for argv in _FUZZ_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--potential", json.dumps(spec)])
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 0:
            assert err.getvalue() == "" and "nan" not in out.getvalue(), (argv, out.getvalue())
        else:
            text = err.getvalue()
            assert text.startswith(("trenq: error: ", "trenq: numerical failure: ")), (argv, text)
            assert text.count("\n") == 1 and "Traceback" not in text, (argv, text)


# the module run as a program from an uninstalled checkout: exit 0 on the
# corrected transform, 3 on the printed variant, and 1 with a one-line error
# for --output into a missing directory, for a flag the command does not take
# (spectrum reads no --d), for an --ode-tol above 1e-7, for a potential that
# breaks the decay rule (Lenz a = 0), for a printed well whose cut lies
# where W overflows, for a well that is numerically zero, for a critical
# coupling beyond the double range (Lenz a = 1e200), for a phi fit that
# overflows (Z = 1e300), for tabulated samples whose W overflows, for
# --samples or --points beyond cli._MAX_POINTS, which would not fit in memory,
# and for a state grid or a spectrum of more; 2 with a one-line numerical
# failure for a node-counting grid beyond the oracle's budget, raised before
# it is allocated; never a traceback
ENTRY_POINT_CASES = {
    "validate": (["validate", "--family", "lenz", "--a", "1", "--tol", "1e-6"], 0),
    "validate-printed": (
        ["validate", "--family", "lenz", "--a", "1", "--tol", "1e-6", "--transform", "printed"], 3
    ),
    "output-missing-dir": (["ordering", "--output", "missing/out.csv"], 1),
    "unread-flag": (["spectrum", "--family", "lenz", "--a", "1", "--Z", "20", "--d", "1"], 1),
    "ode-tol": (
        ["validate", "--family", "lenz", "--a", "1", "--n-max", "0", "--l-max", "200", "--ode-tol", "1e-3"],
        1,
    ),
    "decay-rule": (["well", "--family", "lenz", "--a", "0", "--Z", "1"], 1),
    "printed-overflow": (["well", "--family", "lenz", "--a", "0.51", "--transform", "printed"], 1),
    "zero-well": (["well", "--family", "lenz", "--a", "1", "--Z", "1e-15"], 1),
    "samples-cap": (["well", "--family", "lenz", "--a", "1", "--samples", "1000000000000"], 1),
    "points-cap": (["action", "--family", "lenz", "--a", "1", "--points", "1000000000000"], 1),
    "state-grid-cap": (["ordering", "--n-max", "99999", "--l-max", "99999"], 1),
    "spectrum-levels-cap": (["spectrum", "--family", "tietz", "--Z", "1e20", "--n-max", "100000"], 1),
    "oracle-grid-budget": (
        ["threshold", "--family", "lenz", "--a", "1", "--hbar", "1e-5", "--n-max", "0", "--l-max", "0", "--oracle"],
        2,
    ),
    "coupling-overflow": (["threshold", "--potential", '{"family":"lenz","a":1e200,"Z":1}'], 1),
    "phi-overflow": (["phi", "--potential", '{"family":"lenz","a":1,"Z":1e300}'], 1),
    "tabulated-overflow": (
        [
            "well",
            "--potential",
            '{"family":"tabulated","r":[1e-300,1,2,1e300],"U":[-1,-1,-1,-1e-300],"q0":1,"qinf":4}',
        ],
        1,
    ),
}


@pytest.mark.parametrize("argv,code", ENTRY_POINT_CASES.values(), ids=ENTRY_POINT_CASES.keys())
def test_module_entry_point(argv, code, tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(trenq.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "trenq.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    prefix = {1: "trenq: error: ", 2: "trenq: numerical failure: "}.get(code)
    if prefix is not None:
        assert run.stderr.startswith(prefix) and run.stderr.count("\n") == 1
    else:
        assert run.stderr == "" and run.stdout.startswith("# family = lenz")


def test_import_loads_only_scipy_linalg(tmp_path) -> None:
    # from scipy, `import trenq` may load scipy.linalg and scipy's own private
    # and version modules only: scipy.interpolate, optimize, sparse or special
    # would each add to the start-up time of every command
    env = {**os.environ, "PYTHONPATH": str(Path(trenq.__file__).resolve().parents[1])}
    code = "import sys, trenq; print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    tops = {".".join(m.split(".")[:2]) for m in loaded}
    allowed = {"scipy", "scipy.linalg", "scipy.version"}
    assert "scipy.linalg" in tops
    assert not {t for t in tops if t not in allowed and not t.startswith("scipy._")}, tops


def test_sources_parse_at_the_python_floor() -> None:
    # CI runs the floor of requires-python, 3.10; parsing every source file
    # with its grammar fails on syntax newer than that under any interpreter
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    paths = sorted([*(root / "src" / "trenq").rglob("*.py"), *(root / "tests").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
