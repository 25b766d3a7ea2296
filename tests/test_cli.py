import json

import numpy as np
import pytest

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
    capsys.readouterr()


def test_inline_family_potential(capsys) -> None:
    assert main(["spectrum", "--family", "lenz", "--a", "1", "--Z", "4"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-8)
