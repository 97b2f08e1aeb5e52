"""CLI exit codes, report JSON, and the shipped schema."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from rotagrid import (LinearRep, MatroidOracle, RotaInstance,
                      builtin_instance, parse_grid_instance, rota_solve,
                      serialize_matroid, validate_grid)
from rotagrid.cli import run

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads(
    (ROOT / "src" / "rotagrid" / "report_schema.json").read_text())


def load_report(path):
    report = json.loads(Path(path).read_text())
    jsonschema.validate(report, SCHEMA)
    return report


def materialize(name, tmp_path):
    assert run(["instance", name, "--out", str(tmp_path)]) == 0
    return tmp_path / f"{name}.grid"


# --- instance + solve + count -------------------------------------------------

def test_k4_c2_pipeline(tmp_path, capsys):
    grid = materialize("k4-c2", tmp_path)
    code = run(["solve", "--grid-instance", str(grid),
                "--json", str(tmp_path / "r.json")])
    assert code == 1
    report = load_report(tmp_path / "r.json")
    assert report["kind"] == "solve"
    assert report["result"]["status"] == "UNSAT"
    assert "UNSAT" in capsys.readouterr().out

    code = run(["count", "--grid-instance", str(grid),
                "--json", str(tmp_path / "c.json")])
    assert code == 1
    report = load_report(tmp_path / "c.json")
    assert report["result"]["count"] == 0


def test_sat_instance_exits_zero(tmp_path):
    grid = materialize("u39", tmp_path)
    code = run(["solve", "--grid-instance", str(grid),
                "--json", str(tmp_path / "r.json")])
    assert code == 0
    report = load_report(tmp_path / "r.json")
    assert report["result"]["status"] == "SAT"
    inst = parse_grid_instance(grid.read_text(), base_dir=tmp_path)
    assert validate_grid(inst, report["result"]["grid"])


def test_mcdiarmid_required_hypothesis_fails(tmp_path):
    grid = materialize("mcdiarmid", tmp_path)
    text = grid.read_text().replace("NOT_REQUIRED", "REQUIRED")
    bad = tmp_path / "mcd-req.grid"
    bad.write_text(text)
    assert run(["solve", "--grid-instance", str(bad)]) == 2
    # skipping the hypothesis check lets the search run to UNSAT
    assert run(["solve", "--grid-instance", str(bad),
                "--skip-hypothesis-check"]) == 1


def test_unknown_instance_name():
    assert run(["instance", "perpetuum-mobile"]) == 2


def test_odd_wheel_instances_materialize(tmp_path):
    grid = materialize("odd-wheel-3", tmp_path)
    assert run(["solve", "--grid-instance", str(grid)]) == 1


def test_instance_report(tmp_path):
    assert run(["instance", "oxley-j", "--out", str(tmp_path),
                "--json", str(tmp_path / "i.json")]) == 0
    report = load_report(tmp_path / "i.json")
    assert report["kind"] == "instance"
    assert report["result"]["expected"] == "UNSAT"
    assert all(Path(f).exists() for f in report["result"]["files"])


# --- rota / descent-step --------------------------------------------------------

def test_rota_builtin_u39(tmp_path):
    code = run(["rota", "--matroid", "u39", "--k", "3",
                "--json", str(tmp_path / "rota.json")])
    assert code == 0
    report = load_report(tmp_path / "rota.json")
    assert report["result"]["status"] == "GRID"
    assert report["result"]["grid"] is not None


def test_rota_from_grid_instance(tmp_path):
    grid = materialize("u39", tmp_path)
    assert run(["rota", "--grid-instance", str(grid)]) == 0


def test_rota_rejects_non_rota_builtin():
    assert run(["rota", "--matroid", "k4-c2"]) == 2


def test_rota_rejects_a_matroid_without_a_split_at_once(tmp_path, capsys):
    # rank 5 on 25 elements with no split into five bases; the backtracking
    # search spent 28 s and a 2,000,000-node cap proving that
    rng = random.Random(171)
    cols = tuple(tuple(Fraction(rng.randint(-1, 1)) for _ in range(5))
                 for _ in range(25))
    path = tmp_path / "nosplit.matroid"
    path.write_text(serialize_matroid(MatroidOracle(LinearRep(5, cols))))
    assert run(["rota", "--matroid", str(path)]) == 2
    assert ("matroid does not split into rank-many disjoint bases"
            in capsys.readouterr().err)


def test_descent_step_reports_mu_drop(tmp_path):
    code = run(["descent-step", "--matroid", "u39",
                "--json", str(tmp_path / "step.json")])
    assert code == 0
    report = load_report(tmp_path / "step.json")
    step = report["result"]["step"]
    assert step["mu_before"] > step["mu_after"]
    assert step["subinstance"].startswith("GRIDINSTANCE v1")
    assert step["submatroid"].startswith("MATROID v1")


# --- verify-c3 ---------------------------------------------------------------------

def test_verify_c3_single_matroid(tmp_path):
    code = run(["verify-c3", "--matroid", "u39",
                "--json", str(tmp_path / "sweep.json")])
    assert code == 0
    report = load_report(tmp_path / "sweep.json")
    sweep = report["result"]["reports"][0]
    assert sweep["unsat"] == 0
    assert sweep["families"] == sweep["sat"]


def test_verify_c3_reports_k4_obstructions(tmp_path):
    # M(K4) is a 3 x 2 shape whose sweep has 60 unsolvable families
    code = run(["verify-c3", "--matroid", "k4-c2",
                "--json", str(tmp_path / "sweep.json")])
    assert code == 1
    result = load_report(tmp_path / "sweep.json")["result"]
    assert result["total_unsat"] == 60
    assert len(result["reports"][0]["examples_of_unsat"]) == 16


def test_verify_c3_rejects_wrong_size():
    # 25 elements: past the rank table's 12
    assert run(["verify-c3", "--matroid", "odd-wheel-5"]) == 2


# --- check-matroid -------------------------------------------------------------------

def test_check_matroid_violation(tmp_path):
    bad = tmp_path / "bad.matroid"
    bad.write_text("MATROID v1\nNAME bad\nGROUND 4\nTYPE BASES\nRANK 2\n"
                   "BASIS 0 1\nBASIS 2 3\n")
    code = run(["check-matroid", "--matroid", str(bad),
                "--json", str(tmp_path / "chk.json")])
    assert code == 1
    report = load_report(tmp_path / "chk.json")
    assert report["result"]["ok"] is False
    assert report["result"]["violation"]["removed"] in (0, 1, 2, 3)


def test_check_matroid_ok(tmp_path):
    materialize("k4-c2", tmp_path)
    assert run(["check-matroid",
                "--matroid", str(tmp_path / "k4-c2.matroid")]) == 0


def test_check_matroid_parse_error(tmp_path):
    bad = tmp_path / "zero.matroid"
    bad.write_text("MATROID v1\nNAME z\nGROUND 2\nTYPE LINEAR\nDIM 1\n"
                   "ROW 1 3/0\n")
    assert run(["check-matroid", "--matroid", str(bad)]) == 2


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="int() converts any length")
def test_check_matroid_overlong_rational_names_its_line(tmp_path, capsys):
    # int() refuses strings past the interpreter's digit limit
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    bad = tmp_path / "long.matroid"
    bad.write_text("MATROID v1\nNAME z\nGROUND 2\nTYPE LINEAR\nDIM 1\n"
                   f"ROW 1 {digits}/7\n")
    assert run(["check-matroid", "--matroid", str(bad)]) == 2
    assert "line 6: rational of" in capsys.readouterr().err


@pytest.mark.parametrize("body, line", [
    ("GROUND " + "4" * 4301 + "x", 3),
    ("GROUND 2\nTYPE LINEAR\nDIM 1\nROW 1 " + "1.5" * 2000, 6),
    ("GROUND 2\nTYPE LINEAR\nDIM 1\nROW 1 " + "7" * 4000 + "/0", 6),
    ("GROUND 2\nTYPE LINEAR\nDIM 1\nROW 1 1\n" + "T" * 5000, 7),
], ids=["bad-int", "malformed-rational", "zero-denominator", "trailing"])
def test_check_matroid_quotes_a_long_token_briefly(tmp_path, capsys, body,
                                                   line):
    bad = tmp_path / "long.matroid"
    bad.write_text(f"MATROID v1\nNAME z\n{body}\n")
    assert run(["check-matroid", "--matroid", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: " in err
    assert max(len(text) for text in err.splitlines()) < 120


GOOD_MATROID = "MATROID v1\nNAME g\nGROUND 2\nTYPE GRAPHIC\nVERTICES 2\n" \
               "EDGE 0 1\nEDGE 0 1\n"
TRUNCATED = {   # keyword -> (matroid file, grid file or None, error line)
    "DIM": ("MATROID v1\nNAME t\nGROUND 2\nTYPE LINEAR\nDIM\n", None, 5),
    "VERTICES": ("MATROID v1\nNAME t\nGROUND 2\nTYPE GRAPHIC\nVERTICES\n",
                 None, 5),
    "RANK": ("MATROID v1\nNAME t\nGROUND 2\nTYPE BASES\nRANK\n", None, 5),
    "ROWS": (GOOD_MATROID, "GRIDINSTANCE v1\nMATROID m.matroid\nROWS\n", 3),
    "COLS": (GOOD_MATROID,
             "GRIDINSTANCE v1\nMATROID m.matroid\nROWS 1\nCOLS\n", 4),
}


@pytest.mark.parametrize("keyword", sorted(TRUNCATED))
def test_truncated_keyword_line_is_input_error(keyword, tmp_path, capsys):
    matroid_text, grid_text, line = TRUNCATED[keyword]
    (tmp_path / "m.matroid").write_text(matroid_text)
    if grid_text is None:
        argv = ["check-matroid", "--matroid", str(tmp_path / "m.matroid")]
    else:
        (tmp_path / "g.grid").write_text(grid_text)
        argv = ["solve", "--grid-instance", str(tmp_path / "g.grid")]
    assert run(argv) == 2
    assert f"line {line}: {keyword} takes exactly one" in capsys.readouterr().err


def test_non_matroid_basis_family_is_input_error(tmp_path, capsys):
    (tmp_path / "bad.matroid").write_text(
        "MATROID v1\nNAME bad\nGROUND 4\nTYPE BASES\nRANK 2\n"
        "BASIS 0 1\nBASIS 2 3\n")
    (tmp_path / "bad.grid").write_text(
        "GRIDINSTANCE v1\nMATROID bad.matroid\nROWS 2\nCOLS 2\n"
        "INDEPENDENCE REQUIRED\nROW 0:\nROW 1:\n")
    for extra in ([], ["--skip-hypothesis-check"]):
        assert run(["solve", "--grid-instance", str(tmp_path / "bad.grid"),
                    *extra]) == 2
        assert "line 6: not a matroid" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path):
    assert run(["solve", "--grid-instance", str(tmp_path / "nope.grid")]) == 2


# --- console entry point ----------------------------------------------------------------

def test_module_invocation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rotagrid.cli", "instance", "k4-c2",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "k4-c2.matroid").exists()


@pytest.mark.parametrize("script", [
    ["run_counterexamples.py"],
    ["run_c3_sweep.py", "--linear", "2", "--graphic", "2"],
    ["run_descent_trials.py", "--ns", "3,4", "--trials", "3"],
], ids=lambda argv: argv[0])
def test_shipped_script_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("digest,valid", [
    ("NOT-A-DIGEST", False), ("ab" * 31, False), ("AB" * 32, False),
    ("ab" * 32, True), (None, True)])
def test_schema_constrains_digest(digest, valid):
    report = {"command": ["rotagrid"], "version": "0", "kind": "instance",
              "digest": digest,
              "result": {"name": "u39", "expected": "SWEEP", "note": "",
                         "files": []}}
    if valid:
        jsonschema.validate(report, SCHEMA)
    else:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, SCHEMA)


def test_every_builtin_has_specified_exit_code(tmp_path):
    expected = {"k4-c2": 1, "oxley-j": 1, "mcdiarmid": 1,
                "odd-wheel-3": 1, "u39": 0}
    for name, code in expected.items():
        grid = materialize(name, tmp_path)
        assert run(["solve", "--grid-instance", str(grid)]) == code, name


def test_parallel_flag_is_gone(tmp_path):
    grid = materialize("u39", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--grid-instance", str(grid), "--parallel", "2"])
    assert exc.value.code == 2


def test_node_budget_exits_undecided(tmp_path, capsys):
    # unbudgeted, this count ran for minutes with no output
    grid = materialize("odd-wheel-5", tmp_path)
    code = run(["count", "--grid-instance", str(grid), "--node-budget",
                "10000", "--skip-hypothesis-check",
                "--json", str(tmp_path / "r.json")])
    assert code == 3
    assert "UNKNOWN: node budget of 10000 nodes" in capsys.readouterr().out
    result = load_report(tmp_path / "r.json")["result"]
    assert (result["status"], result["count"], result["grid"],
            result["nodes"]) == ("UNKNOWN", None, None, 10000)
    assert result["millis"] < 1000
    assert run(["solve", "--grid-instance", str(grid), "--node-budget", "-1",
                "--skip-hypothesis-check"]) == 2


def test_deep_instance_under_budget_is_undecided(tmp_path):
    # 1,089 cells; neither search has a depth limit
    grid = materialize("odd-wheel-33", tmp_path)
    assert run(["solve", "--grid-instance", str(grid),
                "--skip-hypothesis-check", "--node-budget", "10000",
                "--json", str(tmp_path / "r.json")]) == 3
    result = load_report(tmp_path / "r.json")["result"]
    assert (result["status"], result["grid"], result["nodes"]) \
        == ("UNKNOWN", None, 10000)


def test_odd_wheel_33_hypothesis_check_finishes(tmp_path):
    # the check splits 1,089 elements into 33 spanning trees by matroid
    # partition; the partition search would not finish
    grid = materialize("odd-wheel-33", tmp_path)
    assert run(["solve", "--grid-instance", str(grid),
                "--node-budget", "10000"]) == 3


def test_odd_wheel_7_hypothesis_check_finishes(tmp_path):
    # the hypothesis check has no budget, so it must finish on its own
    grid = materialize("odd-wheel-7", tmp_path)
    assert run(["solve", "--grid-instance", str(grid)]) == 1


def test_rota_steps_match_trace_serializer(tmp_path):
    named = builtin_instance("u39").instance
    trace = rota_solve(RotaInstance(named.matroid, named.rows))
    assert run(["rota", "--matroid", "u39",
                "--json", str(tmp_path / "rota.json")]) == 0
    steps = load_report(tmp_path / "rota.json")["result"]["steps"]
    expected = json.loads(trace.to_json())
    assert steps and len(steps) == len(expected)
    for got, want in zip(steps, expected):
        got.pop("millis"), want.pop("millis")
        assert got == want


def _report(kind, result):
    return {"command": ["rotagrid"], "version": "0", "kind": kind,
            "digest": None, "result": result}


SOLVE_RESULT = {"status": "UNSAT", "grid": None, "count": 0, "nodes": 3,
                "millis": 0.1}
STEP = {"block": [0, 1, 2], "mu_before": 6, "mu_after": 4, "nodes": 9,
        "millis": 0.5}
CHECK_RESULT = {"name": "m", "elements": 4, "rank": 2, "ok": True,
                "violation": None}


def _sweep_result(examples):
    return {"reports": [{"matroid": "m", "families": 20, "sat": 3,
                         "unsat": 17, "examples_of_unsat": examples}],
            "total_unsat": 17}


@pytest.mark.parametrize("kind,result", [
    ("descent-step", {"step": None}),
    ("descent-step", {"mu": 6, "step": {"block": [0, 1, 2]}}),
    ("descent-step", {"mu": 0, "step": None, "certificate_files": "c.grid"}),
    ("count", dict(SOLVE_RESULT, count=None)),
    ("verify-c3", {"reports": []}),
    ("verify-c3", {"total_unsat": 0}),
    ("instance", {"name": "u39", "expected": "MAYBE", "note": "",
                  "files": []}),
    ("instance", {"name": "u39", "expected": "SAT", "note": ""}),
    ("check-matroid", dict(CHECK_RESULT, ok="yes")),
    ("check-matroid", dict(CHECK_RESULT, violation={"removed": 1})),
    ("check-matroid", {"name": "m", "elements": 4, "rank": 2}),
    ("count", dict(SOLVE_RESULT, status="UNKNOWN", count=5)),
    ("solve", dict(SOLVE_RESULT, status="UNKNOWN", count=None,
                   grid=[[0, 1]])),
    ("verify-c3", _sweep_result([[[0, 1], [-1]]])),
    ("verify-c3", _sweep_result([[0, 1]])),
    ("verify-c3", _sweep_result([[[0], [1.5]]])),
    ("verify-c3", _sweep_result([[[e], []] for e in range(17)])),
])
def test_schema_rejects_malformed_result(kind, result):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(_report(kind, result), SCHEMA)


@pytest.mark.parametrize("kind,result", [
    ("descent-step", {"mu": 0, "step": None}),
    ("descent-step", {"mu": 6, "step": STEP}),
    ("descent-step", {"mu": 6, "step": None, "certificate_files": ["c.grid"]}),
    ("count", SOLVE_RESULT),
    ("solve", dict(SOLVE_RESULT, count=None)),
    ("verify-c3", {"reports": [], "total_unsat": 0}),
    ("check-matroid", dict(CHECK_RESULT, ok=False, violation={
        "basis": [0, 1], "removed": 0, "against": [2, 3]})),
    ("count", dict(SOLVE_RESULT, status="UNKNOWN", count=None)),
    ("verify-c3", _sweep_result([[[e], []] for e in range(16)])),
])
def test_schema_accepts_wellformed_result(kind, result):
    jsonschema.validate(_report(kind, result), SCHEMA)
