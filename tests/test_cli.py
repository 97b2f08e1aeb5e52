"""CLI exit codes, report JSON, and the shipped schema."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import rotagrid.descent
from rotagrid import (LinearRep, MatroidOracle, RotaInstance, SolveReport,
                      builtin_instance, parse_grid_instance, rota_solve,
                      serialize_matroid, uniform_matroid, validate_grid)
from rotagrid.cli import build_parser, run

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


def test_mcdiarmid_required_hypothesis_fails(tmp_path, capsys):
    grid = materialize("mcdiarmid", tmp_path)
    text = grid.read_text().replace("NOT_REQUIRED", "REQUIRED")
    bad = tmp_path / "mcd-req.grid"
    bad.write_text(text)
    assert run(["solve", "--grid-instance", str(bad)]) == 2
    assert run(["count", "--grid-instance", str(bad)]) == 2
    # exit 1 claims a counterexample, so the check cannot be skipped
    assert "unrecognized arguments: --skip-hypothesis-check" in usage_error(
        ["solve", "--grid-instance", str(bad), "--skip-hypothesis-check"],
        capsys)


def test_unknown_instance_name(tmp_path, capsys):
    # int() reads each odd-wheel suffix here as 5, but none is the
    # canonical name, so none may write odd-wheel-5's files
    for name in ("perpetuum-mobile", "odd-wheel-05", "odd-wheel-+5",
                 "odd-wheel-0_5", "odd-wheel-\u0665"):
        assert run(["instance", name, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: unknown instance {name!r}\n"
    assert not any(tmp_path.iterdir())


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


def test_rota_refuses_k_below_3_at_every_rank(tmp_path, capsys):
    # at rank 2 the descent is skipped for a direct search, which used to
    # let any k through
    u24 = tmp_path / "u24.matroid"
    u24.write_text(serialize_matroid(uniform_matroid(2, 4)))
    for source in (str(u24), "u39"):
        for k in (0, 2):
            assert run(["rota", "--matroid", source, "--k", str(k)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: block size k must be at least 3, got {k}\n")


def test_rota_from_grid_instance(tmp_path):
    grid = materialize("u39", tmp_path)
    assert run(["rota", "--grid-instance", str(grid)]) == 0


def test_rota_rejects_non_rota_builtin(capsys):
    assert run(["rota", "--matroid", "k4-c2"]) == 2
    # odd-wheel-3's rows are disjoint and cover the ground set, but each
    # holds two parallel copies of a spoke
    assert run(["rota", "--matroid", "odd-wheel-3"]) == 2
    assert ("rows must be disjoint bases that cover the ground set"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("k, message", [
    ("2", "descent requires n >= 3 and block size k >= 3"),
    ("9", "block size 9 exceeds 3 parts"),
])
def test_descent_step_block_size_out_of_range_is_usage_error(k, message,
                                                            capsys):
    assert run(["descent-step", "--matroid", "u39", "--k", k]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["rota", "descent-step"])
def test_unsolvable_block_exports_a_certificate(cmd, tmp_path, capsys,
                                                monkeypatch):
    unsat = SolveReport("UNSAT", None, None, 0, 0.0)
    monkeypatch.setattr(rotagrid.descent, "solve", lambda inst: unsat)
    assert run([cmd, "--matroid", "u39", "--out", str(tmp_path),
                "--json", str(tmp_path / "r.json")]) == 1
    assert "CERTIFICATE: a block subproblem is unsolvable" \
        in capsys.readouterr().out
    report = load_report(tmp_path / "r.json")
    assert report["kind"] == cmd
    files = report["result"]["certificate_files"]
    grid = next(Path(f) for f in files if f.endswith(".grid"))
    replay = parse_grid_instance(grid.read_text(), base_dir=grid.parent)
    assert (replay.n, replay.k) == (3, 3)


@pytest.mark.parametrize("unsolvable", [False, True])
def test_rank_2_rota_solves_directly(unsolvable, tmp_path, monkeypatch):
    if unsolvable:
        unsat = SolveReport("UNSAT", None, None, 0, 0.0)
        monkeypatch.setattr(rotagrid.descent, "solve", lambda inst: unsat)
    path = tmp_path / "u24.matroid"
    path.write_text(serialize_matroid(uniform_matroid(2, 4)))
    code = run(["rota", "--matroid", str(path), "--out", str(tmp_path),
                "--json", str(tmp_path / "r.json")])
    result = load_report(tmp_path / "r.json")["result"]
    assert result["steps"] == []
    if unsolvable:
        assert (code, result["status"]) == (1, "CERTIFICATE")
        assert len(result["certificate_files"]) == 2
    else:
        assert (code, result["status"]) == (0, "GRID")


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


def test_verify_c3_sweeps_a_seeded_catalog(tmp_path):
    # without --matroid: the 51-matroid catalog of the seed, 0 by default
    path = tmp_path / "catalog.json"
    for seed in ([], ["--seed", "1"]):
        assert run(["verify-c3", *seed, "--json", str(path)]) == 0
        report = load_report(path)
        assert report["digest"] is None
        assert len(report["result"]["reports"]) == 51
        assert report["result"]["total_unsat"] == 0


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


def test_check_matroid_refuses_a_non_ascii_decimal(tmp_path, capsys):
    # int() would read the ground size "1_2" as 12
    bad = tmp_path / "underscore.matroid"
    bad.write_text("MATROID v1\nNAME z\nGROUND 1_2\nTYPE BASES\nRANK 1\n"
                   "BASIS 0\n")
    assert run(["check-matroid", "--matroid", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: underscore.matroid: line 3: bad ground size '1_2'\n")


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
    assert run(["solve", "--grid-instance", str(tmp_path / "bad.grid")]) == 2
    assert "line 6: not a matroid" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.grid"
    assert run(["solve", "--grid-instance", str(missing)]) == 2
    assert "error: nope.grid: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_utf8_file_names_its_path_and_line(tmp_path, capsys, newline):
    bad = tmp_path / "latin1.matroid"
    bad.write_bytes(newline.join(["MATROID v1", "NAME caf\xe9", "GROUND 1",
                                  "TYPE BASES", "RANK 1", "BASIS 0"]).encode("latin-1"))
    assert run(["check-matroid", "--matroid", str(bad)]) == 2
    assert "error: latin1.matroid: line 2: not UTF-8 (byte 0xe9)" in capsys.readouterr().err


def test_referenced_matroid_errors_name_the_matroid_file(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("GRIDINSTANCE v1\nMATROID m.matroid\nROWS 1\nCOLS 2\n"
                    "INDEPENDENCE REQUIRED\nROW 0:\n")
    matroid = tmp_path / "m.matroid"
    for body, message in [
            (None, "cannot read"),
            (b"MATROID v1\nNAME \xff\n", "line 2: not UTF-8 (byte 0xff)"),
            ((GOOD_MATROID + "EDGE 0 1\n").encode(),
             "line 8: unexpected trailing content 'EDGE'")]:
        if body is not None:
            matroid.write_bytes(body)
        assert run(["solve", "--grid-instance", str(grid)]) == 2
        assert f"error: m.matroid: {message}" in capsys.readouterr().err


def test_a_huge_ground_set_checks_at_once(tmp_path):
    # one basis {0} of rank 1 among a million elements
    big = tmp_path / "big.matroid"
    big.write_text("MATROID v1\nNAME big\nGROUND 1000000\nTYPE BASES\n"
                   "RANK 1\nBASIS 0\n")
    start = time.perf_counter()
    assert run(["check-matroid", "--matroid", str(big)]) == 0
    assert time.perf_counter() - start < 5


def test_a_graphic_file_with_a_trillion_vertices_checks_at_once(tmp_path):
    # one edge: only its two endpoints may cost memory, not every vertex
    big = tmp_path / "big.matroid"
    big.write_text("MATROID v1\nNAME big\nGROUND 1\nTYPE GRAPHIC\n"
                   "VERTICES 1000000000000\nEDGE 0 999999999999\n")
    start = time.perf_counter()
    assert run(["check-matroid", "--matroid", str(big),
                "--json", str(tmp_path / "big.json")]) == 0
    assert time.perf_counter() - start < 5
    assert load_report(tmp_path / "big.json")["result"]["rank"] == 1


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


def usage_error(argv, capsys):
    """The message of the argparse usage error (exit 2) that `argv` makes."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv,first,second", [
    (["verify-c3", "--matroid", "u39", "--seed", "7"], "--seed", "--matroid"),
    (["verify-c3", "--matroid", "u39", "--seed", "0"], "--seed", "--matroid"),
    (["verify-c3", "--seed", "7", "--matroid", "u39"], "--matroid", "--seed"),
    (["rota", "--grid-instance", "u39.grid", "--matroid", "k4-c2"],
     "--matroid", "--grid-instance"),
    (["descent-step", "--grid-instance", "u39.grid", "--matroid", "k4-c2"],
     "--matroid", "--grid-instance"),
])
def test_conflicting_sources_are_usage_errors(argv, first, second, capsys):
    # the run would otherwise answer for one source and drop the other
    err = usage_error(argv, capsys)
    assert f"argument {first}: not allowed with argument {second}" in err


@pytest.mark.parametrize("cmd,flags", [
    ("solve", "--grid-instance"),
    ("count", "--grid-instance"),
    ("rota", "--grid-instance --matroid"),
    ("descent-step", "--grid-instance --matroid"),
    ("check-matroid", "--matroid"),
])
def test_a_missing_source_is_a_usage_error(cmd, flags, capsys):
    err = usage_error([cmd], capsys)
    assert "required" in err and flags in err


def test_every_subcommand_is_a_report_kind():
    # a report's kind is the name of the subcommand that wrote it
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(SCHEMA["properties"]["kind"]["enum"])


@pytest.mark.parametrize("flag", ["--linear", "--graphic"])
def test_catalog_size_flags_are_gone(flag, capsys):
    assert f"unrecognized arguments: {flag} 2" in usage_error(
        ["verify-c3", flag, "2"], capsys)


def test_count_help_names_its_cost_and_the_budget(capsys):
    # count mode breaks no symmetry, so the larger wheels do not finish;
    # the help says so and points to the budget
    with pytest.raises(SystemExit):
        run(["count", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "no symmetry breaking" in text
    assert "more than five spokes do not finish" in text
    assert "--node-budget N give up after N nodes" in text


def test_node_budget_exits_undecided(tmp_path, capsys):
    # unbudgeted, this count places 2,065,120 nodes (CI runs it)
    grid = materialize("odd-wheel-5", tmp_path)
    code = run(["count", "--grid-instance", str(grid), "--node-budget",
                "10000", "--json", str(tmp_path / "r.json")])
    assert code == 3
    assert "UNKNOWN: node budget of 10000 nodes" in capsys.readouterr().out
    result = load_report(tmp_path / "r.json")["result"]
    assert (result["status"], result["count"], result["grid"],
            result["nodes"]) == ("UNKNOWN", None, None, 10000)
    assert result["millis"] < 1000
    assert run(["solve", "--grid-instance", str(grid), "--node-budget",
                "-1"]) == 2


def test_deep_instance_under_budget_is_undecided(tmp_path):
    # 1,089 cells; neither search has a depth limit.  The hypothesis check
    # must finish first: it splits the 1,089 elements into 33 spanning trees
    # by matroid partition, where the partition search would not finish
    grid = materialize("odd-wheel-33", tmp_path)
    assert run(["solve", "--grid-instance", str(grid), "--node-budget",
                "10000", "--json", str(tmp_path / "r.json")]) == 3
    result = load_report(tmp_path / "r.json")["result"]
    assert (result["status"], result["grid"], result["nodes"]) \
        == ("UNKNOWN", None, 10000)


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
    expected = trace.to_dict()["steps"]
    assert steps and len(steps) == len(expected)
    for got, want in zip(steps, expected):
        got.pop("millis"), want.pop("millis")
        assert got == want


def _report(kind, result):
    return {"command": ["rotagrid"], "version": "0", "kind": kind,
            "digest": None, "result": result}


SOLVE_RESULT = {"status": "UNSAT", "grid": None, "count": 0, "nodes": 3,
                "millis": 0.1}
STEP = {"block": [0, 1, 2], "mu_before": 6, "mu_after": 4,
        "subinstance": "GRID v1", "submatroid": "MATROID v1", "nodes": 9,
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
    ("rota", {"status": "GRID"}),
    ("rota", {"status": "GRID", "grid": None, "steps": []}),
    ("rota", {"status": "CERTIFICATE", "grid": None, "steps": []}),
    ("rota", {"status": "GRID", "grid": [[0]], "steps": [dict(STEP, x=1)]}),
    ("descent-step", {"mu": 6, "step": dict(STEP, extra=0)}),
    ("descent-step", {"mu": 6, "step": {k: v for k, v in STEP.items()
                                        if k != "submatroid"}}),
    ("solve", dict(SOLVE_RESULT, count=None, extra=0)),
    ("verify-c3", {"reports": [], "total_unsat": 0, "seconds": 1.0}),
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
    ("rota", {"status": "GRID", "grid": [[0]], "steps": [STEP]}),
    ("rota", {"status": "CERTIFICATE", "grid": None, "steps": [],
              "certificate_files": ["c.matroid", "c.grid"]}),
])
def test_schema_accepts_wellformed_result(kind, result):
    jsonschema.validate(_report(kind, result), SCHEMA)
