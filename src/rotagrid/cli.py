"""Command-line surface: each subcommand's handler calls the library and
reports what it returns.

Subcommands: solve, count, rota, descent-step, verify-c3, instance,
check-matroid.  Exit codes: 0 = solvable / verified / OK, 1 = unsolvable or
counterexample found (``rota`` and ``descent-step`` export it as certificate
files), 2 = usage or input error, including any ``ValueError`` the library
raises, 3 = undecided within the node budget.  Every command accepts
``--json PATH`` to write a run report conforming to ``report_schema.json``,
its ``kind`` the subcommand.  The parser alone states each command's
sources, so a missing or conflicting one exits 2: ``rota`` and
``descent-step`` take exactly one of ``--grid-instance`` and ``--matroid``,
and ``verify-c3`` one ``--matroid`` or the 51-matroid catalog of ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .descent import (CounterexampleCertificate, RotaInstance, descent_step,
                      initial_double_partition, mu, rota_solve)
from .formats import (instance_digest, matroid_digest, parse_file,
                      parse_grid_instance, parse_matroid, write_instance_files)
from .grid import (GridInstance, find_basis_partition, solve,
                   validate_instance)
from .instances import (builtin_instance, builtin_names, c3_catalog,
                        verify_c3_for_matroid)
from .matroid import MatroidOracle, find_exchange_violation, BasesRep

OK, FOUND_COUNTEREXAMPLE, USAGE, UNDECIDED = 0, 1, 2, 3


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _write_report(args, digest: str | None, result: dict) -> None:
    if not args.json:
        return
    report = {
        "command": list(args._argv),
        "version": __version__,
        "kind": args.cmd,
        "digest": digest,
        "result": result,
    }
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                               encoding="utf-8")


def _load_instance(args) -> GridInstance:
    path = Path(args.grid_instance)
    return parse_file(path, parse_grid_instance, base_dir=path.parent)


def _matroid_source(source: str) -> tuple[MatroidOracle, tuple | None]:
    """A matroid file's oracle, or a built-in instance's oracle and rows."""
    p = Path(source)
    if p.exists():
        return parse_file(p, parse_matroid), None
    try:
        named = builtin_instance(source).instance
    except KeyError:
        raise CliError(f"{source!r} is neither a matroid file nor a built-in "
                       f"instance ({', '.join(builtin_names())})") from None
    return named.matroid, named.rows


def _rota_instance_from_args(args) -> RotaInstance:
    if args.grid_instance:
        inst = _load_instance(args)
        return RotaInstance(inst.matroid, inst.rows)
    oracle, rows = _matroid_source(args.matroid)
    if rows is not None and sum(map(len, rows)) == oracle.ground.size:
        return RotaInstance(oracle, rows)
    n = oracle.rank_total
    if oracle.ground.size != n * n:
        raise CliError(f"rota needs rank^2 elements; matroid has rank {n} "
                       f"on {oracle.ground.size} elements")
    parts = find_basis_partition(oracle, n)
    if parts is None:
        raise CliError("matroid does not split into rank-many disjoint bases")
    return RotaInstance(oracle, parts)


def _load_rota_instance(args) -> tuple[RotaInstance, str]:
    """The checked full-basis-row instance and its digest."""
    inst = _rota_instance_from_args(args)
    try:
        inst.check()
    except ValueError as exc:
        raise CliError(f"not a valid full-basis-row instance: {exc}") from None
    return inst, instance_digest(GridInstance(inst.matroid, inst.n, inst.n,
                                              inst.bases))


def _check_hypotheses(inst: GridInstance) -> None:
    check = validate_instance(inst)
    if not check:
        raise CliError("instance fails its hypotheses:\n  "
                       + "\n  ".join(check.failures))


def _cmd_solve(args) -> int:
    mode = "count" if args.cmd == "count" else "decide"
    inst = _load_instance(args)
    _check_hypotheses(inst)
    report = solve(inst, mode=mode, node_budget=args.node_budget)
    _write_report(args, instance_digest(inst), report.to_dict())
    if report.status == "UNKNOWN":
        print(f"UNKNOWN: node budget of {report.nodes} nodes spent "
              f"({report.millis:.1f} ms)")
        return UNDECIDED
    if mode == "count":
        print(f"{report.status}: {report.count} grids "
              f"({report.nodes} nodes, {report.millis:.1f} ms)")
    else:
        print(f"{report.status} ({report.nodes} nodes, {report.millis:.1f} ms)")
        if report.grid is not None:
            for row in report.grid:
                print(" ".join(str(e) for e in row))
    return OK if report.status == "SAT" else FOUND_COUNTEREXAMPLE


def _report_certificate(args, digest: str, result: dict,
                        cert: CounterexampleCertificate) -> int:
    """Export an unsolvable block subproblem, name its files, report it."""
    files = [str(p) for p in write_instance_files(cert.instance, args.out,
                                                  "certificate")]
    print("CERTIFICATE: a block subproblem is unsolvable; exported to "
          + ", ".join(files))
    _write_report(args, digest, {**result, "certificate_files": files})
    return FOUND_COUNTEREXAMPLE


def _cmd_rota(args) -> int:
    inst, digest = _load_rota_instance(args)
    trace = rota_solve(inst, k=args.k)
    if trace.grid is None:
        return _report_certificate(args, digest, trace.to_dict(),
                                   trace.certificate)
    print(f"GRID after {len(trace.steps)} descent steps")
    for row in trace.grid:
        print(" ".join(str(e) for e in row))
    _write_report(args, digest, trace.to_dict())
    return OK


def _cmd_descent_step(args) -> int:
    inst, digest = _load_rota_instance(args)
    dp = initial_double_partition(inst)
    if mu(dp) == 0:
        print("mu = 0 already; nothing to descend")
        _write_report(args, digest, {"mu": 0, "step": None})
        return OK
    outcome = descent_step(inst, dp, k=args.k)
    if isinstance(outcome, CounterexampleCertificate):
        return _report_certificate(args, digest, {"mu": mu(dp), "step": None},
                                   outcome)
    _, step = outcome
    print(f"block {list(step.block)}: mu {step.mu_before} -> {step.mu_after} "
          f"({step.report.nodes} nodes)")
    _write_report(args, digest, {"mu": step.mu_before, "step": step.to_dict()})
    return OK


def _cmd_verify_c3(args) -> int:
    if args.matroid:
        oracle, _ = _matroid_source(args.matroid)
        oracles = [oracle]
        digest = matroid_digest(oracle)
    else:
        oracles = c3_catalog(args.seed or 0)
        digest = None
    reports = []
    total_unsat = 0
    for oracle in oracles:
        rep = verify_c3_for_matroid(oracle)
        reports.append(rep)
        total_unsat += rep.unsat
        print(f"{rep.matroid}: {rep.families} families, {rep.sat} solvable, "
              f"{rep.unsat} unsolvable")
        for fam in rep.unsat_examples:
            print(f"  UNSOLVABLE rows: {[sorted(r) for r in fam]}")
    _write_report(args, digest, {
        "reports": [r.to_dict() for r in reports],
        "total_unsat": total_unsat,
    })
    if total_unsat:
        print(f"FOUND {total_unsat} unsolvable families")
        return FOUND_COUNTEREXAMPLE
    print("verified: every admissible row family is solvable")
    return OK


def _cmd_instance(args) -> int:
    try:
        named = builtin_instance(args.name)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None
    matroid_path, grid_path = write_instance_files(named.instance, args.out,
                                                   named.name)
    digest = instance_digest(named.instance)
    print(f"{named.name}: wrote {matroid_path} and {grid_path} "
          f"(expected {named.expected})")
    _write_report(args, digest, {
        "name": named.name,
        "expected": named.expected,
        "note": named.note,
        "files": [str(matroid_path), str(grid_path)],
    })
    return OK


def _cmd_check_matroid(args) -> int:
    path = Path(args.matroid)
    oracle = parse_file(path, parse_matroid, check_exchange=False)
    digest = matroid_digest(oracle)
    result = {"name": oracle.name, "elements": oracle.ground.size,
              "rank": oracle.rank_total, "ok": True, "violation": None}
    violation = (find_exchange_violation(oracle.rep.bases)
                 if isinstance(oracle.rep, BasesRep) else None)
    if violation is None:
        print(f"OK: {oracle.name or path.name} has {oracle.ground.size} "
              f"elements, rank {oracle.rank_total}")
    else:
        a, x, b = violation
        result["ok"] = False
        result["violation"] = {
            "basis": sorted(a), "removed": x, "against": sorted(b)}
        print(f"exchange axiom violated: no replacement for {x} in "
              f"{sorted(a)} from {sorted(b)}")
    _write_report(args, digest, result)
    return OK if violation is None else FOUND_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotagrid",
        description="exact matroid grid-completion toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", metavar="PATH")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-instance", metavar="PATH", required=True)
    grid.add_argument("--node-budget", type=int, metavar="N",
                      help="give up after N nodes with UNKNOWN (exit 3); "
                           "count mode breaks no symmetry and needs one on "
                           "the wheels with more than five spokes")
    rota = argparse.ArgumentParser(add_help=False)
    source = rota.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid-instance", metavar="PATH")
    source.add_argument("--matroid", metavar="PATH")
    rota.add_argument("--k", type=int, default=3)
    rota.add_argument("--out", default=".", metavar="DIR")

    def command(name, run, help, *parents, **kw):
        p = sub.add_parser(name, help=help, parents=[report, *parents], **kw)
        p.set_defaults(run=run)
        return p

    command("solve", _cmd_solve, "decide a grid instance", grid)
    command("count", _cmd_solve, "count all grids of an instance", grid,
            description="Count the labeled grids of an instance.  Count mode "
            "enumerates them with no symmetry breaking (every column order "
            "and every swap of parallel elements is a grid of its own), so "
            "odd-wheel-5 takes about two million nodes and the wheels with "
            "more than five spokes do not finish; give those a "
            "--node-budget.")
    command("rota", _cmd_rota, "full-row instance via potential descent", rota)
    command("descent-step", _cmd_descent_step, "run a single descent step",
            rota)
    p = command("verify-c3", _cmd_verify_c3,
                "sweep all row families over <= 12 elements")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--matroid", metavar="PATH")
    # no default: argparse takes a value that is its default as absent, so
    # `--seed 0` would pass beside `--matroid`; the handler reads None as 0
    source.add_argument("--seed", type=int, metavar="N", help="default 0")
    p = command("instance", _cmd_instance, "materialize a built-in instance")
    p.add_argument("--out", default=".", metavar="DIR")
    p.add_argument("name", help=", ".join(builtin_names()))
    p = command("check-matroid", _cmd_check_matroid,
                "parse and audit a matroid file")
    p.add_argument("--matroid", metavar="PATH", required=True)
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    args._argv = ["rotagrid", *argv]
    try:
        return args.run(args)
    except (CliError, OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
