"""Command-line surface.

Subcommands: solve, count, rota, descent-step, verify-c3, instance,
check-matroid.  Exit codes: 0 = solvable / verified / OK, 1 = unsolvable or
counterexample found, 2 = usage or input error, 3 = undecided within the
node budget.  Every command accepts ``--json PATH`` to write a
machine-readable run report conforming to the schema shipped as
``report_schema.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .descent import (CounterexampleCertificate, RotaInstance, descent_step,
                      initial_double_partition, mu, rota_solve)
from .formats import (instance_digest, matroid_digest, parse_grid_instance,
                      parse_matroid, write_instance_files)
from .grid import GridInstance, find_basis_partition, solve, validate_instance
from .instances import (builtin_instance, builtin_names, c3_catalog,
                        verify_c3_for_matroid)
from .matroid import MatroidOracle, find_exchange_violation, BasesRep

OK, FOUND_COUNTEREXAMPLE, USAGE, UNDECIDED = 0, 1, 2, 3


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _write_report(args, kind: str, digest: str | None, result: dict) -> None:
    if not getattr(args, "json", None):
        return
    report = {
        "command": list(args._argv),
        "version": __version__,
        "kind": kind,
        "digest": digest,
        "result": result,
    }
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                               encoding="utf-8")


def _load_instance(args) -> GridInstance:
    if not args.grid_instance:
        raise CliError("missing --grid-instance PATH")
    path = Path(args.grid_instance)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return parse_grid_instance(text, base_dir=path.parent)


def _load_matroid_or_builtin(source: str) -> MatroidOracle:
    p = Path(source)
    if p.exists():
        return parse_matroid(p.read_text(encoding="utf-8"))
    try:
        return builtin_instance(source).instance.matroid
    except KeyError:
        raise CliError(f"{source!r} is neither a matroid file nor a built-in "
                       f"instance ({', '.join(builtin_names())})") from None


def _rota_instance_from_args(args) -> RotaInstance:
    if args.grid_instance:
        inst = _load_instance(args)
        return RotaInstance(inst.matroid, inst.rows)
    if not args.matroid:
        raise CliError("rota needs --grid-instance or --matroid")
    p = Path(args.matroid)
    if not p.exists():
        try:
            named = builtin_instance(args.matroid)
        except KeyError:
            raise CliError(f"unknown matroid {args.matroid!r}") from None
        oracle = named.instance.matroid
        rows = named.instance.rows
        if sum(len(r) for r in rows) == oracle.ground.size:
            return RotaInstance(oracle, rows)
    else:
        oracle = parse_matroid(p.read_text(encoding="utf-8"))
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


def _check_hypotheses(args, inst: GridInstance) -> None:
    if getattr(args, "skip_hypothesis_check", False):
        return
    check = validate_instance(inst)
    if not check:
        raise CliError("instance fails its hypotheses:\n  "
                       + "\n  ".join(check.failures))


def _cmd_solve(args, mode: str) -> int:
    inst = _load_instance(args)
    _check_hypotheses(args, inst)
    report = solve(inst, mode=mode, node_budget=args.node_budget)
    digest = instance_digest(inst)
    _write_report(args, "count" if mode == "count" else "solve", digest,
                  report.to_dict())
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


def _export_certificate(cert, directory: Path, stem: str) -> list[str]:
    paths = write_instance_files(cert.instance, directory, stem)
    return [str(p) for p in paths]


def _cmd_rota(args) -> int:
    inst, digest = _load_rota_instance(args)
    trace = rota_solve(inst, k=args.k)
    if trace.grid is not None:
        print(f"GRID after {len(trace.steps)} descent steps")
        for row in trace.grid:
            print(" ".join(str(e) for e in row))
        _write_report(args, "rota", digest, {
            "status": "GRID",
            "grid": [list(r) for r in trace.grid],
            "steps": [s.to_dict() for s in trace.steps],
        })
        return OK
    files = _export_certificate(trace.certificate, Path(args.out),
                                "certificate")
    print("CERTIFICATE: a block subproblem is unsolvable; exported to "
          + ", ".join(files))
    _write_report(args, "rota", digest, {
        "status": "CERTIFICATE",
        "grid": None,
        "steps": [s.to_dict() for s in trace.steps],
        "certificate_files": files,
    })
    return FOUND_COUNTEREXAMPLE


def _cmd_descent_step(args) -> int:
    inst, digest = _load_rota_instance(args)
    dp = initial_double_partition(inst)
    if mu(dp) == 0:
        print("mu = 0 already; nothing to descend")
        _write_report(args, "descent-step", digest,
                      {"mu": 0, "step": None})
        return OK
    if inst.n < 3 or args.k < 3 or args.k > inst.n:
        raise CliError(f"descent needs 3 <= k <= n; got k={args.k}, n={inst.n}")
    outcome = descent_step(inst, dp, k=args.k)
    if isinstance(outcome, CounterexampleCertificate):
        files = _export_certificate(outcome, Path(args.out), "certificate")
        print("CERTIFICATE: block subproblem unsolvable; exported to "
              + ", ".join(files))
        _write_report(args, "descent-step", digest, {
            "mu": mu(dp), "step": None, "certificate_files": files})
        return FOUND_COUNTEREXAMPLE
    new_dp, step = outcome
    print(f"block {list(step.block)}: mu {step.mu_before} -> {step.mu_after} "
          f"({step.report.nodes} nodes)")
    _write_report(args, "descent-step", digest,
                  {"mu": step.mu_before, "step": step.to_dict()})
    return OK


def _cmd_verify_c3(args) -> int:
    if args.matroid:
        oracle = _load_matroid_or_builtin(args.matroid)
        oracles = [oracle]
        digest = matroid_digest(oracle)
    else:
        oracles = c3_catalog(seed=args.seed, linear=args.linear,
                             graphic=args.graphic)
        digest = None
    reports = []
    total_unsat = 0
    for oracle in oracles:
        try:
            rep = verify_c3_for_matroid(oracle)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        reports.append(rep)
        total_unsat += rep.unsat
        print(f"{rep.matroid}: {rep.families} families, {rep.sat} solvable, "
              f"{rep.unsat} unsolvable")
        for fam in rep.unsat_examples:
            print(f"  UNSOLVABLE rows: {[sorted(r) for r in fam]}")
    _write_report(args, "verify-c3", digest, {
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
    except (KeyError, ValueError) as exc:
        raise CliError(str(exc)) from None
    matroid_path, grid_path = write_instance_files(named.instance, args.out,
                                                   named.name)
    digest = instance_digest(named.instance)
    print(f"{named.name}: wrote {matroid_path} and {grid_path} "
          f"(expected {named.expected})")
    _write_report(args, "instance", digest, {
        "name": named.name,
        "expected": named.expected,
        "note": named.note,
        "files": [str(matroid_path), str(grid_path)],
    })
    return OK


def _cmd_check_matroid(args) -> int:
    path = Path(args.matroid)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    oracle = parse_matroid(text, check_exchange=False)
    digest = matroid_digest(oracle)
    result = {"name": oracle.name, "elements": oracle.ground.size,
              "rank": oracle.rank_total, "ok": True, "violation": None}
    if isinstance(oracle.rep, BasesRep):
        violation = find_exchange_violation(oracle.rep.bases)
        if violation is not None:
            a, x, b = violation
            result["ok"] = False
            result["violation"] = {
                "basis": sorted(a), "removed": x, "against": sorted(b)}
            print(f"exchange axiom violated: no replacement for {x} in "
                  f"{sorted(a)} from {sorted(b)}")
            _write_report(args, "check-matroid", digest, result)
            return FOUND_COUNTEREXAMPLE
    print(f"OK: {oracle.name or path.name} has {oracle.ground.size} elements, "
          f"rank {oracle.rank_total}")
    _write_report(args, "check-matroid", digest, result)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotagrid",
        description="exact matroid grid-completion toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, grid_instance=False, matroid=False, k=False,
                   seed=False, out=False, skip=False, budget=False):
        if grid_instance:
            p.add_argument("--grid-instance", metavar="PATH")
        if matroid:
            p.add_argument("--matroid", metavar="PATH")
        if k:
            p.add_argument("--k", type=int, default=3)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=".", metavar="DIR")
        if skip:
            p.add_argument("--skip-hypothesis-check", action="store_true")
        if budget:
            p.add_argument("--node-budget", type=int, metavar="N")
        p.add_argument("--json", metavar="PATH")

    p = sub.add_parser("solve", help="decide a grid instance")
    add_common(p, grid_instance=True, skip=True, budget=True)
    p.add_argument("--mode", choices=["decide", "count"], default="decide")

    p = sub.add_parser("count", help="count all grids of an instance")
    add_common(p, grid_instance=True, skip=True, budget=True)

    p = sub.add_parser("rota", help="full-row instance via potential descent")
    add_common(p, grid_instance=True, matroid=True, k=True, out=True)

    p = sub.add_parser("descent-step", help="run a single descent step")
    add_common(p, grid_instance=True, matroid=True, k=True, out=True)

    p = sub.add_parser("verify-c3",
                       help="sweep all row families over 9-element matroids")
    add_common(p, matroid=True, seed=True)
    p.add_argument("--linear", type=int, default=25, metavar="N")
    p.add_argument("--graphic", type=int, default=25, metavar="N")

    p = sub.add_parser("instance", help="materialize a built-in instance")
    p.add_argument("name", help=", ".join(builtin_names()))
    add_common(p, out=True)

    p = sub.add_parser("check-matroid", help="parse and audit a matroid file")
    add_common(p, matroid=True)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["rotagrid", *argv]
    try:
        if args.cmd == "solve":
            return _cmd_solve(args, args.mode)
        if args.cmd == "count":
            return _cmd_solve(args, "count")
        if args.cmd == "rota":
            return _cmd_rota(args)
        if args.cmd == "descent-step":
            return _cmd_descent_step(args)
        if args.cmd == "verify-c3":
            return _cmd_verify_c3(args)
        if args.cmd == "instance":
            return _cmd_instance(args)
        if args.cmd == "check-matroid":
            if not args.matroid:
                raise CliError("check-matroid needs --matroid PATH")
            return _cmd_check_matroid(args)
        raise CliError(f"unknown command {args.cmd!r}")
    except (CliError, OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
