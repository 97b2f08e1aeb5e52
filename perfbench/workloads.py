"""The three workloads: what each builds in set-up, calls in a pass, and checks.

Every workload runs on one process (`processes=1` everywhere) against
rotagrid's public API, called through `api` so that the traced run can
substitute span wrappers.  The inputs are the acceptance suite's; the seed
fixes the order in which they run and the samples the layer probes draw (see
NOTES.md for why the seed does not pick other inputs).

A pass runs on fresh copies of the set-up's oracles, so every pass starts
with empty rank memos and tables, as a new process would.  `run_pass` times
each call on its own and checks the verdicts after the last one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial

from rotagrid import (REQUIRED, GridInstance, MatroidOracle, RotaInstance,
                      initial_double_partition, is_disjoint_union_of_bases,
                      mu, validate_grid)


class WrongVerdict(Exception):
    """A verdict, count or round trip that contradicts the known answer."""


@dataclass
class Outcome:
    """Operations (verdicts) of one set-up or one pass, and what they cost."""

    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)   # seconds per timed call
    marks: list = field(default_factory=list)       # (start, stop) per call
    scaled: list = field(default_factory=list)      # latencies, rescaled


def _plain_mark() -> tuple[float, float]:
    return time.perf_counter(), 0.0


def run_pass(wl, api, inputs, mark=_plain_mark) -> Outcome:
    """Time each of the workload's calls, then check every verdict.

    `mark` is `SpeedProbe.mark` in untraced runs, so that each call's
    latency excludes the reference runs inside it and can be rescaled.
    """
    results, marks = [], []
    for label, call in wl.calls(api, inputs):
        start = mark()
        results.append((label, call()))
        marks.append((start, mark()))
    out = wl.check(results)
    out.marks = marks
    out.latencies = [(t1 - t0) - (s1 - s0) for (t0, s0), (t1, s1) in marks]
    return out


def fresh_oracle(oracle: MatroidOracle) -> MatroidOracle:
    """Same matroid, no cached ranks or table."""
    return MatroidOracle(oracle.rep, names=oracle.ground.names,
                         name=oracle.name, ground_size=oracle.ground.size)


def roundtrip(api, inst: GridInstance, stem: str) -> GridInstance:
    """serialize -> parse -> digest; the parsed instance must keep the digest."""
    matroid_text = api.serialize_matroid(inst.matroid)
    grid_text = api.serialize_grid_instance(inst, matroid_path=f"{stem}.matroid")
    parsed = api.parse_grid_instance(grid_text,
                                     matroid=api.parse_matroid(matroid_text))
    if api.instance_digest(parsed) != api.instance_digest(inst):
        raise WrongVerdict(f"{stem}: digest changed in the format round trip")
    return parsed


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class Sweep:
    """verify_c3_for_matroid on one matroid of each representation."""

    name = "sweep"
    SOURCES = (("uniform_matroid", (3, 9), {"name": "u39"}),
               ("random_linear_matroid", (3, 9, 0), {}),
               ("random_graphic_matroid", (4, 9, 500), {}))

    def __init__(self, seed: int):
        self.sources = _shuffled(self.SOURCES, seed)

    def setup(self, api):
        oracles = [getattr(api, fn)(*args, **kw) for fn, args, kw in self.sources]
        return oracles, Outcome()

    def fresh(self, oracles):
        return [fresh_oracle(o) for o in oracles]

    def calls(self, api, oracles):
        return [(o.name, partial(api.verify_c3_for_matroid, o, processes=1))
                for o in oracles]

    def check(self, results) -> Outcome:
        out = Outcome()
        for _, rep in results:
            if rep.sat + rep.unsat != rep.families or rep.unsat:
                raise WrongVerdict(f"{rep.matroid}: {rep.families} families, "
                                   f"{rep.sat} SAT, {rep.unsat} UNSAT")
            out.attempted += rep.families
        out.counts["instances.families"] = out.attempted
        return out

    def sizes(self, oracles) -> dict:
        return {"matroids": [_describe(o) for o in oracles]}

    def probe_oracles(self, oracles):
        return list(oracles)

    def probe_instances(self, oracles):
        empty = (frozenset(),) * 3
        return [(o.name, GridInstance(o, 3, 3, empty, REQUIRED)) for o in oracles]


class Descent:
    """random_rota_instance then rota_solve, 25 seeds at each n = 3..6."""

    name = "descent"
    KEYS = tuple((n, s) for n in (3, 4, 5, 6) for s in range(25))

    def __init__(self, seed: int):
        self.keys = _shuffled(self.KEYS, seed)

    def setup(self, api):
        items = [(n, s, api.random_rota_instance(n, s)) for n, s in self.keys]
        return items, Outcome()

    def fresh(self, items):
        return [(n, s, RotaInstance(fresh_oracle(inst.matroid), inst.bases))
                for n, s, inst in items]

    def calls(self, api, items):
        return [(item, partial(api.rota_solve, item[2])) for item in items]

    def check(self, results) -> Outcome:
        out = Outcome()
        steps = nodes = 0
        for (n, s, inst), trace in results:
            where = f"n={n} seed={s}"
            if trace.certificate is not None or trace.grid is None:
                raise WrongVerdict(f"{where}: descent returned a certificate")
            full = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
            if not validate_grid(full, trace.grid):
                raise WrongVerdict(f"{where}: returned grid is invalid")
            mus = [st.mu_before for st in trace.steps]
            if trace.steps:
                mus.append(trace.steps[-1].mu_after)
            if any(a <= b for a, b in zip(mus, mus[1:])):
                raise WrongVerdict(f"{where}: potential did not strictly drop")
            if len(trace.steps) > mu(initial_double_partition(inst)):
                raise WrongVerdict(f"{where}: more steps than the initial mu")
            steps += len(trace.steps)
            nodes += sum(st.report.nodes for st in trace.steps)
        out.attempted = len(results)
        out.counts.update({"descent.steps": steps,
                           "descent.subsolve_nodes": nodes})
        return out

    def sizes(self, items) -> dict:
        per_n: dict[str, int] = {}
        for n, _, _ in items:
            per_n[f"n={n}"] = per_n.get(f"n={n}", 0) + 1
        return {"runs": per_n,
                "elements": sum(inst.matroid.ground.size for _, _, inst in items)}

    def probe_oracles(self, items):
        return [inst.matroid for _, _, inst in items]

    def probe_instances(self, items):
        return [(f"rota-n{n}-s{s}",
                 GridInstance(inst.matroid, n, n, inst.bases, REQUIRED))
                for n, s, inst in items]


class Obstructions:
    """The named obstructions along the CLI's path, in-process.

    Set-up builds each instance, round-trips it through the text formats and
    checks its hypotheses; the pass decides it and, where the ground set is
    small, counts its grids.  Every answer is known: UNSAT and zero grids.
    """

    name = "obstructions"
    NAMES = ("k4-c2", "oxley-j", "mcdiarmid",
             "odd-wheel-5", "odd-wheel-7", "odd-wheel-9")
    PARTITION_BUDGET = 1_000_000   # nodes; a give-up is a failed operation
    COUNT_MAX_ELEMENTS = 9

    def __init__(self, seed: int):
        self.names = _shuffled(self.NAMES, seed)

    def setup(self, api):
        out = Outcome()
        items = []
        for name in self.names:
            named = api.builtin_instance(name)
            if named.expected != "UNSAT":
                raise WrongVerdict(f"{name}: expected {named.expected}, not UNSAT")
            inst = roundtrip(api, named.instance, name)
            check = api.validate_instance(inst, check_basis_partition=False)
            if not check:
                raise WrongVerdict(f"{name}: {'; '.join(check.failures)}")
            parts = api.find_basis_partition(inst.matroid, inst.k,
                                             node_cap=self.PARTITION_BUDGET)
            if parts is None:
                out.failed += 1
            elif not is_disjoint_union_of_bases(inst.matroid, parts):
                raise WrongVerdict(f"{name}: partition is not {inst.k} bases")
            out.attempted += 2                      # round trip, check
            items.append((name, inst))
        out.counts["grid.partition_giveups"] = out.failed
        return items, out

    def fresh(self, items):
        return [(name, GridInstance(fresh_oracle(inst.matroid), inst.n, inst.k,
                                    inst.rows, inst.independence))
                for name, inst in items]

    def calls(self, api, items):
        out = []
        for name, inst in items:
            out.append(((name, "decide"), partial(api.solve, inst)))
            if inst.matroid.ground.size <= self.COUNT_MAX_ELEMENTS:
                out.append(((name, "count"), partial(api.solve, inst,
                                                     mode="count")))
        return out

    def check(self, results) -> Outcome:
        out = Outcome()
        for (name, mode), report in results:
            if report.status != "UNSAT" or (mode == "count" and report.count):
                raise WrongVerdict(f"{name}: {mode} gave {report.status}, "
                                   f"count {report.count}")
            out.counts[f"grid.nodes.{name}.{mode}"] = report.nodes
        out.attempted = len(results)
        out.counts["grid.solve_calls"] = len(results)
        out.counts["grid.nodes"] = sum(r.nodes for _, r in results)
        return out

    def sizes(self, items) -> dict:
        return {"instances": [dict(name=name, n=inst.n, k=inst.k,
                                   **_describe(inst.matroid))
                              for name, inst in items]}

    def probe_oracles(self, items):
        return [inst.matroid for _, inst in items]

    def probe_instances(self, items):
        return list(items)


def _describe(oracle: MatroidOracle) -> dict:
    return {"matroid": oracle.name, "kind": type(oracle.rep).__name__,
            "elements": oracle.ground.size, "rank": oracle.rank_total}


WORKLOADS = {w.name: w for w in (Sweep, Descent, Obstructions)}
