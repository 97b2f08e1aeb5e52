"""Layer probes for the traced run: matroid-layer costs and the format round trip.

Each probe times one layer call on a seeded sample of the workload's own
oracles or instances.  A representation the workload does not use is probed
on the sweep's matroid of that representation, so every probe reports a
measured figure on every workload.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from rotagrid import BasesRep, GraphicRep, LinearRep
from rotagrid.matroid import (BasesTester, GraphicTester, LinearTester,
                              TableTester)

from tracer import plain_api
from workloads import Sweep, fresh_oracle, roundtrip

SAMPLE = 4            # oracles per representation or tester kind
RANK_QUERIES = 250    # distinct subsets per oracle, each a cold-memo query
TESTER_OPS = 2000     # can_add / push / pop operations per replay script
REPLAYS = 3
TABLE_MAX_ELEMENTS = 12
KINDS = {LinearRep: "linear", GraphicRep: "graphic", BasesRep: "bases"}


def _sample(rng: random.Random, items: list, k: int = SAMPLE) -> list:
    return items if len(items) <= k else rng.sample(items, k)


def _by_kind(own: list, reference: list, keep=lambda o: True) -> dict:
    """Oracles per representation: the workload's own, else the reference."""
    out = {}
    for kind in KINDS.values():
        mine = [o for o in own if KINDS[type(o.rep)] == kind and keep(o)]
        out[kind] = mine or [o for o in reference
                             if KINDS[type(o.rep)] == kind and keep(o)]
    return out


def _small(o) -> bool:
    return o.ground.size <= TABLE_MAX_ELEMENTS


def rank_table_ms(own, reference, rng) -> dict:
    out = {}
    for kind, oracles in _by_kind(own, reference, _small).items():
        times = []
        for o in _sample(rng, oracles):
            fresh = fresh_oracle(o)
            t0 = time.perf_counter()
            fresh.build_rank_table()
            times.append(time.perf_counter() - t0)
        out[f"matroid.rank_table_ms.{kind}"] = statistics.median(times) * 1e3
    return out


def rank_us(own, reference, rng) -> dict:
    out = {}
    for kind, oracles in _by_kind(own, reference).items():
        total = 0.0
        queries = 0
        for o in _sample(rng, oracles):
            m = o.ground.size
            full = (1 << m) - 1
            masks = set()
            while len(masks) < min(RANK_QUERIES, full - 1):
                mask = rng.getrandbits(m)
                if 0 < mask < full:
                    masks.add(mask)
            subsets = [[e for e in range(m) if mask >> e & 1] for mask in masks]
            fresh = fresh_oracle(o)
            rank = fresh.rank
            t0 = time.perf_counter()
            for s in subsets:
                rank(s)
            total += time.perf_counter() - t0
            queries += len(subsets)
        out[f"matroid.rank_us.{kind}"] = total / queries * 1e6
    return out


def _testers(kind: str, oracle):
    """A factory of fresh testers of one kind over `oracle`."""
    rep = oracle.rep
    if kind == "table":
        table = fresh_oracle(oracle).build_rank_table()
        return lambda: TableTester(table)
    if kind == "linear":
        return lambda: LinearTester(rep.columns)
    if kind == "graphic":
        return lambda: GraphicTester(rep.vertices, rep.edges)
    masks = sorted(sum(1 << e for e in b) for b in rep.bases)
    return lambda: BasesTester(masks)


def _script(tester, oracle, rng) -> list:
    """A seeded walk of (op, element) pairs; op 0 = can_add, 1 = push, 2 = pop."""
    m, r = oracle.ground.size, oracle.rank_total
    ops: list[tuple[int, int]] = []
    stack: list[int] = []
    while len(ops) < TESTER_OPS:
        if stack and (len(stack) == r or rng.random() < 0.4):
            e = stack.pop()
            tester.pop(e)
            ops.append((2, e))
            continue
        e = rng.randrange(m)
        if e in stack:
            continue
        ops.append((0, e))
        if tester.can_add(e):
            tester.push(e)
            stack.append(e)
            ops.append((1, e))
    return ops


def _replay(tester, ops) -> None:
    can_add, push, pop = tester.can_add, tester.push, tester.pop
    for op, e in ops:
        if op == 0:
            can_add(e)
        elif op == 1:
            push(e)
        else:
            pop(e)


def tester_op_us(own, reference, rng) -> dict:
    groups = _by_kind(own, reference)
    groups["table"] = [o for o in own if _small(o)] or \
        [o for o in reference if _small(o)]
    out = {}
    for kind in ("table", "linear", "graphic", "bases"):
        total = 0.0
        ops_run = 0
        for o in _sample(rng, groups[kind]):
            make = _testers(kind, o)
            ops = _script(make(), o, rng)
            for _ in range(REPLAYS):
                tester = make()
                t0 = time.perf_counter()
                _replay(tester, ops)
                total += time.perf_counter() - t0
                ops_run += len(ops)
        out[f"matroid.tester_op_us.{kind}"] = total / ops_run * 1e6
    return out


def restrict(own, rng) -> None:
    """Restrict sampled oracles to seeded two-thirds subsets (timed by spans)."""
    for o in _sample(rng, list(own)):
        m = o.ground.size
        keep = rng.sample(range(m), math.ceil(2 * m / 3))
        fresh_oracle(o).restrict(keep)


def roundtrip_us(api, instances, rng) -> float:
    times = []
    for stem, inst in _sample(rng, list(instances), 12):
        runs = []
        for _ in range(REPLAYS):
            t0 = time.perf_counter()
            roundtrip(api, inst, stem)
            runs.append(time.perf_counter() - t0)
        times.append(statistics.median(runs))
    return statistics.median(times) * 1e6


def reference_oracles() -> list:
    """The sweep's three matroids, one of each representation."""
    oracles, _ = Sweep(0).setup(plain_api())
    return oracles


def measure(api, wl, inputs, reference, rng) -> dict:
    """Every probe on the workload's own oracles and instances."""
    own = wl.probe_oracles(inputs)
    out = {}
    out.update(rank_table_ms(own, reference, rng))
    out.update(rank_us(own, reference, rng))
    out.update(tester_op_us(own, reference, rng))
    restrict(own, rng)
    out["formats.roundtrip_us"] = roundtrip_us(api, wl.probe_instances(inputs),
                                               rng)
    return out
