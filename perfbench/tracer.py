"""Spans for the traced run, recorded from outside the program.

The benchmark never edits rotagrid.  For a traced run it rebinds the names
one rotagrid module imports from another (and two `MatroidOracle` methods)
to wrappers that open a span around each call, and it calls the layers'
public functions through the same wrappers.  Untraced runs use the plain
functions, so end-to-end timings carry no tracing cost.

A span is (name, start, end, parent, root, workload).  The root is the
outermost span, so every span of one set-up, pass or probe shares it.  Spans
are kept in memory in flat arrays and written out once, when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import rotagrid
import rotagrid.descent
import rotagrid.instances
from rotagrid import MatroidOracle


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named names[nid]."""
        stack = self._stack
        sid = len(self.start)
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def summary(self, root_sid: int) -> dict:
        """{(name, parent name): [spans, seconds, self seconds]} of one tree."""
        n = len(self.start)
        root, parent, start, end = self.root, self.parent, self.start, self.end
        child = array("d", bytes(8 * (n - root_sid)))
        for sid in range(root_sid, n):
            p = parent[sid]
            if root[sid] == root_sid and p >= 0:
                child[p - root_sid] += end[sid] - start[sid]
        agg: dict = {}
        for sid in range(root_sid, n):
            if root[sid] != root_sid:
                continue
            p = parent[sid]
            key = (self.name[sid], self.name[p] if p >= 0 else -1)
            dur = end[sid] - start[sid]
            row = agg.get(key)
            if row is None:
                row = agg[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid - root_sid]
        return {(self.names[a], self.names[b] if b >= 0 else None): row
                for (a, b), row in agg.items()}

    def durations(self, name: str, root_sid: int | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally in one tree."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name[i] == nid
                and (root_sid is None or self.root[i] == root_sid)]

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times in microseconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tparent\troot\tworkload\tname\tstart_us\tend_us\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.parent[sid]}\t{self.root[sid]}\t"
                          f"{self.workload}\t{self.names[self.name[sid]]}\t"
                          f"{(self.start[sid] - t0) * 1e6:.3f}\t"
                          f"{(self.end[sid] - t0) * 1e6:.3f}\n")


def plain_api() -> SimpleNamespace:
    """The rotagrid functions the workloads call, unwrapped."""
    return SimpleNamespace(**{name: getattr(rotagrid, name) for name in API})


# Public functions the workloads call, with the layer each belongs to.
API = {
    "uniform_matroid": "instances",
    "random_linear_matroid": "instances",
    "random_graphic_matroid": "instances",
    "random_rota_instance": "instances",
    "builtin_instance": "instances",
    "verify_c3_for_matroid": "instances",
    "rota_solve": "descent",
    "solve": "grid",
    "validate_instance": "grid",
    "validate_grid": "grid",
    "find_basis_partition": "grid",
    "serialize_matroid": "formats",
    "serialize_grid_instance": "formats",
    "parse_matroid": "formats",
    "parse_grid_instance": "formats",
    "instance_digest": "formats",
}

# Names one rotagrid module imports from another, rebound while tracing,
# with the layer the name belongs to.
_REBIND = (
    (rotagrid.instances, "solve", "grid"),
    (rotagrid.instances, "find_basis_partition", "grid"),
    (rotagrid.instances, "enumerate_row_families", "instances"),
    (rotagrid.descent, "solve", "grid"),
    (rotagrid.descent, "validate_grid", "grid"),
    (rotagrid.descent, "is_disjoint_union_of_bases", "matroid"),
)
_METHODS = ("restrict", "build_rank_table")


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    nid = tracer.name_id(f"{layer}.{name}")
    call = tracer.call
    if name == "solve":
        def wrapped(*args, **kwargs):
            report = call(nid, fn, args, kwargs)
            tracer.count("grid.solve_calls")
            tracer.count("grid.nodes", report.nodes)
            return report
    elif name == "find_basis_partition":
        def wrapped(*args, **kwargs):
            parts = call(nid, fn, args, kwargs)
            capped = kwargs.get("node_cap", args[2] if len(args) > 2 else None)
            if parts is None and capped is not None:
                tracer.count("grid.partition_giveups")
            return parts
    elif name == "enumerate_row_families":
        def wrapped(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = call(nid, next, (gen,))
                except StopIteration:
                    return
                yield item
    else:
        def wrapped(*args, **kwargs):
            return call(nid, fn, args, kwargs)
    return wrapped


@contextmanager
def instrument(tracer: Tracer):
    """Rebind rotagrid's cross-layer names to span wrappers; yield the API."""
    saved = []
    try:
        for module, name, layer in _REBIND:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, _wrap(tracer, layer, name, fn))
        for name in _METHODS:
            fn = MatroidOracle.__dict__[name]
            saved.append((MatroidOracle, name, fn))
            setattr(MatroidOracle, name, _wrap(tracer, "matroid", name, fn))
        yield SimpleNamespace(**{
            name: _wrap(tracer, layer, name, getattr(rotagrid, name))
            for name, layer in API.items()})
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)
