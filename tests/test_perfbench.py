"""The surface the benchmark relies on: perfbench's tracer rebinds names in
rotagrid's modules and its workloads pass keywords to rotagrid's functions.

The benchmark's files are loaded by path and only read.  One traced set-up
and pass of each workload must fail no operation and keep its traced counts,
so a change that drops a rebound name, a keyword the workloads pass, or the
descent's call-time lookup of `solve` fails here rather than in a benchmark
run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name,counts", [
    ("sweep", {"grid.solve_calls": 44, "grid.nodes": 1_497,
               "instances.families": 333_948}),
    ("descent", {"descent.steps": 501, "grid.solve_calls": 501,
                 "grid.nodes": 8_199, "descent.subsolve_nodes": 8_199}),
    ("obstructions", {"grid.solve_calls": 9, "grid.nodes": 3_505}),
])
def test_traced_workload_keeps_its_counts(name, counts):
    wl = workloads.WORKLOADS[name](0)
    trace = tracer.Tracer(name)
    with tracer.instrument(trace) as api:
        inputs, setup = wl.setup(api)
        before = dict(trace.counters)
        out = workloads.run_pass(wl, api, wl.fresh(inputs))
    assert setup.failed == out.failed == 0
    traced = {key: trace.counters.get(key, 0) - before.get(key, 0)
              for key in ("grid.solve_calls", "grid.nodes")}
    got = {**out.counts, **traced}
    assert {key: got[key] for key in counts} == counts
