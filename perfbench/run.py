"""rotagrid benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload sweep|descent|obstructions \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Run it from the root of a source checkout; it imports rotagrid from ./src.
An untraced run (--trace 0) sets the workload up three times or more, then
runs passes on fresh copies of the inputs until S seconds have gone by (at
least one), and prints the end-to-end metrics.  Their times are rescaled
to a reference's nominal speed, sampled on a timer while they run, so that
the shared host's changes of speed cancel (see speed.py); the raw times are
kept in the record.  A traced run (--trace 1)
sets up once and times untraced passes the same way, then sets up and runs
one pass with spans, probes the matroid and format layers, and prints the
per-layer metrics.

Every verdict is checked.  A wrong verdict, or an exact count that differs
between passes, between the traced and untraced pass, or from an earlier
run of the same code, ends the run with exit code 1 and no numbers.  Each
run appends its full record (metadata, metrics, exact counts, samples) to
.bench_out/results.jsonl and a traced run writes its spans beside it;
--compare reads two results files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RESULTS = OUT_DIR / "results.jsonl"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0   # a quick set-up repeats until this much time has gone
GENERATORS = ("uniform_matroid", "random_linear_matroid",
              "random_graphic_matroid", "random_rota_instance",
              "builtin_instance")


class CountMismatch(Exception):
    """An exact count moved between passes or runs of the same code."""


def _quantile(samples: list[float], q: int) -> float:
    """q-th percentile (q = 10, 20, ..., 90), interpolated between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def _merge_counts(into: dict, new: dict, where: str) -> None:
    for key, value in new.items():
        if into.setdefault(key, value) != value:
            raise CountMismatch(f"{key} is {value} in {where} but {into[key]} "
                                f"before")


def untraced(wl, api, seconds: int, repeats: int, setup_seconds: float):
    """Set up at least `repeats` times and for `setup_seconds`, then run
    passes for `seconds` (at least one), all under a speed probe.

    Returns the inputs, the set-up times as (raw, rescaled) pairs, the
    set-up and pass outcomes, the exact counts and the probe's summary.
    """
    from speed import SpeedProbe
    from workloads import run_pass

    counts: dict = {}
    setup_marks, setups = [], []
    with SpeedProbe() as probe:
        while len(setups) < repeats or sum(
                t1 - t0 for (t0, _), (t1, _) in setup_marks) < setup_seconds:
            start = probe.mark()
            inputs, out = wl.setup(api)
            setup_marks.append((start, probe.mark()))
            _merge_counts(counts, out.counts, f"set-up {len(setups)}")
            setups.append(out)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            out = run_pass(wl, api, wl.fresh(inputs), probe.mark)
            _merge_counts(counts, out.counts, f"pass {len(passes)}")
            passes.append(out)
        setup_times = [probe.section(a, b) for a, b in setup_marks]
        for p in passes:
            p.scaled = [probe.section(a, b)[1] for a, b in p.marks]
    return inputs, setup_times, setups, passes, counts, probe.summary()


def _wall(p) -> float:
    """A pass's time from the first to the last verdict, without the checks."""
    return sum(p.latencies)


def _scaled_wall(p) -> float:
    """_wall, rescaled to the reference's nominal speed (see speed.py)."""
    return sum(p.scaled)


def end_to_end(setup_times, setups, passes) -> dict:
    """End-to-end metrics; every time is rescaled (see speed.py)."""
    # a call's latency is its median over the passes (every pass makes the
    # same calls in the same order); the percentiles are taken over calls
    calls = [statistics.median(c) for c in zip(*(p.scaled for p in passes))]

    def over_calls(q):
        return _quantile(calls, q) * 1e3

    # one set-up plus one pass: the same operations in every run
    ops = setups[0].attempted + passes[0].attempted
    failed = setups[0].failed + passes[0].failed
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        "wall_s": (statistics.median(_scaled_wall(p) for p in passes), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "ok_ratio": (1 - failed / ops, "ratio"),
        "verdicts_per_s": (statistics.median(p.attempted / _scaled_wall(p)
                                             for p in passes), "1/s"),
        "run_p50_ms": (over_calls(50), "ms"),
        "run_p90_ms": (over_calls(90), "ms"),
    }


def traced(wl, seed: int, untraced_wall: float, counts: dict):
    """One traced set-up, pass and probe: per-layer metrics and the spans."""
    import probes
    from tracer import Tracer, instrument
    from workloads import run_pass

    reference = probes.reference_oracles()
    tracer = Tracer(wl.name)
    with instrument(tracer) as api:
        setup_sid = len(tracer.start)
        inputs, setup_out = tracer.call(tracer.name_id("harness.setup"),
                                        wl.setup, (api,))
        fresh = wl.fresh(inputs)
        before = dict(tracer.counters)
        pass_sid = len(tracer.start)
        out = tracer.call(tracer.name_id("harness.pass"), run_pass,
                          (wl, api, fresh))
        after = dict(tracer.counters)
        layer = tracer.call(tracer.name_id("harness.probe"), probes.measure,
                            (api, wl, inputs, reference, random.Random(seed)))

    _merge_counts(counts, setup_out.counts, "the traced set-up")
    _merge_counts(counts, out.counts, "the traced pass")
    _merge_counts(counts, {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("grid.solve_calls", "grid.nodes")}, "the traced pass's spans")
    _merge_counts(counts, {"grid.partition_giveups":
                           after.get("grid.partition_giveups", 0)},
                  "the traced set-up and pass's spans")

    setup_spans = tracer.summary(setup_sid)
    pass_spans = tracer.summary(pass_sid)
    pass_s = tracer.end[pass_sid] - tracer.start[pass_sid]

    def total(spans, name, parent=None):
        return sum((row[1] for (n, p), row in spans.items()
                    if n == name and parent in (None, p)), 0.0)

    def self_s(prefix):
        return sum((row[2] for (n, _), row in pass_spans.items()
                    if n.startswith(prefix)), 0.0)

    solves = tracer.durations("grid.solve", pass_sid)
    nodes = counts["grid.nodes"]
    metrics = {k: (v, "ms" if "_ms" in k else "us") for k, v in layer.items()}
    metrics.update({
        "matroid.restrict_ms": (statistics.median(
            tracer.durations("matroid.restrict")) * 1e3, "ms"),
        "matroid.self_s": (self_s("matroid."), "s"),
        "grid.solve_calls": (counts["grid.solve_calls"], "count"),
        "grid.solve_s": (sum(solves), "s"),
        "grid.solve_us_p50": (statistics.median(solves) * 1e6, "us"),
        "grid.nodes": (nodes, "count"),
        "grid.ns_per_node": (sum(solves) / nodes * 1e9, "ns"),
        "grid.partition_ms": ((total(setup_spans, "grid.find_basis_partition")
                               + total(pass_spans, "grid.find_basis_partition"))
                              * 1e3, "ms"),
        "grid.partition_giveups": (counts["grid.partition_giveups"], "count"),
        "grid.self_s": (self_s("grid."), "s"),
        "instances.families": (counts.get("instances.families", 0), "count"),
        "instances.enumerate_s": (
            total(pass_spans, "instances.enumerate_row_families"), "s"),
        "instances.generate_s": (sum(total(setup_spans, f"instances.{g}",
                                           "harness.setup")
                                     for g in GENERATORS), "s"),
        "instances.sweep_self_s": (self_s("instances.verify_c3_for_matroid"),
                                   "s"),
        "descent.steps": (counts.get("descent.steps", 0), "count"),
        "descent.self_s": (self_s("descent."), "s"),
        "descent.subsolve_s": (total(pass_spans, "grid.solve",
                                     "descent.rota_solve"), "s"),
        "descent.subsolve_nodes": (counts.get("descent.subsolve_nodes", 0),
                                   "count"),
        "trace.overhead_ratio": (_wall(out) / untraced_wall, "ratio"),
        "trace.unattributed_ratio": (self_s("harness.") / pass_s, "ratio"),
    })
    layers = sorted({n.split(".")[0] for n, _ in pass_spans})
    accounting = {"pass_span_s": pass_s, "calls_s": sum(out.latencies),
                  "self_s_by_layer": {k: self_s(k + ".") for k in layers}}
    return metrics, tracer, accounting, setup_out, out


def _code_digest() -> str:
    """SHA-256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_earlier_runs(record: dict) -> None:
    """Counts must match every earlier run of the same code and workload."""
    if not RESULTS.is_file():
        return
    for line in RESULTS.read_text(encoding="utf-8").splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:      # a run cut off while appending
            continue
        if (old.get("code_digest") == record["code_digest"]
                and old.get("workload") == record["workload"]):
            _merge_counts(dict(old["counts"]), record["counts"],
                          f"an earlier run (seed {old['seed']})")


def run(args) -> int:
    from tracer import plain_api
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    # a traced run reports no set-up time, so it sets up only once untraced
    repeats = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
    inputs, setup_times, setups, passes, counts, speed = untraced(
        wl, plain_api(), args.seconds, *repeats)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "code_digest": _code_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "inputs": wl.sizes(inputs), "reference": speed,
        "samples": {"setup_s": [t for _, t in setup_times],
                    "setup_raw_s": [t for t, _ in setup_times],
                    "wall_s": [_scaled_wall(p) for p in passes],
                    "wall_raw_s": [_wall(p) for p in passes],
                    "run_ms": [[x * 1e3 for x in p.scaled] for p in passes],
                    "run_raw_ms": [[x * 1e3 for x in p.latencies]
                                   for p in passes]},
    }
    attempted = sum(o.attempted for o in setups + passes)
    failed = sum(o.failed for o in setups + passes)
    if args.trace:
        untraced_wall = statistics.median(_wall(p) for p in passes)
        metrics, tracer, accounting, *outs = traced(wl, args.seed,
                                                    untraced_wall, counts)
        attempted += sum(o.attempted for o in outs)
        failed += sum(o.failed for o in outs)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        record.update(spans=str(spans.relative_to(ROOT)), accounting=accounting)
    else:
        metrics = end_to_end(setup_times, setups, passes)
    record.update(counts=counts, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    _check_earlier_runs(record)
    OUT_DIR.mkdir(exist_ok=True)
    with RESULTS.open("a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")

    print(f"{wl.name} seed {args.seed}: {attempted} operations, "
          f"{failed} failed; counts {json.dumps(counts, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    if args.trace:
        split = " + ".join(f"{k} {v:.3f}" for k, v
                           in record["accounting"]["self_s_by_layer"].items())
        print(f"  traced pass {record['accounting']['pass_span_s']:.3f} s "
              f"= self time of {split}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a: str, path_b: str) -> int:
    """Median ratio B/A per workload and metric, judged by the bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(path_a), _load(path_b)
    ok = True
    for wl in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        print(f"{wl}:")
        ra = [r for r in a if r["workload"] == wl]
        rb = [r for r in b if r["workload"] == wl]
        for name, m in specs.items():
            va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else float("inf") if mb else 1.0
            verdict = ""
            if "bound" in m:
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                within = worse <= m["bound"]
                ok &= within
                verdict = (f"within bound {m['bound']}" if within
                           else f"WORSE than bound {m['bound']}")
            print(f"  {name:32s} A {ma:14.6g}  B {mb:14.6g}  B/A {ratio:8.4f}"
                  f"  (n={len(va)}/{len(vb)}) {verdict}")
        counts: dict = {}
        try:
            for r in ra + rb:
                _merge_counts(counts, r["counts"], f"seed {r['seed']}")
            print("  exact counts: equal")
        except CountMismatch as exc:
            ok = False
            print(f"  exact counts: DIFFER: {exc}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["sweep", "descent",
                                               "obstructions"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "rotagrid" / "__init__.py").is_file():
        print(f"error: no rotagrid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WrongVerdict
    try:
        return run(args)
    except (WrongVerdict, CountMismatch) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
