#!/usr/bin/env python3
"""Batch descent runs on seeded random full-row instances.

For each rank n and seed, builds a random rank-n linear matroid on n^2
elements split into n disjoint bases, runs the descent, and checks the
resulting grid.  Prints per-n summaries of step counts and potentials, how
many distinct basis partitions the trials drew (seeds that draw the same
partition run the same descent), and where the time went: drawing the
instances (`random_rota_instance`), the block subsolves (the sum of their
reports' `millis`), and the rest of the descent (restriction, regrouping
and checks).
"""

import argparse
import time

from rotagrid import (REQUIRED, GridInstance, initial_double_partition, mu,
                      random_rota_instance, rota_solve, validate_grid)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ns", default="3,4,5,6",
                        help="comma-separated ranks")
    parser.add_argument("--trials", type=int, default=25,
                        help="seeded trials per rank")
    parser.add_argument("--k", type=int, default=3, help="descent block size")
    args = parser.parse_args()

    grand_start = time.perf_counter()
    for n in (int(tok) for tok in args.ns.split(",")):
        steps = []
        nodes = 0
        drawn = set()     # the distinct basis partitions
        draw_s = descent_s = 0.0
        subsolve_ms = 0.0
        t0 = time.perf_counter()
        for seed in range(args.trials):
            t1 = time.perf_counter()
            inst = random_rota_instance(n, seed=seed)
            t2 = time.perf_counter()
            drawn.add(frozenset(inst.bases))
            trace = rota_solve(inst, k=min(args.k, n) if n >= 3 else args.k)
            descent_s += time.perf_counter() - t2
            draw_s += t2 - t1
            subsolve_ms += sum(s.report.millis for s in trace.steps)
            if trace.certificate is not None:
                print(f"n={n} seed={seed}: CERTIFICATE -- unsolvable block "
                      f"subproblem; export it and investigate!")
                raise SystemExit(1)
            grid_inst = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
            assert validate_grid(grid_inst, trace.grid)
            mu0 = mu(initial_double_partition(inst))
            assert len(trace.steps) <= mu0
            steps.append(len(trace.steps))
            nodes += sum(s.report.nodes for s in trace.steps)
        elapsed = time.perf_counter() - t0
        print(f"n={n}: {args.trials} runs, steps min/avg/max = "
              f"{min(steps)}/{sum(steps) / len(steps):.1f}/{max(steps)}, "
              f"{nodes} subsolve nodes, {elapsed:.1f}s")
        print(f"  distinct basis partitions drawn: {len(drawn)} of "
              f"{args.trials}")
        print(f"  draw {draw_s:.3f}s, subsolves {subsolve_ms / 1000:.3f}s, "
              f"rest of descent {descent_s - subsolve_ms / 1000:.3f}s")
    print(f"total {time.perf_counter() - grand_start:.1f}s")


if __name__ == "__main__":
    main()
