#!/usr/bin/env python3
"""Sweep every admissible row family over a catalog of 9-element matroids.

Reproduces (on generated matroids) the exhaustive three-column check: for
each catalog matroid, every ordered triple of disjoint independent row sets
of size <= 3 is solved; an unsolvable family would refute three-column grid
completion and is printed verbatim.
"""

import argparse
import json
import time

from rotagrid import c3_catalog, verify_c3_for_matroid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--linear", type=int, default=25)
    parser.add_argument("--graphic", type=int, default=25)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args()

    catalog = c3_catalog(seed=args.seed, linear=args.linear,
                         graphic=args.graphic)
    reports = []
    total_unsat = 0
    start = time.perf_counter()
    for oracle in catalog:
        t0 = time.perf_counter()
        rep = verify_c3_for_matroid(oracle)
        reports.append(rep)
        total_unsat += rep.unsat
        print(f"{rep.matroid:<24} families={rep.families:>7} "
              f"sat={rep.sat:>7} unsat={rep.unsat} "
              f"({time.perf_counter() - t0:.1f}s)")
        for fam in rep.unsat_examples:
            print(f"  UNSOLVABLE rows: {[sorted(r) for r in fam]}")
    elapsed = time.perf_counter() - start
    print(f"\n{len(catalog)} matroids, "
          f"{sum(r.families for r in reports)} families, "
          f"{total_unsat} unsolvable, {elapsed:.0f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"reports": [r.to_dict() for r in reports],
                       "total_unsat": total_unsat,
                       "seconds": elapsed}, fh, indent=2)
    raise SystemExit(1 if total_unsat else 0)


if __name__ == "__main__":
    main()
