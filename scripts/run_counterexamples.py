#!/usr/bin/env python3
"""Replay every built-in counterexample and print a verification table.

Each named instance is validated against its hypotheses, decided, and
(where the cell count allows) counted, confirming zero completions.
"""

import argparse
import time

from rotagrid import builtin_instance, solve, validate_instance

NAMES = ["k4-c2", "oxley-j", "mcdiarmid", "odd-wheel-3", "odd-wheel-5"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--names", nargs="*", default=NAMES)
    args = parser.parse_args()

    print(f"{'instance':<14} {'hypotheses':<11} {'decide':<7} "
          f"{'count':>8} {'nodes':>10} {'seconds':>8}")
    failures = 0
    for name in args.names:
        named = builtin_instance(name)
        inst = named.instance
        check = validate_instance(inst)
        start = time.perf_counter()
        report = solve(inst)
        count = (solve(inst, mode="count").count
                 if inst.matroid.ground.size <= 9 else None)
        elapsed = time.perf_counter() - start
        ok = report.status == named.expected and (count in (None, 0))
        failures += 0 if ok else 1
        print(f"{name:<14} {'ok' if check else 'FAIL':<11} "
              f"{report.status:<7} {count if count is not None else '-':>8} "
              f"{report.nodes:>10} {elapsed:>8.2f}"
              + ("" if ok else "   << UNEXPECTED"))
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
