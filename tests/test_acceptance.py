"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets are wall-clock
upper bounds asserted per criterion; the heavy sweeps use both cores when
available but stay within budget single-threaded.
"""

import os
import time
from itertools import combinations

from audits import enumerate_bases, rank_axiom_violations
from rotagrid import (REQUIRED, GridInstance, MatroidOracle, BasesRep,
                      brute_force_count, builtin_instance,
                      find_basis_partition, find_exchange_violation,
                      initial_double_partition, is_disjoint_union_of_bases,
                      mcdiarmid_instance, mu, odd_wheel_instance,
                      random_graphic_matroid, random_linear_matroid,
                      random_rota_instance, rota_solve,
                      solve, uniform_matroid, validate_grid, validate_instance,
                      verify_c3_for_matroid)

PROCESSES = min(2, os.cpu_count() or 1)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_k4_counterexample():
    start = time.perf_counter()
    inst = builtin_instance("k4-c2").instance
    count = solve(inst, mode="count").count
    status = solve(inst).status
    elapsed = time.perf_counter() - start
    assert count == 0
    assert status == "UNSAT"
    assert elapsed < 1.0
    report(1, f"k4-c2 count=0 and UNSAT in {elapsed:.3f}s (< 1s)")


def test_criterion_2_oxley_j_counterexample():
    start = time.perf_counter()
    named = builtin_instance("oxley-j")
    oracle = named.instance.matroid
    assert oracle.rank_total == 4
    split = find_basis_partition(oracle, 2)
    assert split is not None and is_disjoint_union_of_bases(oracle, split)
    assert validate_instance(named.instance)
    status = solve(named.instance).status
    elapsed = time.perf_counter() - start
    assert status == "UNSAT"
    assert elapsed < 10.0
    report(2, f"oxley-j rank 4, splits into 2 bases, UNSAT in {elapsed:.3f}s (< 10s)")


def test_criterion_3_mcdiarmid():
    start = time.perf_counter()
    named = mcdiarmid_instance()
    strict = GridInstance(named.instance.matroid, 3, 3, named.instance.rows,
                          REQUIRED)
    check = validate_instance(strict)
    assert not check
    assert any("dependent" in f for f in check.failures)
    assert validate_instance(named.instance)      # NOT_REQUIRED mode is fine
    count = solve(named.instance, mode="count").count
    elapsed = time.perf_counter() - start
    assert count == 0
    assert elapsed < 10.0
    report(3, f"mcdiarmid fails REQUIRED hypothesis, count=0 in {elapsed:.3f}s (< 10s)")


def test_criterion_4_odd_wheels():
    start = time.perf_counter()
    wheel3 = odd_wheel_instance(3).instance
    mcd = mcdiarmid_instance().instance
    bijection = {0: 0, 1: 3, 2: 1, 3: 2, 4: 6, 5: 4, 6: 7, 7: 5, 8: 8}
    for mask in range(1 << 9):
        sub = [e for e in range(9) if mask >> e & 1]
        assert wheel3.matroid.rank(sub) \
            == mcd.matroid.rank([bijection[e] for e in sub])
    assert {frozenset(bijection[e] for e in r) for r in wheel3.rows} \
        == set(mcd.rows)
    assert solve(wheel3).status == "UNSAT"

    wheel5 = odd_wheel_instance(5).instance
    assert validate_instance(wheel5)
    outcome = solve(wheel5)
    elapsed = time.perf_counter() - start
    if outcome.status == "SAT":
        # the antipodal-pairing interpretation would be falsified
        print("odd-wheel-5 SAT under antipodal pairing; grid:", outcome.grid)
        raise AssertionError("antipodal pairing is not a counterexample")
    assert elapsed < 600.0
    report(4, f"odd-wheel-3 ~ mcdiarmid (bijection on all 2^9 subsets), both "
              f"UNSAT; odd-wheel-5 UNSAT in {elapsed:.1f}s (< 600s)")


def test_criterion_5_n3_sweep():
    start = time.perf_counter()
    matroids = [uniform_matroid(3, 9, name="u39")]
    matroids += [random_linear_matroid(3, 9, seed=i) for i in range(25)]
    matroids += [random_graphic_matroid(4, 9, seed=500 + i) for i in range(25)]
    total_unsat = 0
    families = 0
    for oracle in matroids:
        rep = verify_c3_for_matroid(oracle, processes=PROCESSES)
        total_unsat += rep.unsat
        families += rep.families
        assert rep.unsat == 0, f"{rep.matroid}: {rep.unsat_examples}"
    elapsed = time.perf_counter() - start
    assert total_unsat == 0
    assert elapsed < 1800.0
    report(5, f"sweep over U39 + 25 linear + 25 graphic matroids: "
              f"{families} families, zero unsolvable, in {elapsed:.0f}s (< 1800s)")


def test_criterion_6_descent_trials():
    start = time.perf_counter()
    runs = 0
    for n in (3, 4, 5, 6):
        for seed in range(25):
            inst = random_rota_instance(n, seed=seed)
            trace = rota_solve(inst)
            assert trace.certificate is None, (n, seed)
            grid_inst = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
            assert validate_grid(grid_inst, trace.grid), (n, seed)
            mu0 = mu(initial_double_partition(inst))
            assert len(trace.steps) <= mu0, (n, seed)
            mus = [s.mu_before for s in trace.steps]
            if trace.steps:
                mus.append(trace.steps[-1].mu_after)
            assert all(a > b for a, b in zip(mus, mus[1:])), (n, seed)
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 100
    assert elapsed < 600.0
    report(6, f"100 seeded descent runs (n=3..6) all reached valid grids with "
              f"strictly dropping potential in {elapsed:.1f}s (< 600s)")


def test_criterion_7_solver_oracle_equivalence():
    corpus = []
    corpus.append(("k4-c2", builtin_instance("k4-c2").instance))
    corpus.append(("mcdiarmid", mcdiarmid_instance().instance))
    u24 = uniform_matroid(2, 4)
    corpus.append(("u24-2x2", GridInstance(u24, 2, 2, (frozenset(),) * 2)))
    u39 = uniform_matroid(3, 9)
    corpus.append(("u39-partial",
                   GridInstance(u39, 3, 3,
                                (frozenset({0, 4}), frozenset({1}),
                                 frozenset({2, 8})))))
    expected_u24 = 24      # 4! assignments, every column pair a basis
    lines = []
    for name, inst in corpus:
        fast = solve(inst, mode="count").count
        slow = brute_force_count(inst)
        assert fast == slow, name
        if name == "u24-2x2":
            assert fast == expected_u24
        lines.append(f"{name}={fast}")
    report(7, "count == brute_force_count on " + ", ".join(lines))


def test_criterion_8_matroid_axiom_suite():
    small = {name: builtin_instance(name).instance.matroid
             for name in ("k4-c2", "oxley-j", "mcdiarmid", "odd-wheel-3", "u39")}
    # exhaustive rank axioms on every built-in with at most 9 elements
    for name, oracle in small.items():
        assert oracle.ground.size <= 9
        assert rank_axiom_violations(oracle) == [], name

    # representation equivalence: LinearRep vs BasesRep built from its bases
    j = small["oxley-j"]
    rebuilt = MatroidOracle(BasesRep(4, enumerate_bases(j)),
                            ground_size=8)
    for size in range(9):
        for c in combinations(range(8), size):
            assert rebuilt.rank(c) == j.rank(c)
    lin = random_linear_matroid(3, 9, seed=4)
    rebuilt_lin = MatroidOracle(BasesRep(3, enumerate_bases(lin)),
                                ground_size=9)
    assert rebuilt_lin.build_rank_table() == lin.build_rank_table()

    # restriction consistency on every built-in
    for name, oracle in small.items():
        m = oracle.ground.size
        for keep in (tuple(range(m)), tuple(range(0, m, 2)), (0, 1, 2)):
            sub = oracle.restrict(keep)
            for size in range(len(keep) + 1):
                for c in combinations(range(len(keep)), size):
                    parent = [sub.parent_elements[e] for e in c]
                    assert sub.rank(c) == oracle.rank(parent), (name, keep)

    # exchange axiom: accepts generated families, rejects the canned violation
    for name, oracle in small.items():
        assert find_exchange_violation(enumerate_bases(oracle)) is None, name
    for seed in (0, 1):
        assert find_exchange_violation(
            enumerate_bases(random_graphic_matroid(4, 9, seed=seed))) is None
    assert find_exchange_violation([{0, 1}, {2, 3}]) is not None
    report(8, "rank axioms exhaustive on all <=9-element built-ins; "
              "representation equivalence, restriction consistency, and "
              "exchange checks all hold")
