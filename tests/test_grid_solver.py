"""Solver tests: named counterexamples, solver-vs-brute-force equivalence,
determinism, and the exactness of every pruning rule."""

import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotagrid import (NOT_REQUIRED, REQUIRED, BasesRep, GraphicRep,
                      GridInstance, MatroidOracle, brute_force_count,
                      builtin_instance, c3_catalog, count_solutions,
                      find_basis_partition, is_disjoint_union_of_bases,
                      k4_c2_instance, mcdiarmid_instance,
                      random_linear_matroid, solve, uniform_matroid,
                      validate_grid, validate_instance)
from rotagrid.matroid import tester_for as make_tester


def u39_inst(rows=((), (), ())):
    m = uniform_matroid(3, 9)
    return GridInstance(m, 3, 3, tuple(frozenset(r) for r in rows), REQUIRED)


# --- decision ----------------------------------------------------------------

def test_single_row_of_parallel_elements():
    three = MatroidOracle(GraphicRep(2, ((0, 1), (0, 1), (0, 1))))
    inst = GridInstance(three, 1, 3, (frozenset({0, 1, 2}),))
    report = solve(inst)
    assert report.status == "SAT"
    assert report.grid == ((0, 1, 2),)


def test_k4_c2_unsat():
    report = solve(k4_c2_instance().instance)
    assert report.status == "UNSAT"
    assert report.grid is None


def test_u39_unconstrained_sat():
    inst = u39_inst()
    report = solve(inst)
    assert report.status == "SAT"
    assert validate_grid(inst, report.grid)


def test_solve_rejects_size_mismatch():
    m = uniform_matroid(2, 4)
    inst = GridInstance(m, 2, 3, (frozenset(), frozenset()))
    with pytest.raises(ValueError):
        solve(inst)


def test_loops_can_never_be_columns():
    loops = MatroidOracle(GraphicRep(1, ((0, 0), (0, 0))))
    inst = GridInstance(loops, 1, 2, (frozenset(),))
    assert count_solutions(inst) == 0
    assert solve(inst).status == "UNSAT"


# --- counting ------------------------------------------------------------------

def test_k4_c2_count_zero():
    inst = k4_c2_instance().instance
    assert count_solutions(inst) == 0
    assert brute_force_count(inst) == 0


def test_u24_count_24():
    m = uniform_matroid(2, 4)
    inst = GridInstance(m, 2, 2, (frozenset(), frozenset()))
    assert count_solutions(inst) == 24
    assert brute_force_count(inst) == 24


def test_mcdiarmid_count_zero():
    inst = mcdiarmid_instance().instance
    assert count_solutions(inst) == 0


def test_count_mode_report_carries_count():
    m = uniform_matroid(2, 4)
    inst = GridInstance(m, 2, 2, (frozenset({0}), frozenset()))
    report = solve(inst, mode="count")
    assert report.count == brute_force_count(inst)
    assert report.status == "SAT"
    assert validate_grid(inst, report.grid)


def test_brute_force_refuses_large():
    m = uniform_matroid(3, 12)
    inst = GridInstance(m, 3, 4, (frozenset(),) * 3)
    with pytest.raises(ValueError):
        brute_force_count(inst)


# --- validate_grid ---------------------------------------------------------------

def test_solver_grid_validates():
    inst = u39_inst(rows=((0, 4), (1,), (2, 8)))
    report = solve(inst)
    assert report.status == "SAT"
    assert validate_grid(inst, report.grid)


def test_column_swap_stays_valid():
    inst = u39_inst(rows=((0, 4), (1,), (2, 8)))
    grid = solve(inst).grid
    swapped = tuple((row[1], row[0], row[2]) for row in grid)
    assert validate_grid(inst, swapped)


def test_cross_row_swap_evicting_required_element_fails():
    inst = k4_c2_instance().instance
    # move required element 0 (of row 0) into row 1
    grid = ((1, 5), (0, 4), (2, 3))
    assert not validate_grid(inst, grid)


def test_validate_grid_rejects_duplicates():
    inst = u39_inst()
    grid = ((0, 1, 2), (3, 4, 5), (6, 7, 0))
    assert not validate_grid(inst, grid)


# --- validate_instance -------------------------------------------------------------

def test_validate_k4_instance_ok():
    assert validate_instance(k4_c2_instance().instance)


def test_validate_mcdiarmid_required_fails_on_independence():
    base = mcdiarmid_instance().instance
    required = GridInstance(base.matroid, 3, 3, base.rows, REQUIRED)
    check = validate_instance(required)
    assert not check
    assert any("dependent" in f for f in check.failures)


def test_validate_overlapping_rows():
    inst = u39_inst(rows=((0, 1), (1, 2), ()))
    check = validate_instance(inst)
    assert not check
    assert any("overlaps" in f for f in check.failures)


def test_validate_can_skip_partition_search():
    inst = u39_inst()
    assert validate_instance(inst, check_basis_partition=False)


def test_validate_reports_missing_partition():
    # rank-2 matroid on 4 elements with a forced common element: no 2 disjoint bases
    m = MatroidOracle(GraphicRep(3, ((0, 1), (0, 1), (1, 2), (1, 2))))
    inst = GridInstance(m, 2, 2, (frozenset(), frozenset()))
    check = validate_instance(inst)
    assert check  # this one does split: {12,12'},... both pairs are trees
    m2 = MatroidOracle(GraphicRep(3, ((0, 1), (0, 1), (0, 1), (1, 2))))
    inst2 = GridInstance(m2, 2, 2, (frozenset(), frozenset()))
    check2 = validate_instance(inst2)
    assert not check2
    assert any("disjoint union" in f for f in check2.failures)


def test_validate_rejects_basis_family_that_is_not_a_matroid():
    # {01, 23} breaks exchange: 0 cannot be swapped out of 01 for 2 or 3
    m = MatroidOracle(BasesRep.from_sets(2, [{0, 1}, {2, 3}]))
    inst = GridInstance(m, 2, 2, (frozenset(), frozenset()))
    check = validate_instance(inst, check_basis_partition=False)
    assert not check
    assert any("not a matroid" in f for f in check.failures)


# --- find_basis_partition ------------------------------------------------------------

def test_partition_mcdiarmid_into_trees(mcd):
    parts = find_basis_partition(mcd, 3)
    assert parts is not None
    from rotagrid import is_disjoint_union_of_bases
    assert is_disjoint_union_of_bases(mcd, parts)


def test_partition_impossible():
    m = MatroidOracle(GraphicRep(3, ((0, 1), (0, 1), (0, 1), (1, 2))))
    assert find_basis_partition(m, 2) is None


def test_partition_wrong_divisibility(k4):
    assert find_basis_partition(k4, 4) is None


def reference_partition(oracle, parts):
    """Recursive partition search with no parallel-class rule: a test-only
    reference for the first partition `find_basis_partition` must return."""
    m, r = oracle.ground.size, oracle.rank_total
    if parts < 0 or r * parts != m:
        return None
    if parts == 0:
        return ()
    testers = [make_tester(oracle) for _ in range(parts)]
    sizes = [0] * parts
    assign = [-1] * m

    def place(e):
        if e == m:
            return True
        tried_empty = False
        for p in range(parts):
            if sizes[p] == r:
                continue
            if sizes[p] == 0:
                if tried_empty:
                    break
                tried_empty = True
            if testers[p].can_add(e):
                testers[p].push(e)
                sizes[p] += 1
                assign[e] = p
                if place(e + 1):
                    return True
                sizes[p] -= 1
                testers[p].pop(e)
        return False

    if not place(0):
        return None
    return tuple(frozenset(e for e in range(m) if assign[e] == p)
                 for p in range(parts))


def random_multigraphs(count, seed):
    """Seeded loopless multigraphs with (vertices-1)*parts <= 12 edges; some
    split into `parts` spanning trees, some do not.  (Without a split, 16
    edges can take the reference search half a second.)"""
    rng = random.Random(seed)
    for _ in range(count):
        vertices = rng.randint(2, 5)
        parts = rng.randint(1, min(4, 12 // (vertices - 1)))
        edges = []
        for _ in range((vertices - 1) * parts):
            u, w = rng.sample(range(vertices), 2)
            edges.append((min(u, w), max(u, w)))
        yield MatroidOracle(GraphicRep(vertices, tuple(edges))), parts


def partition_cases(source):
    if source == "catalog":
        return [(m, 3) for m in c3_catalog(0)]
    if source == "linear":
        return [(random_linear_matroid(n, n * n, s), n)
                for n in (3, 4, 5) for s in range(10)]
    if source == "named":
        insts = [builtin_instance(name).instance for name in
                 ("k4-c2", "oxley-j", "mcdiarmid", "u39", "odd-wheel-3")]
        return [(inst.matroid, inst.k) for inst in insts]
    return list(random_multigraphs(500, seed=7))


@pytest.mark.parametrize("source", ["catalog", "linear", "named", "multigraphs"])
def test_partition_matches_recursive_reference(source):
    cases = partition_cases(source)
    found = 0
    for oracle, parts in cases:
        want = reference_partition(oracle, parts)
        assert find_basis_partition(oracle, parts) == want
        found += want is not None
    assert found  # every source has inputs that split
    if source == "multigraphs":
        assert found < len(cases)  # and some that do not


@pytest.mark.parametrize("name,nodes", [
    ("mcdiarmid", 24), ("odd-wheel-5", 80), ("odd-wheel-7", 400)])
def test_partition_node_cap(name, nodes):
    # the search places exactly `nodes` nodes; any smaller cap gives up
    inst = builtin_instance(name).instance
    found = find_basis_partition(inst.matroid, inst.k)
    assert found is not None
    for cap in (0, nodes - 1):
        assert find_basis_partition(inst.matroid, inst.k, node_cap=cap) is None
    for cap in (nodes, 10**6):
        assert find_basis_partition(inst.matroid, inst.k, node_cap=cap) == found


def test_partition_of_empty_ground_set_places_no_node():
    empty = MatroidOracle(GraphicRep(1, ()))
    assert find_basis_partition(empty, 2, node_cap=0) == (frozenset(),) * 2


def test_odd_wheels_pass_the_hypothesis_check():
    # the check is exact and has no budget, so each wheel must split quickly
    start = time.perf_counter()
    for k in (5, 7, 9):
        inst = builtin_instance(f"odd-wheel-{k}").instance
        assert validate_instance(inst)
        parts = find_basis_partition(inst.matroid, inst.k)
        assert is_disjoint_union_of_bases(inst.matroid, parts)
    assert time.perf_counter() - start < 1.0


def test_partition_search_has_no_depth_limit():
    # 1,089 elements, more than Python's default recursion limit
    wheel = builtin_instance("odd-wheel-33").instance.matroid
    assert find_basis_partition(wheel, 33, node_cap=10_000) is None


# --- determinism & symmetry soundness --------------------------------------------------

def test_solve_deterministic():
    inst = u39_inst(rows=((0, 3), (4,), (8,)))
    a, b = solve(inst), solve(inst)
    assert (a.status, a.grid, a.count, a.nodes) == (b.status, b.grid, b.count, b.nodes)


def test_symmetry_breaking_preserves_answers():
    insts = [k4_c2_instance().instance, mcdiarmid_instance().instance,
             u39_inst(rows=((0, 4), (1,), ())),
             u39_inst(rows=((0, 1, 2), (3, 4, 5), (6, 7, 8)))]
    for inst in insts:
        plain = solve(inst, break_columns=False, break_parallel=False)
        broken = solve(inst)
        assert plain.status == broken.status


def test_monotone_row_relaxation():
    rows = ((0, 4, 8), (1, 5), (2,))
    full = u39_inst(rows=rows)
    assert solve(full).status == "SAT"
    for i in range(3):
        for drop in rows[i]:
            relaxed = list(frozenset(r) for r in rows)
            relaxed[i] = relaxed[i] - {drop}
            assert solve(u39_inst(rows=relaxed)).status == "SAT"


# --- solver == brute force on random instances -------------------------------------------

def dimensions():
    return st.sampled_from([(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])


@st.composite
def random_instances(draw):
    n, k = draw(dimensions())
    m = n * k
    v = draw(st.integers(2, min(n + 1, 4)))
    edges = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1)))
        for _ in range(m))
    oracle = MatroidOracle(GraphicRep(v, edges))
    taken: set[int] = set()
    rows = []
    for i in range(n):
        size = draw(st.integers(0, k))
        pool = sorted(set(range(m)) - taken)
        row = frozenset(draw(st.permutations(pool))[:size]) if pool else frozenset()
        taken |= row
        rows.append(row)
    return GridInstance(oracle, n, k, tuple(rows), NOT_REQUIRED)


@given(random_instances())
@settings(max_examples=120, deadline=None)
def test_count_matches_brute_force(inst):
    assert count_solutions(inst) == brute_force_count(inst)


@given(random_instances())
@settings(max_examples=80, deadline=None)
def test_decision_consistent_with_count(inst):
    report = solve(inst)
    count = count_solutions(inst)
    assert (report.status == "SAT") == (count > 0)
    if report.grid is not None:
        assert validate_grid(inst, report.grid)


def test_nodes_counted():
    report = solve(u39_inst())
    assert report.nodes >= 9
    assert report.millis >= 0.0


# The exact node counts pin the search tree: the cells, the candidates and
# their order, and every prune.  A kernel change that keeps the search order
# must keep every one of them.
@pytest.mark.parametrize("name,mode,symmetry,nodes", [
    ("k4-c2", "decide", True, 14),
    ("oxley-j", "decide", True, 27),
    ("mcdiarmid", "decide", True, 29),
    ("odd-wheel-5", "decide", True, 596),
    ("odd-wheel-7", "decide", True, 14_181),
    ("odd-wheel-9", "decide", True, 413_814),
    ("k4-c2", "count", True, 18),
    ("oxley-j", "count", True, 43),
    ("mcdiarmid", "count", True, 278),
    ("k4-c2", "decide", False, 18),
    ("oxley-j", "decide", False, 43),
    ("mcdiarmid", "decide", False, 278),
])
def test_node_counts_pin_the_search_tree(name, mode, symmetry, nodes):
    report = solve(builtin_instance(name).instance, mode,
                   break_columns=symmetry, break_parallel=symmetry)
    assert report.status == "UNSAT"
    assert report.nodes == nodes


def test_instance_deeper_than_the_recursion_limit():
    cells = 1500
    parallel = MatroidOracle(GraphicRep(2, ((0, 1),) * cells))
    inst = GridInstance(parallel, 1, cells, (frozenset(),), NOT_REQUIRED)
    report = solve(inst)
    assert report.status == "SAT"
    assert report.nodes == cells
    assert validate_grid(inst, report.grid)


@pytest.mark.parametrize("budget,status,nodes", [
    (596, "UNSAT", 596),
    (595, "UNKNOWN", 595),
    (0, "UNKNOWN", 0),
])
def test_node_budget(budget, status, nodes):
    report = solve(builtin_instance("odd-wheel-5").instance,
                   node_budget=budget)
    assert (report.status, report.nodes) == (status, nodes)
    assert report.grid is None and report.count is None


def test_node_budget_never_reports_a_partial_count():
    inst = u39_inst()
    report = solve(inst, mode="count", node_budget=100)
    assert (report.status, report.count, report.grid) == ("UNKNOWN", None, None)
    assert report.nodes == 100
    with pytest.raises(ValueError):
        solve(inst, node_budget=-1)
