"""Solver tests: named counterexamples, solver-vs-brute-force equivalence,
determinism, and the exactness of every pruning rule."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotagrid import (NOT_REQUIRED, REQUIRED, BasesRep, GraphicRep,
                      GridInstance, MatroidOracle, brute_force_count,
                      count_solutions,
                      find_basis_partition, k4_c2_instance,
                      mcdiarmid_instance, solve, uniform_matroid,
                      validate_grid, validate_instance)


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
