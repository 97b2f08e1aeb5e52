"""Solver tests: named counterexamples, solver-vs-brute-force equivalence,
determinism, and the exactness of every pruning rule."""

import hashlib
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotagrid.grid
from audits import enumerate_bases
from rotagrid import (NOT_REQUIRED, REQUIRED, BasesRep, GraphicRep,
                      GridInstance, LinearRep, MatroidOracle,
                      brute_force_count, builtin_instance, c3_catalog,
                      descent_step, find_basis_partition,
                      initial_double_partition, is_disjoint_union_of_bases,
                      k4_c2_instance, mcdiarmid_instance, mu,
                      random_graphic_matroid, random_linear_matroid,
                      random_rota_instance, solve, splits_into_bases,
                      uniform_matroid, validate_grid, validate_instance,
                      verify_c3_for_matroid)
from rotagrid.matroid import (BasesTester, GraphicTester, LinearTester,
                              TableTester)
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
    assert solve(inst, mode="count").count == 0
    assert solve(inst).status == "UNSAT"


# --- counting ------------------------------------------------------------------

def test_k4_c2_count_zero():
    inst = k4_c2_instance().instance
    assert solve(inst, mode="count").count == 0
    assert brute_force_count(inst) == 0


def test_u24_count_24():
    m = uniform_matroid(2, 4)
    inst = GridInstance(m, 2, 2, (frozenset(), frozenset()))
    assert solve(inst, mode="count").count == 24
    assert brute_force_count(inst) == 24


def test_mcdiarmid_count_zero():
    inst = mcdiarmid_instance().instance
    assert solve(inst, mode="count").count == 0


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
    m = MatroidOracle(BasesRep(2, [{0, 1}, {2, 3}]))
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
    """Recursive backtracking partition search, sharing no code with src: a
    test-only reference for the least partition `find_basis_partition` must
    return."""
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


@pytest.mark.parametrize("name", ["mcdiarmid", "odd-wheel-5", "odd-wheel-7"])
def test_partition_node_cap(name):
    # `node_cap` is accepted and ignored: no budget makes the search give up
    inst = builtin_instance(name).instance
    found = find_basis_partition(inst.matroid, inst.k)
    assert is_disjoint_union_of_bases(inst.matroid, found)
    for cap in (0, 10**6):
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
    start = time.perf_counter()
    parts = find_basis_partition(wheel, 33)
    assert time.perf_counter() - start < 1.0
    assert is_disjoint_union_of_bases(wheel, parts)


def test_least_partitions_of_the_odd_wheels_are_pinned():
    digest = hashlib.sha256()
    for k in range(3, 34, 2):
        inst = builtin_instance(f"odd-wheel-{k}").instance
        parts = find_basis_partition(inst.matroid, inst.k)
        digest.update(repr([sorted(p) for p in parts]).encode())
    assert digest.hexdigest() == ("1e939554fd06f1ef621f8f597df80064"
                                  "5fe8a7c23216f709832a1246ad5721e8")


@pytest.mark.parametrize("k,pinned_all,searches", [(9, 57, 8), (33, 993, 32)])
def test_pinning_counts_its_single_part_searches(monkeypatch, k, pinned_all,
                                                 searches):
    # a single-part search is an augmenting-path insertion whose first step
    # may enter one given part: the question each pin asks of a part.
    # Pinning every element asked it `pinned_all` times; the tail fit over
    # the pins ends the loop once the first pins have taken their parts
    counts = []
    insert = rotagrid.grid._Parts.insert

    def counted(self, s, first):
        counts.append(len(first) == 1)
        return insert(self, s, first)

    monkeypatch.setattr(rotagrid.grid._Parts, "insert", counted)
    inst = builtin_instance(f"odd-wheel-{k}").instance
    assert is_disjoint_union_of_bases(
        inst.matroid, find_basis_partition(inst.matroid, inst.k))
    assert sum(counts) == searches


# --- splits_into_bases ---------------------------------------------------------------

@st.composite
def split_draws(draw):
    """A graphic, linear or BASES matroid, a number of parts, and `parts`
    times its rank elements of it: the inputs of the partition lookahead."""
    kind = draw(st.sampled_from(["graphic", "linear", "bases"]))
    dim = draw(st.integers(1, 3))
    parts = draw(st.integers(1, 12 // dim))
    m = parts * dim + draw(st.integers(0, 3))
    if kind == "linear" or kind == "bases" and draw(st.booleans()):
        # entries in -1..1: parallel columns, dependent triples and loops
        columns = [tuple(draw(st.integers(-1, 1)) for _ in range(dim))
                   for _ in range(m)]
        oracle = MatroidOracle(LinearRep(dim, tuple(columns)))
    else:
        # dim + 1 vertices: a loopless multigraph of rank at most dim
        edges = []
        for _ in range(m):
            u = draw(st.integers(0, dim))
            w = draw(st.integers(0, dim - 1))
            edges.append((u, w + (w >= u)))
        oracle = MatroidOracle(GraphicRep(dim + 1, tuple(edges)))
    if kind == "bases":
        oracle = MatroidOracle(
            BasesRep(oracle.rank_total, enumerate_bases(oracle)),
            ground_size=m)
    chosen = draw(st.permutations(range(m)))[:parts * oracle.rank_total]
    return oracle, chosen, parts


def test_splits_into_bases_matches_the_partition_search():
    # both answers are exact, so they must agree on every draw, and the
    # draws must reach both answers; the reference shares no code with src
    seen = set()

    @given(split_draws())
    @settings(max_examples=400, deadline=None)
    def agree(case):
        oracle, chosen, parts = case
        mask = sum(1 << e for e in chosen)
        want = reference_partition(oracle.restrict(chosen), parts) is not None
        assert splits_into_bases(oracle, mask, parts) == want
        seen.add(want)

    agree()
    assert seen == {True, False}


def test_least_partition_matches_the_recursive_reference(monkeypatch):
    # the inputs must reach no split, a first fit that is already the
    # answer, answers for which pinning moves an element, and tail fits
    # over the pins that complete the answer and that fall back to pinning
    paths, tails = [], []
    insert, complete = rotagrid.grid._Parts.insert, rotagrid.grid._Parts.complete

    def counted(self, s, first):
        reached = insert(self, s, first)
        # a tuple `first` is a pinning move's single part
        paths.append((type(first) is tuple, reached is None))
        return reached

    def fitted(self, start, order):
        done = complete(self, start, order)
        tails.append(done is not None)
        return done

    monkeypatch.setattr(rotagrid.grid._Parts, "insert", counted)
    monkeypatch.setattr(rotagrid.grid._Parts, "complete", fitted)
    seen = set()

    def check(oracle, parts):
        want = reference_partition(oracle, parts)
        paths.clear()
        tails.clear()
        assert find_basis_partition(oracle, parts) == want
        seen.add("none" if want is None else "moved" if (True, True) in paths
                 else "first fit" if not paths else "augmented")
        seen.update("tail" if done else "fallback" for done in tails)

    @given(split_draws())
    @settings(max_examples=400, deadline=None)
    def agree(case):
        oracle, chosen, parts = case
        check(oracle.restrict(chosen), parts)

    agree()
    for oracle, parts in random_multigraphs(500, seed=7):
        check(oracle, parts)
    assert {"none", "first fit", "moved", "tail", "fallback"} <= seen


def test_splits_into_bases_follows_every_circuit_member():
    # the greedy fill leaves element 5 over, and the split is found only by
    # exchanges through every member of each circuit met; a search that
    # follows one member per circuit answers no here
    cols = [(1, 1, -1), (1, -1, 1), (0, -1, 0), (1, 1, 0), (0, -1, 0), (1, 0, -1)]
    oracle = MatroidOracle(LinearRep(3, tuple(cols)))
    assert find_basis_partition(oracle, 2) is not None
    assert splits_into_bases(oracle, 0b111111, 2)


def test_splits_into_bases_rejects_wrong_sizes(u39):
    everything = (1 << 9) - 1
    assert splits_into_bases(u39, everything, 3)
    assert not splits_into_bases(u39, everything, 2)
    assert not splits_into_bases(u39, everything >> 1, 3)
    assert not splits_into_bases(u39, everything, -3)
    assert splits_into_bases(u39, 0, 0)


def test_splits_into_bases_on_the_full_odd_wheel_33():
    # 1,089 elements in 33 spanning trees; the partition search gives up
    wheel = builtin_instance("odd-wheel-33").instance.matroid
    start = time.perf_counter()
    assert splits_into_bases(wheel, (1 << wheel.ground.size) - 1, 33)
    assert time.perf_counter() - start < 1.0


# --- the lookahead's certificates and repaired partitions ----------------------------

@pytest.fixture
def audited(monkeypatch):
    """Check every lookahead answer against the certificates' contract.

    Each certificate (X, rho) stored after a failed query into `parts` parts
    must have |X| = parts * rho + 1 with rho = r(X) by the oracle's own rank,
    and each query refused with no partition run must also be refused by a
    fresh `splits_into_bases`.  Returns the tally of both events.
    """
    tally = {"stored": 0, "refused": 0}
    query, settle = rotagrid.grid._Lookahead.query, rotagrid.grid._Parts.settle
    runs = []

    def counted(state):
        runs.append(state)
        return settle(state)

    def checked(look, mask, parts):
        before = len(look.certs)
        runs.clear()
        answer = query(look, mask, parts)
        fresh = len(runs)
        if not fresh:
            assert not answer
            assert not splits_into_bases(look.oracle, mask, parts)
            tally["refused"] += 1
        assert len(look.certs) == before + (fresh == 1 and not answer)
        for x, rho in look.certs[before:]:
            assert x.bit_count() == parts * rho + 1
            assert look.oracle.rank(e for e in range(x.bit_length())
                                    if x >> e & 1) == rho
            tally["stored"] += 1
        return answer

    monkeypatch.setattr(rotagrid.grid._Parts, "settle", counted)
    monkeypatch.setattr(rotagrid.grid._Lookahead, "query", checked)
    return tally


@pytest.mark.parametrize("name", ["odd-wheel-5", "odd-wheel-7", "odd-wheel-9"])
def test_certificates_of_a_solve_are_sound(audited, name):
    assert solve(builtin_instance(name).instance).status == "UNSAT"
    assert audited["stored"] and audited["refused"]


@st.composite
def query_draws(draw):
    """A `split_draws` matroid with a run of lookahead queries on it: part
    counts up to the drawn one, each with that many times the rank
    elements."""
    oracle, chosen, parts = draw(split_draws())
    r, m = oracle.rank_total, oracle.ground.size
    queries = [(sum(1 << e for e in chosen), parts)]
    for _ in range(draw(st.integers(1, 8))):
        p = draw(st.integers(1, parts))
        picked = draw(st.permutations(range(m)))[:p * r]
        queries.append((sum(1 << e for e in picked), p))
    return oracle, queries


def test_certificates_refuse_only_what_does_not_split(audited):
    # queries share one lookahead, as the columns of a solve do, and it
    # must both store certificates and refuse queries with them
    @given(query_draws())
    @settings(max_examples=300, deadline=None)
    def sound(case):
        oracle, queries = case
        look = rotagrid.grid._Lookahead(oracle, oracle.class_ids())
        for mask, parts in queries:
            assert look.query(mask, parts) == splits_into_bases(oracle, mask, parts)

    sound()
    assert audited["stored"] and audited["refused"]


@st.composite
def sibling_draws(draw):
    """A `split_draws` matroid with lookahead queries that arrive as sibling
    columns do: most masks swap one to three elements of the one before,
    and now and then a query has an unrelated mask or another part count."""
    oracle, _, most = draw(split_draws())
    r, m = oracle.rank_total, oracle.ground.size
    parts = draw(st.integers(1, most))
    mask = sum(1 << e for e in draw(st.permutations(range(m)))[:parts * r])
    queries = [(mask, parts)]
    for _ in range(draw(st.integers(1, 12))):
        inside = [e for e in range(m) if mask >> e & 1]
        outside = [e for e in range(m) if not mask >> e & 1]
        move = draw(st.sampled_from(("swap",) * 6 + ("unrelated", "parts")))
        if move == "swap" and inside and outside:
            j = draw(st.integers(1, min(3, len(inside), len(outside))))
            swapped = (draw(st.permutations(inside))[:j]
                       + draw(st.permutations(outside))[:j])
            mask ^= sum(1 << e for e in swapped)
        else:
            if move == "parts":
                parts = draw(st.integers(1, most))
            mask = sum(1 << e
                       for e in draw(st.permutations(range(m)))[:parts * r])
        queries.append((mask, parts))
    return oracle, queries


def test_repaired_partitions_answer_as_fresh_splits(monkeypatch):
    # a repair drops the elements that left the mask and settles the ones
    # that joined; every answer must be a fresh split's, and the draws must
    # repair states that lost elements, with both answers
    repair = rotagrid.grid._Parts.repair
    seen = set()

    def watched(state, gone, new):
        seen.add("lost" if gone else "kept")
        return repair(state, gone, new)

    monkeypatch.setattr(rotagrid.grid._Parts, "repair", watched)

    @given(sibling_draws())
    @settings(max_examples=300, deadline=None)
    def exact(case):
        oracle, queries = case
        look = rotagrid.grid._Lookahead(oracle, oracle.class_ids())
        for mask, parts in queries:
            answer = look.query(mask, parts)
            assert answer == splits_into_bases(oracle, mask, parts)
            seen.add(answer)

    exact()
    assert {"lost", True, False} <= seen


def test_partition_logs_are_pinned(monkeypatch):
    # the order of the augmenting-path search decides which partition each
    # state holds, so a change to it can move certificates, least partitions
    # and nodes; these digests fail on such a change even when no verdict
    # moves.  The lookahead log of two odd-wheel decides: each query's mask,
    # part count and answer, with the certificate it stores; the insertion
    # log of the 100 benchmark descent draws: each (s, first parts, placed)
    query, insert = rotagrid.grid._Lookahead.query, rotagrid.grid._Parts.insert
    log = []

    def queried(look, mask, parts):
        before = len(look.certs)
        answer = query(look, mask, parts)
        log.append((mask, parts, answer, look.certs[before:]))
        return answer

    def inserted(state, s, first):
        reached = insert(state, s, first)
        log.append((s, tuple(first), reached is None))
        return reached

    monkeypatch.setattr(rotagrid.grid._Lookahead, "query", queried)
    for name in ("odd-wheel-7", "odd-wheel-9"):
        assert solve(builtin_instance(name).instance).status == "UNSAT"
    lookahead = len(log), hashlib.sha256(repr(log).encode()).hexdigest()
    monkeypatch.undo()
    log.clear()
    monkeypatch.setattr(rotagrid.grid._Parts, "insert", inserted)
    for n in range(3, 7):
        for s in range(25):
            random_rota_instance(n, s)
    inserts = len(log), hashlib.sha256(repr(log).encode()).hexdigest()
    assert lookahead == (348, "33f6230494fe3fa84728f48afe7b1e5f"
                              "52286b6fc01453c040c08d0ac9eb06ee")
    assert inserts == (62, "5799cb9fe44909940af1db400a42f23d"
                           "747e36a97e77177a99fa793a88c20474")


# --- determinism & symmetry soundness --------------------------------------------------

def test_solve_deterministic():
    inst = u39_inst(rows=((0, 3), (4,), (8,)))
    a, b = solve(inst), solve(inst)
    assert (a.status, a.grid, a.count, a.nodes) == (b.status, b.grid, b.count, b.nodes)


@pytest.mark.parametrize("make", [
    lambda: uniform_matroid(3, 9), lambda: random_linear_matroid(3, 9, 0),
    lambda: random_graphic_matroid(4, 9, 0)], ids=["bases", "linear", "graphic"])
def test_only_a_caller_that_needs_every_rank_builds_a_table(make):
    # the solver, the partition searches, loops and parallel classes run on
    # the representation's tester; the sweep reads the whole table
    oracle = make()
    inst = GridInstance(oracle, 3, 3, (frozenset({0}), frozenset(), frozenset()))
    for mode in ("decide", "count"):
        solve(inst, mode=mode)
    assert find_basis_partition(oracle, 3) is not None
    assert splits_into_bases(oracle, (1 << 9) - 1, 3)
    oracle.loops()
    oracle.parallel_classes()
    assert oracle._table is None
    verify_c3_for_matroid(oracle)
    assert oracle._table is not None


def test_symmetry_breaking_preserves_answers():
    insts = [k4_c2_instance().instance, mcdiarmid_instance().instance,
             u39_inst(rows=((0, 4), (1,), ())),
             u39_inst(rows=((0, 1, 2), (3, 4, 5), (6, 7, 8)))]
    for inst in insts:
        plain = solve(inst, symmetry=False)
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

SMALL_SHAPES = [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)]


@st.composite
def random_instances(draw, shapes=SMALL_SHAPES, loops=True):
    n, k = draw(st.sampled_from(shapes))
    m = n * k
    v = draw(st.integers(2, min(n + 1, 4)))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, v - 1))
        if loops:
            edges.append((u, draw(st.integers(0, v - 1))))
        else:
            w = draw(st.integers(0, v - 2))
            edges.append((u, w + (w >= u)))
    oracle = MatroidOracle(GraphicRep(v, tuple(edges)))
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
    assert solve(inst, mode="count").count == brute_force_count(inst)


def test_count_matches_brute_force_under_the_lookahead(monkeypatch):
    # at 2 x 4 the solver runs the partition lookahead on entering column 1
    # (a loop would end the solve before it); the lookahead ignores rows and
    # symmetry, so it must keep counts exact, and the draws must make it
    # answer both ways
    answers = set()
    query = rotagrid.grid._Lookahead.query

    def recorded(look, mask, parts):
        # every answer, whether settled or refused by a certificate
        answer = query(look, mask, parts)
        answers.add(answer)
        return answer

    monkeypatch.setattr(rotagrid.grid._Lookahead, "query", recorded)

    @given(random_instances([(2, 4)], loops=False))
    @settings(max_examples=60, deadline=None)
    def exact(inst):
        assert solve(inst, mode="count").count == brute_force_count(inst)

    exact()
    assert answers == {True, False}


@given(random_instances())
@settings(max_examples=80, deadline=None)
def test_decision_consistent_with_count(inst):
    report = solve(inst)
    count = solve(inst, mode="count").count
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
    # without the partition lookahead: 596, 14,181 and 413,814 nodes, and
    # odd-wheel-11 undecided after 3,000,000.  Past the effort gate the
    # larger wheels also test two columns and cache residuals; before it
    # they took 2,415, 9,792, 38,811 and 152,996 nodes
    ("odd-wheel-5", "decide", True, 117),
    ("odd-wheel-7", "decide", True, 564),
    ("odd-wheel-9", "decide", True, 1_380),
    ("odd-wheel-11", "decide", True, 4_736),
    ("odd-wheel-13", "decide", True, 15_410),
    ("odd-wheel-15", "decide", True, 48_293),
    ("k4-c2", "count", True, 18),
    ("oxley-j", "count", True, 43),
    ("mcdiarmid", "count", True, 278),
    ("k4-c2", "decide", False, 18),
    ("oxley-j", "decide", False, 43),
    ("mcdiarmid", "decide", False, 278),
])
def test_node_counts_pin_the_search_tree(name, mode, symmetry, nodes):
    report = solve(builtin_instance(name).instance, mode, symmetry=symmetry)
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
    (117, "UNSAT", 117),
    (116, "UNKNOWN", 116),
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


@pytest.mark.parametrize("budget,status,nodes", [
    (1_380, "UNSAT", 1_380),
    (1_379, "UNKNOWN", 1_379),
    (1_000, "UNKNOWN", 1_000),
])
def test_node_budget_across_the_effort_gate(budget, status, nodes):
    # odd-wheel-9 passes the gate at 1,000 nodes: the budget still stops
    # the search at the node it names, on either side of the gate
    report = solve(builtin_instance("odd-wheel-9").instance,
                   node_budget=budget)
    assert (report.status, report.nodes) == (status, nodes)


# --- the effort gate ----------------------------------------------------------------------

EFFORT = rotagrid.grid._EFFORT
GATE_SHAPES = [(n, k) for n in range(1, 7) for k in range(2, 13) if n * k <= 12]


@st.composite
def gate_draws(draw):
    """A linear, graphic or uniform instance on n * k <= 12 elements (a
    uniform one on at most 9), with disjoint prescribed rows."""
    kind = draw(st.sampled_from(["linear", "graphic", "uniform"]))
    n, k = draw(st.sampled_from([(n, k) for n, k in GATE_SHAPES
                                 if kind != "uniform" or n * k <= 9]))
    m = n * k
    if kind == "uniform":
        oracle = uniform_matroid(n, m)
    elif kind == "linear":
        # entries in -1..1: parallel columns, dependent sets and loops
        oracle = MatroidOracle(LinearRep(n, tuple(
            tuple(draw(st.integers(-1, 1)) for _ in range(n))
            for _ in range(m))))
    else:
        edges = []
        for _ in range(m):
            u = draw(st.integers(0, n))
            w = draw(st.integers(0, n - 1))
            edges.append((u, w + (w >= u)))
        oracle = MatroidOracle(GraphicRep(n + 1, tuple(edges)))
    order = draw(st.permutations(range(m)))
    rows, at = [], 0
    for _ in range(n):
        size = draw(st.integers(0, k))
        rows.append(frozenset(order[at:at + size]))
        at += size
    return GridInstance(oracle, n, k, tuple(rows), NOT_REQUIRED)


def test_the_effort_gate_keeps_every_answer(monkeypatch):
    # with the gate open from the first node and at its default, decide,
    # decide without symmetry breaking and count agree with each other and
    # with brute force; pruning is sound and the order fixed, so both gates
    # return the same grid and count, the open gate in no more nodes
    seen = set()

    def reports(inst, effort):
        monkeypatch.setattr(rotagrid.grid, "_EFFORT", effort)
        return [solve(inst), solve(inst, symmetry=False),
                solve(inst, mode="count")]

    def check(inst):
        early, late = reports(inst, 0), reports(inst, EFFORT)
        for a, b in zip(early, late):
            assert (a.status, a.grid, a.count) == (b.status, b.grid, b.count)
            assert a.nodes <= b.nodes
        decide, plain, count = late
        assert decide.status == plain.status == count.status
        assert (decide.status == "SAT") == (count.count > 0)
        for report in late:
            assert report.grid is None or validate_grid(inst, report.grid)
        if inst.matroid.ground.size <= 9:
            assert count.count == brute_force_count(inst)
        seen.add(decide.status)
        seen.update(["gated"] * (count.nodes > EFFORT))

    @given(gate_draws())
    @settings(max_examples=80, deadline=None)
    def agree(inst):
        check(inst)

    agree()
    assert seen == {"SAT", "UNSAT", "gated"}
    for name in ("k4-c2", "oxley-j"):
        check(builtin_instance(name).instance)
    # odd-wheel-5's count and undirected decide take 2,065,120 and 2,064,942
    # nodes (about 10 s each); CI counts it, the decide runs here
    inst = builtin_instance("odd-wheel-5").instance
    for effort in (0, EFFORT):
        monkeypatch.setattr(rotagrid.grid, "_EFFORT", effort)
        assert solve(inst).status == "UNSAT"


def test_solves_under_the_effort_gate_keep_their_nodes(monkeypatch):
    # a solve that places fewer than EFFORT nodes runs as with no gate at
    # all; u39 counts the same 216 grids in 1,056 nodes where the gate,
    # opened at 1,000, saves 9 of 1,065
    u39 = [u39_inst(rows) for rows in (((), (), ()), ((0, 4, 8), (1, 5), (2,)),
                                       ((0, 1, 2), (3, 4, 5), (6, 7, 8)))]
    mcd = mcdiarmid_instance().instance
    cases = [(inst, "decide", True) for inst in u39] + [
        (mcd, "decide", True), (mcd, "count", True), (mcd, "decide", False)]
    want = [9, 9, 9, 29, 278, 278]
    got = [solve(inst, mode, symmetry=sym).nodes for inst, mode, sym in cases]
    assert got == want
    monkeypatch.setattr(rotagrid.grid, "_EFFORT", 10**9)
    assert [solve(inst, mode, symmetry=sym).nodes
            for inst, mode, sym in cases] == want
    assert solve(u39[2], "count").nodes == 1_065
    monkeypatch.undo()
    report = solve(u39[2], "count")
    assert (report.count, report.nodes) == (216, 1_056)


def reference_reach(oracle, held, free, s, first):
    """What an augmenting-path search from s reaches, by rank tests alone:
    y, free in part j, is reached from a reached x in no part j (x = s
    enters only the parts in `first`) when part j - y + x is independent.
    `held[j]` is part j, its pins and free members; `free[j]` the latter."""
    reached, frontier = {s}, [s]
    while frontier:
        x = frontier.pop()
        for j in (first if x == s else range(len(held))):
            if x in held[j]:
                continue
            for y in free[j] - reached:
                if oracle.rank(held[j] - {y} | {x}) == len(held[j]):
                    reached.add(y)
                    frontier.append(y)
    return reached


def test_a_failed_insertion_reaches_its_exchange_closure(monkeypatch):
    # the scan that skips a parallel copy of an element already scanned
    # against every part must still reach every element the exchange graph
    # does; the draws must fail insertions whose reach holds parallel copies
    insert = rotagrid.grid._Parts.insert
    tally = {"failed": 0, "copies": 0}

    def checked(state, s, first):
        held = [set(p) | set(f) for p, f in zip(state.pinned, state.free)]
        free = [set(f) for f in state.free]
        reached = insert(state, s, first)
        if reached is not None:
            assert set(reached) == reference_reach(state.oracle, held, free,
                                                   s, first)
            ids = [state.classes[z] for z in reached]
            tally["failed"] += 1
            tally["copies"] += len(set(ids)) < len(ids)
        return reached

    monkeypatch.setattr(rotagrid.grid._Parts, "insert", checked)
    monkeypatch.setattr(rotagrid.grid, "_EFFORT", 0)
    for name in ("odd-wheel-5", "odd-wheel-7"):
        assert solve(builtin_instance(name).instance).status == "UNSAT"

    @given(query_draws())
    @settings(max_examples=150, deadline=None)
    def closed(case):
        oracle, queries = case
        look = rotagrid.grid._Lookahead(oracle, oracle.class_ids())
        for mask, parts in queries:
            look.query(mask, parts)

    closed()
    assert tally["failed"] and tally["copies"]


# --- one tester call per independence step ----------------------------------------------

def test_no_loop_tests_an_element_it_then_pushes(monkeypatch):
    # a loop that pushes what it tests makes one `add`; a `push(e)` right
    # after a `can_add(e)` on the same tester tests e twice.  The calls a
    # tester makes on itself (`push` through `add`) are not recorded.
    seen, repeats, depth = {}, [], [0]

    def wrap(name, method):
        def recorded(tester, e):
            if not depth[0]:
                if name == "push" and seen.get(id(tester), (None,))[1:] == (
                        "can_add", e):
                    repeats.append((type(tester).__name__, e))
                seen[id(tester)] = tester, name, e   # keeps each id unique
            depth[0] += 1
            try:
                return method(tester, e)
            finally:
                depth[0] -= 1
        return recorded

    for cls in (LinearTester, GraphicTester, TableTester, BasesTester):
        for name in ("can_add", "add", "push", "pop"):
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, wrap(name, getattr(cls, name)))
    assert solve(builtin_instance("odd-wheel-5").instance).status == "UNSAT"
    inst = random_rota_instance(5, 0)
    dp = initial_double_partition(inst)
    assert mu(descent_step(inst, dp)[0]) < mu(dp)
    assert verify_c3_for_matroid(uniform_matroid(3, 9)).unsat == 0
    assert {type(t) for t, _, _ in seen.values()} == {
        LinearTester, GraphicTester, TableTester, BasesTester}
    assert repeats == []
