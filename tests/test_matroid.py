"""Oracle-level tests: ranks, axioms, restriction, testers.

Reference values are computed by routes independent of the package:
determinantal rank (nonzero minors, determinants by cofactor expansion) for
vector matroids, cycle stripping for graphic ones, endpoint pairs for
graphic loops and parallel classes, and a pairwise tester walk for the
parallel classes of every representation.
"""

import re
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import enumerate_bases, rank_axiom_violations
from rotagrid import (BasesRep, GraphicRep, GroundSet, LinearRep,
                      MatroidOracle, find_exchange_violation,
                      is_disjoint_union_of_bases, random_linear_matroid,
                      uniform_matroid)
from rotagrid import matroid as matroid_module
from rotagrid.matroid import (BasesTester, GraphicTester, LinearTester,
                              TableTester, _bits)
from rotagrid.matroid import tester_for as make_tester

J_VECTORS = [(-2, 3, 0, 1), (0, 0, 1, 1), (0, 2, 0, 1), (1, 0, 3, 1),
             (1, 0, 0, 1), (0, 1, 2, 1), (0, 1, 0, 1), (4, 0, 0, 1)]


# --- independent reference implementations ---------------------------------

def det(rows):
    """Exact determinant by cofactor expansion along the first row, each
    sub-determinant memoized by the columns it keeps (reference only)."""
    n = len(rows)
    memo = {0: 1}

    def expand(keep):
        # rows n - popcount(keep) .. n-1 on the columns in the mask `keep`
        if keep not in memo:
            row = rows[n - keep.bit_count()]
            total, sign = 0, 1
            for j in range(n):
                if keep >> j & 1:
                    if row[j]:
                        total += sign * row[j] * expand(keep ^ 1 << j)
                    sign = -sign
            memo[keep] = total
        return memo[keep]

    return expand((1 << n) - 1)


def minor_rank(vectors):
    """Rank as the largest size of a nonsingular square submatrix."""
    d = len(vectors[0])
    for size in range(min(d, len(vectors)), 0, -1):
        for cols in combinations(vectors, size):
            for dims in combinations(range(d), size):
                if det([[v[i] for i in dims] for v in cols]) != 0:
                    return size
    return 0


def has_cycle(vertices, edges):
    """DFS-free cycle test: repeatedly strip degree-<=1 endpoints."""
    edges = list(edges)
    changed = True
    while changed and edges:
        degree = {}
        for u, w in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[w] = degree.get(w, 0) + 1
        changed = False
        kept = []
        for u, w in edges:
            if u != w and (degree[u] == 1 or degree[w] == 1):
                changed = True
            else:
                kept.append((u, w))
        edges = kept
    return bool(edges)


def reference_parallel_classes(oracle):
    """Pairwise walk: each unplaced non-loop e collects every later unplaced f
    that a tester holding e cannot add, i.e. rank{e, f} = 1."""
    m = oracle.ground.size
    placed = set(oracle.loops())
    groups = []
    for e in range(m):
        if e in placed:
            continue
        tester = make_tester(oracle)
        tester.push(e)
        group = (e, *(f for f in range(e + 1, m)
                      if f not in placed and not tester.can_add(f)))
        placed.update(group)
        groups.append(group)
    return tuple(groups)


def reference_rank_table(oracle):
    """The plain depth-first walk: one can_add for each of the 2^m - 1
    non-empty masks, with no shortcut at the ceiling."""
    m = oracle.ground.size
    table = [0] * (1 << m)
    tester = make_tester(oracle)

    def extend(mask, start):
        for e in range(start, m):
            sub = mask | 1 << e
            grows = tester.can_add(e)
            table[sub] = table[mask] + grows
            if grows:
                tester.push(e)
            extend(sub, e + 1)
            if grows:
                tester.pop(e)

    extend(0, 0)
    return table


def reference_exchange_violation(family):
    """The frozenset scan: pairs (A, B) in the order of their sorted
    elements, and the first x in A - B that nothing in B - A replaces."""
    fam = {frozenset(b) for b in family}
    ordered = sorted(fam, key=sorted)
    for a in ordered:
        for b in ordered:
            for x in a - b:
                rest = a - {x}
                if not any(rest | {y} in fam for y in b - a):
                    return (a, x, b)
    return None


# --- rank ------------------------------------------------------------------

def test_rank_uniform_capped(u24):
    assert u24.rank({0, 1, 2}) == 2


def test_rank_k4_triangle(k4):
    # edges 23, 24, 34 form a 3-cycle on vertices {2,3,4}
    assert k4.rank({3, 4, 5}) == 2


def test_rank_j_full_ground():
    j = MatroidOracle(LinearRep(4, tuple(J_VECTORS)))
    assert minor_rank(J_VECTORS) == 4
    assert j.rank(range(8)) == 4


def test_rank_rejects_out_of_range(k4):
    with pytest.raises(IndexError):
        k4.rank({0, 6})
    for bad in ({0, 6}, {-1, 2}):
        with pytest.raises(IndexError, match="outside ground set"):
            k4.restrict(bad)


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"],
                         ids=["float", "decimal", "string"])
def test_oracle_and_tester_refuse_inexact_entries(bad):
    # scaling a column to integers is the one exactness gate: only an int or
    # a Fraction passes, and the message recommends nothing else
    refusal = f"^refusing inexact entry {re.escape(repr(bad))}; use int or Fraction$"
    with pytest.raises(TypeError, match=refusal):
        MatroidOracle(LinearRep(2, ((bad, 1), (1, 0))))
    with pytest.raises(TypeError, match=refusal):
        LinearTester([(1, 0), (0, bad)])


# --- independence / bases ----------------------------------------------------

def test_independent_non_incident_pair(k4):
    assert k4.is_independent({0, 5})          # 12, 34


def test_parallel_copies_dependent(mcd):
    assert not mcd.is_independent({2, 6})     # 14, 14'


def test_independent_j_pair(oxley_j):
    assert oxley_j.is_independent({0, 1})     # (-2,3,0,1), (0,0,1,1)
    assert minor_rank([J_VECTORS[0], J_VECTORS[1]]) == 2


def test_is_basis_star_vs_triangle(k4):
    assert k4.is_basis({0, 1, 2})             # star at vertex 1
    assert not k4.is_basis({0, 1, 3})         # triangle 12, 13, 23


def test_uniform_every_subset_is_basis(u39):
    for c in combinations(range(9), 3):
        assert u39.is_basis(c)


# --- restriction -------------------------------------------------------------

def test_restrict_identity(k4):
    sub = k4.restrict(range(6))
    assert sub.parent_elements == tuple(range(6))
    for size in range(7):
        for c in combinations(range(6), size):
            assert sub.rank(c) == k4.rank(c)


def test_restrict_independent_set(k4):
    sub = k4.restrict({0, 1, 2})
    assert sub.rank_total == 3


def test_restrict_uniform_subset_sweep(u39):
    keep = [0, 2, 3, 5, 7, 8]
    sub = u39.restrict(keep)
    for size in range(7):
        for c in combinations(range(6), size):
            assert sub.rank(c) == min(len(c), 3)


def test_restrict_matches_parent_on_all_subsets(mcd):
    keep = sorted({0, 2, 4, 6, 8})
    sub = mcd.restrict(keep)
    for size in range(len(keep) + 1):
        for c in combinations(range(len(keep)), size):
            parent = [sub.parent_elements[e] for e in c]
            assert sub.rank(c) == mcd.rank(parent)


def test_restrict_linear_keeps_exactness(oxley_j):
    sub = oxley_j.restrict({0, 1, 4, 6})
    assert isinstance(sub.rep, LinearRep)
    assert sub.rank_total == minor_rank([J_VECTORS[i] for i in (0, 1, 4, 6)])


def test_rank_and_restrict_are_linear_in_their_elements():
    # one basis {0} of rank 1 among a million elements; ORing each bit into
    # a growing mask took 5.5 s for the rank and 9 s for the restriction
    m = 1_000_000
    big = MatroidOracle(BasesRep(1, [{0}]), ground_size=m)
    start = time.perf_counter()
    assert big.rank(range(m)) == 1
    sub = big.restrict(range(m))
    assert (sub.rank_total, sub.parent_elements[-1]) == (1, m - 1)
    assert time.perf_counter() - start < 5


@cache
def tabled_and_untabled():
    # a table exists only up to 12 elements; the untabled copies rank on
    # their representation
    pairs = []
    for build in (lambda: uniform_matroid(3, 12),
                  lambda: random_linear_matroid(4, 12, 0)):
        tabled = build()
        tabled.build_rank_table()
        pairs.append((tabled, build()))
    return pairs


@given(st.lists(st.integers(0, 11), max_size=20))
@settings(max_examples=200, deadline=None)
def test_table_rank_agrees_with_untabled_rank(elems):
    for tabled, untabled in tabled_and_untabled():
        assert tabled.rank(iter(elems)) == untabled.rank(elems)
        for bad in (12, -1):
            with pytest.raises(IndexError):
                tabled.rank([*elems, bad])


# --- basis-exchange checker ---------------------------------------------------

def test_exchange_accepts_u24(u24):
    assert find_exchange_violation(
        [set(c) for c in combinations(range(4), 2)]) is None


def test_exchange_rejects_split_pair():
    assert find_exchange_violation([{0, 1}, {2, 3}]) is not None


def test_exchange_accepts_k4_spanning_trees(k4):
    edges = k4.rep.edges
    trees = [set(c) for c in combinations(range(6), 3)
             if not has_cycle(4, [edges[e] for e in c])]
    assert len(trees) == 16           # Cayley: 4^2 spanning trees of K4
    assert find_exchange_violation(trees) is None
    assert enumerate_bases(k4) == frozenset(frozenset(t) for t in trees)


def test_exchange_rejects_empty_family():
    with pytest.raises(ValueError):
        find_exchange_violation([])


def test_exchange_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        find_exchange_violation([{0, 1}, {2}])


@st.composite
def basis_families(draw):
    """Basis families of small linear and graphic matroids, the same with one
    member dropped, and arbitrary families of equal-size sets."""
    kind = draw(st.sampled_from(["matroid", "dropped", "arbitrary"]))
    if kind == "arbitrary":
        m = draw(st.integers(1, 8))
        r = draw(st.integers(0, m))
        members = st.frozensets(st.integers(0, m - 1), min_size=r,
                                max_size=r)
        return draw(st.lists(members, min_size=1, max_size=14))
    rep = draw(st.one_of(
        linear_columns(max_size=8).map(linear_rep), graphic_reps))
    family = sorted(enumerate_bases(MatroidOracle(rep)), key=sorted)
    if kind == "dropped" and len(family) > 1:
        del family[draw(st.integers(0, len(family) - 1))]
    return family


@given(basis_families())
@settings(max_examples=200, deadline=None)
def test_exchange_bitmask_scan_matches_frozenset_scan(family):
    fam = set(family)
    found = find_exchange_violation(family)
    expected = reference_exchange_violation(family)
    assert (found is None) == (expected is None)
    if found is None:
        return
    # the same scan order finds the same pair; x may be any failing element
    assert found[::2] == expected[::2]
    for a, x, b in (found, expected):
        assert a in fam and b in fam and x in a - b
        assert not any((a - {x}) | {y} in fam for y in b - a)


def test_exchange_accepts_u412():
    assert find_exchange_violation(uniform_matroid(4, 12).rep.bases) is None


# --- disjoint union of bases --------------------------------------------------

def test_disjoint_union_two_trees(k4):
    assert is_disjoint_union_of_bases(k4, [{0, 3, 5}, {1, 2, 4}])


def test_disjoint_union_rejects_triangle(k4):
    assert not is_disjoint_union_of_bases(k4, [{0, 1, 2}, {3, 4, 5}])


def test_disjoint_union_uniform(u39):
    assert is_disjoint_union_of_bases(
        u39, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])


def test_disjoint_union_rejects_overlap(u39):
    assert not is_disjoint_union_of_bases(
        u39, [{0, 1, 2}, {2, 4, 5}, {6, 7, 8}])


# --- enumerate_bases -----------------------------------------------------------

def test_enumerate_u24(u24):
    assert len(enumerate_bases(u24)) == 6


def test_enumerate_j_matches_minor_sweep(oxley_j):
    by_minors = sum(
        1 for c in combinations(range(8), 4)
        if minor_rank([J_VECTORS[i] for i in c]) == 4)
    assert by_minors == 50
    assert len(enumerate_bases(oxley_j)) == 50


def test_enumerate_refuses_large_ground():
    big = uniform_matroid(2, 17)
    with pytest.raises(ValueError):
        enumerate_bases(big)


# --- axiom audits ---------------------------------------------------------------

def test_axioms_hold_for_core_matroids(k4, u24, u39, mcd, oxley_j):
    for oracle in (k4, u24, u39, mcd, oxley_j):
        assert rank_axiom_violations(oracle) == []


def test_axiom_audit_flags_non_matroid():
    broken = MatroidOracle(BasesRep(2, [{0, 1}, {2, 3}]))
    assert rank_axiom_violations(broken) != []


class CountingTester:
    """Wraps a tester and counts its add calls, the walk's one test per
    mask."""

    def __init__(self, tester):
        self.tester = tester
        self.calls = 0

    def add(self, e):
        self.calls += 1
        return self.tester.add(e)

    def pop(self, e):
        self.tester.pop(e)


def test_rank_table_fills_full_rank_subtrees(monkeypatch):
    # the plain walk makes 511 and 4,095 calls on these
    oracles = [uniform_matroid(3, 9), random_linear_matroid(4, 12, 0)]
    tester_for = matroid_module.tester_for
    made = []

    def counting(oracle):
        made.append(CountingTester(tester_for(oracle)))
        return made[-1]

    monkeypatch.setattr(matroid_module, "tester_for", counting)
    for oracle in oracles:
        oracle.build_rank_table()
    assert [t.calls for t in made] == [129, 813]


@st.composite
def table_oracles(draw):
    """Linear and graphic oracles, either as drawn or with every rank held
    below the ceiling (a zero coordinate appended, an isolated vertex
    added), and basis families of equal-size sets on at most 8 elements
    that may fail the exchange axiom."""
    kind = draw(st.sampled_from(["linear", "graphic", "bases"]))
    below = draw(st.integers(0, 1))
    if kind == "linear":
        cols = draw(linear_columns(max_size=8))
        return MatroidOracle(linear_rep([c + (0,) * below for c in cols]))
    if kind == "graphic":
        rep = draw(graphic_reps)
        return MatroidOracle(GraphicRep(rep.vertices + below, rep.edges))
    m = draw(st.integers(1, 8))
    r = draw(st.integers(0, m))
    family = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=r,
                                   max_size=r), min_size=1, max_size=12))
    return MatroidOracle(BasesRep(r, family), ground_size=m)


@given(table_oracles())
@settings(max_examples=150, deadline=None)
def test_rank_table_fill_matches_plain_walk(oracle):
    reference = MatroidOracle(oracle.rep, ground_size=oracle.ground.size)
    reference._table = reference_rank_table(reference)
    assert oracle.build_rank_table() == reference._table
    assert rank_axiom_violations(oracle) == rank_axiom_violations(reference)


def test_representation_equivalence(oxley_j):
    rebuilt = MatroidOracle(
        BasesRep(4, enumerate_bases(oxley_j)), ground_size=8)
    for size in range(9):
        for c in combinations(range(8), size):
            assert rebuilt.rank(c) == oxley_j.rank(c)


# --- ground set / construction ---------------------------------------------------

def test_ground_set_labels():
    assert GroundSet(2, ("a", "b")).names == ("a", "b")
    with pytest.raises(ValueError):
        GroundSet(3, ("a",))


@pytest.mark.parametrize("rep", [
    LinearRep(2, ((1, 0), (0, 1))), GraphicRep(2, ((0, 1), (1, 1)))],
    ids=["linear", "graphic"])
def test_oracle_refuses_a_ground_size_its_representation_lacks(rep):
    # a linear or graphic ground set is its columns or edges, no more, no fewer
    for m in (1, 3):
        with pytest.raises(ValueError, match=f"ground size {m} differs"):
            MatroidOracle(rep, ground_size=m)
    assert MatroidOracle(rep, ground_size=2).ground.size == 2


def test_bases_oracle_pads_with_trailing_loops_only():
    rep = BasesRep(1, [{0}, {1}])
    assert MatroidOracle(rep, ground_size=4).loops() == {2, 3}
    with pytest.raises(ValueError, match="outside the ground set"):
        MatroidOracle(rep, ground_size=1)


def test_bases_rep_validates_cardinality():
    with pytest.raises(ValueError):
        BasesRep(2, [{0, 1}, {2}])
    with pytest.raises(ValueError):
        BasesRep(2, frozenset())


# --- incremental testers agree with the rank oracle -------------------------------

graphic_reps = st.integers(2, 4).flatmap(
    lambda v: st.lists(
        st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
        min_size=1, max_size=8,
    ).map(lambda edges: GraphicRep(v, tuple(edges))))


@given(graphic_reps, st.permutations(list(range(8))),
       st.lists(st.booleans(), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_tester_matches_oracle(rep, order, asks):
    # the graphic tester and the basis-family tester of the same matroid
    # walk together; a step asks can_add before add, or calls add alone,
    # and add, taking e or not, leaves every later answer right
    oracle = MatroidOracle(rep)
    m = oracle.ground.size
    family = MatroidOracle(BasesRep(oracle.rank_total, enumerate_bases(oracle)),
                           ground_size=m)
    testers = [make_tester(oracle), make_tester(family)]
    assert [type(t) for t in testers] == [GraphicTester, BasesTester]
    current: list[int] = []
    for e, ask in zip((x for x in order if x < m), asks):
        expected = oracle.rank(current + [e]) == len(current) + 1
        if ask:
            assert [t.can_add(e) for t in testers] == [expected] * 2
        assert [t.add(e) for t in testers] == [expected] * 2
        if expected:
            current.append(e)
    while current:
        e = current.pop()
        for t in testers:
            t.pop(e)
        for e in range(m):
            if e in current:
                continue
            expected = oracle.rank(current + [e]) == len(current) + 1
            assert [t.can_add(e) for t in testers] == [expected] * 2


def test_testers_refuse_a_dependent_push_and_an_out_of_order_pop():
    # U_{2,3} as three plane vectors, a triangle, its bases and a rank table
    plane = LinearRep(2, ((1, 0), (0, 1), (1, 1)))
    tabled = MatroidOracle(plane)
    tabled.build_rank_table()
    triangle = GraphicRep(3, ((0, 1), (1, 2), (0, 2)))
    oracles = [MatroidOracle(plane), MatroidOracle(triangle),
               MatroidOracle(BasesRep(2, combinations(range(3), 2))), tabled]
    testers = [make_tester(oracle) for oracle in oracles]
    assert [type(t) for t in testers] == [LinearTester, GraphicTester,
                                          BasesTester, TableTester]
    for tester in testers:
        tester.push(0)
        # a held element does not grow the set, so add refuses it
        assert not tester.add(0)
        tester.push(1)
        with pytest.raises(ValueError, match="dependent"):
            tester.push(2)
        # the refused push left the set as it was
        assert not tester.can_add(2) and not tester.add(2)
        tester.pop(1)
        assert tester.can_add(2)
        tester.push(1)
        with pytest.raises(ValueError, match="pop order"):
            tester.pop(0)


@given(graphic_reps)
@settings(max_examples=100, deadline=None)
def test_graphic_rank_matches_cycle_stripping(rep):
    # an extra isolated vertex keeps every rank below the ceiling vertices - 1
    reps = [GraphicRep(v, rep.edges) for v in (rep.vertices, rep.vertices + 1)]
    greedy = [MatroidOracle(r) for r in reps]
    tables = [MatroidOracle(r).build_rank_table() for r in reps]
    for mask in range(1 << len(rep.edges)):
        c = [e for e in range(len(rep.edges)) if mask >> e & 1]
        # rank = |A| - independent cycles; build greedily as a check
        independent: list[tuple[int, int]] = []
        for edge in (rep.edges[e] for e in c):
            if not has_cycle(rep.vertices, independent + [edge]):
                independent.append(edge)
        assert [g.rank(c) for g in greedy] == [len(independent)] * 2
        assert [t[mask] for t in tables] == [len(independent)] * 2


def endpoint_classes(edges):
    """Loops are self-loops; parallel classes share an unordered endpoint pair."""
    loops = {e for e, (u, w) in enumerate(edges) if u == w}
    by_pair: dict[frozenset[int], list[int]] = {}
    for e, (u, w) in enumerate(edges):
        if u != w:
            by_pair.setdefault(frozenset((u, w)), []).append(e)
    return loops, tuple(sorted(tuple(g) for g in by_pair.values()))


@given(graphic_reps)
@settings(max_examples=100, deadline=None)
def test_loops_and_parallel_classes_by_endpoints(rep):
    # on the graphic tester, then on the rank table
    loops, classes = endpoint_classes(rep.edges)
    fresh, tabled = MatroidOracle(rep), MatroidOracle(rep)
    tabled.build_rank_table()
    for oracle in (fresh, tabled):
        assert oracle.loops() == loops
        assert oracle.parallel_classes() == classes
    assert fresh._table is None


# non-integer rationals: Bareiss runs on integers, so these must be scaled
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 3, 5]))


@st.composite
def linear_columns(draw, max_dim=4, max_size=6, entries=st.integers(-3, 3),
                   fractions=rationals):
    """Small exact columns: fresh (integer or rational entries), zero, repeated,
    scaled from an earlier one, or the sum of two earlier ones."""
    d = draw(st.integers(1, max_dim))
    fresh = st.one_of(entries, fractions)
    cols: list[tuple] = []
    for _ in range(draw(st.integers(1, max_size))):
        kind = draw(st.sampled_from(
            ["fresh", "fresh", "zero", "repeat", "scaled", "sum"]
            if cols else ["fresh", "zero"]))
        if kind == "fresh":
            cols.append(tuple(draw(st.lists(fresh, min_size=d, max_size=d))))
        elif kind == "zero":
            cols.append((0,) * d)
        elif kind == "sum":
            u, w = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append(tuple(a + b for a, b in zip(u, w)))
        else:
            factor = 1 if kind == "repeat" else draw(
                st.sampled_from([-1, 2, Fraction(-3, 2), Fraction(2, 3)]))
            cols.append(tuple(factor * x for x in draw(st.sampled_from(cols))))
    return cols


def linear_rep(cols):
    """The linear representation of drawn columns, all of one length."""
    return LinearRep(len(cols[0]), tuple(cols))


@given(linear_columns())
@settings(max_examples=150, deadline=None)
def test_linear_rank_matches_nonzero_minors(cols):
    # a zero coordinate appended to every column keeps each rank below dim;
    # each form goes to the oracle as drawn and with every entry a Fraction
    forms = (cols, [c + (0,) for c in cols])
    reps = [linear_rep(v) for v in forms]
    reps += [linear_rep([tuple(map(Fraction, c)) for c in v]) for v in forms]
    greedy = [MatroidOracle(rep) for rep in reps]
    tables = [MatroidOracle(rep).build_rank_table() for rep in reps]
    for mask in range(1 << len(cols)):
        subset = [e for e in range(len(cols)) if mask >> e & 1]
        expected = minor_rank([cols[e] for e in subset]) if subset else 0
        assert [g.rank(subset) for g in greedy] == [expected] * len(reps)
        assert [t[mask] for t in tables] == [expected] * len(reps)


@given(st.one_of(linear_columns(max_size=10).map(linear_rep),
                 graphic_reps),
       st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_parallel_classes_match_reference_walk(rep, trailing_loops):
    # the basis family of the same matroid, with loops appended past its
    # last element, has the same classes
    oracle = MatroidOracle(rep)
    expanded = MatroidOracle(
        BasesRep(oracle.rank_total, enumerate_bases(oracle)),
        ground_size=oracle.ground.size + trailing_loops)
    for M in (oracle, expanded):
        assert M.parallel_classes() == reference_parallel_classes(M)
    assert expanded.parallel_classes() == oracle.parallel_classes()


@st.composite
def restriction_draws(draw):
    """A linear, graphic or basis-family oracle (zero, repeated and scaled
    columns, self-loops and parallel edges, trailing loops), a set S of its
    elements and a set T of the restriction's elements."""
    kind = draw(st.sampled_from(["linear", "graphic", "bases"]))
    rep = draw(graphic_reps) if kind == "graphic" else linear_rep(
        draw(linear_columns(max_size=10)))
    oracle = MatroidOracle(rep)
    if kind == "bases":
        oracle = MatroidOracle(
            BasesRep(oracle.rank_total, enumerate_bases(oracle)),
            ground_size=oracle.ground.size + draw(st.integers(0, 2)))
    s = draw(st.sets(st.integers(0, oracle.ground.size - 1)))
    t = draw(st.sets(st.sampled_from(range(len(s))))) if s else set()
    return oracle, s, t


@given(restriction_draws(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_restriction_inherits_loops_and_parallel_classes(draw, parent_first,
                                                         inner_first):
    # a restriction has its parent's rank on every subset, so its loops and
    # classes, read off the parent's, equal those of an oracle built afresh
    # on the restricted representation, in the same order
    oracle, s, t = draw
    if parent_first:
        oracle.parallel_classes()
    sub = oracle.restrict(s)
    inner = sub.restrict(t)
    assert sub.class_ids() == [oracle.class_ids()[e] for e in sub.parent_elements]
    assert inner.class_ids() == [sub.class_ids()[e] for e in inner.parent_elements]
    for M in (inner, sub) if inner_first else (sub, inner):
        fresh = MatroidOracle(M.rep, ground_size=M.ground.size)
        classes = M.parallel_classes()
        assert M.loops() == fresh.loops()
        assert classes == fresh.parallel_classes()
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert all(list(c) == sorted(c) for c in classes)


# A script step is (op, e, f).  "check" asks can_add(e); "push" pushes e with
# no can_add before it; "checked" is can_add(e) then push(e); "add" is the
# solver's add(e), which pushes e when it answers yes; "interleaved" asks
# can_add(e) and can_add(f) before pushing e; "pop" pops the last element;
# "stale" asks can_add(e), pops, then pushes e.
SCRIPT_OPS = ("check", "push", "checked", "add", "interleaved", "pop", "stale")


@given(linear_columns(max_dim=6, max_size=14, entries=rationals),
       st.lists(st.tuples(st.sampled_from(SCRIPT_OPS), st.integers(0, 13),
                          st.integers(0, 13)), max_size=40))
@settings(max_examples=120, deadline=None)
def test_linear_tester_scripts_match_minor_rank(cols, script):
    rep = linear_rep(cols)
    m = len(cols)
    greedy = MatroidOracle(rep)            # never builds a table
    solver_side = MatroidOracle(rep)
    testers = [LinearTester(rep.columns),   # the layer probe's direct call
               make_tester(solver_side)]    # over the oracle's scaled columns
    assert isinstance(testers[-1], LinearTester)
    if m <= 12:
        solver_side.build_rank_table()
        testers.append(make_tester(solver_side))
        assert isinstance(testers[-1], TableTester)
    current: list[int] = []
    verdicts: dict[frozenset, bool] = {}

    def independent(e):
        if e in current:
            return False
        key = frozenset(current + [e])
        if key not in verdicts:
            vecs = [cols[x] for x in key]
            verdicts[key] = minor_rank(vecs) == len(vecs)
        return verdicts[key]

    def ask(e):
        expected = independent(e)
        assert [t.can_add(e) for t in testers] == [expected] * len(testers)
        return expected

    def push(e):
        if independent(e):
            for t in testers:
                t.push(e)
            current.append(e)
            assert greedy.rank(current) == len(current)
        else:
            for t in testers:
                with pytest.raises(ValueError):
                    t.push(e)

    def add(e):
        expected = independent(e)
        assert [t.add(e) for t in testers] == [expected] * len(testers)
        if expected:
            current.append(e)
            assert greedy.rank(current) == len(current)

    def pop():
        if current:
            e = current.pop()
            for t in testers:
                t.pop(e)

    for op, e, f in script:
        e, f = e % m, f % m
        if op == "check":
            ask(e)
            assert greedy.rank(current + [e]) == len(current) + independent(e)
        elif op == "push":
            push(e)
        elif op == "checked":
            if ask(e):
                push(e)
        elif op == "add":
            add(e)
        elif op == "interleaved":
            ask(e)
            ask(f)
            push(e)
        elif op == "pop":
            pop()
        else:
            ask(e)
            pop()
            push(e)


def unpack(v, width, dim):
    """The coordinates of a packed column or row: dim - 1 signed fields of
    `width` bits from the bottom, then all that is left above them."""
    half = 1 << width - 1
    out = []
    for _ in range(dim - 1):
        x = (v + half) % (1 << width) - half
        out.append(x)
        v = (v - x) >> width
    return out + [v]


def check_rows_are_minors(tester, cols):
    """Bareiss invariant: entry j of the k-th stored row is the k-by-k minor
    of the first k pushed (scaled) columns on the earlier pivots and j, so
    every value is exact, not just its zero pattern.  Each entry, the top
    field's included, stays below half the field, and the pivot is the row's
    first nonzero entry."""
    dim, width = len(cols[0]), tester.width
    pushed, pivots = [], []
    for s, w, e, d in tester.stack:
        col = unpack(tester.columns[e], width, dim)
        scale = lcm(*[Fraction(x).denominator for x in cols[e]])
        assert col == [Fraction(x) * scale for x in cols[e]]
        pushed.append(col)
        row = unpack(w, width, dim)
        assert row == [det([[v[i] for i in pivots + [j]] for v in pushed])
                       for j in range(dim)]
        assert all(abs(x) < 1 << width - 1 for x in row)
        p, r = divmod(s, width)
        assert r == 0 and d == row[p] != 0 and not any(row[:p])
        pivots.append(p)


@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.tuples(*[rationals] * d), min_size=1, max_size=8)))
@settings(max_examples=100, deadline=None)
def test_linear_tester_rows_are_minors(cols):
    tester = LinearTester(cols)
    for e in range(len(cols)):
        if tester.can_add(e):
            tester.push(e)
    check_rows_are_minors(tester, cols)


# entries far past a machine word, and rationals with large denominators
huge_rationals = st.builds(Fraction, st.integers(-10**30, 10**30),
                           st.integers(1, 10**30))


@given(linear_columns(max_dim=10, max_size=12,
                      entries=st.integers(-10**40, 10**40),
                      fractions=huge_rationals),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_linear_tester_field_width_decodes_large_entries(cols, rng):
    # the width is read off the Hadamard bound; one too narrow for some minor
    # decodes a wrong pivot or multiplier, and the verdicts or rows go wrong
    order = list(range(len(cols)))
    rng.shuffle(order)
    tester, pushed = LinearTester(cols), []
    for e in order:
        vecs = [cols[x] for x in pushed + [e]]
        grows = tester.can_add(e)
        assert grows == (minor_rank(vecs) == len(vecs))
        if grows:
            tester.push(e)
            pushed.append(e)
    check_rows_are_minors(tester, cols)


# --- fundamental circuits ---------------------------------------------------------

wide_graphic_reps = st.integers(3, 6).flatmap(
    lambda v: st.lists(
        st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
        min_size=v, max_size=12,
    ).map(lambda edges: GraphicRep(v, tuple(edges))))


@st.composite
def circuit_draws(draw):
    """An oracle of every tester kind -- linear columns with int, Fraction and
    huge entries, a multigraph with loops and parallel edges, a basis family
    padded with loops, a rank table -- and an independent set, in a drawn
    order, split into a held part and `extra`."""
    kind = draw(st.sampled_from(["linear", "fractions", "huge", "graphic",
                                 "bases", "table"]))
    if kind == "huge":
        rep = linear_rep(draw(linear_columns(
            max_dim=10, max_size=12, entries=st.integers(-10**40, 10**40),
            fractions=huge_rationals)))
    elif kind == "graphic" or kind != "linear" and draw(st.booleans()):
        rep = draw(wide_graphic_reps)
    else:
        cols = draw(linear_columns(max_dim=6, max_size=10))
        if kind == "fractions":
            cols = [tuple(map(Fraction, c)) for c in cols]
        rep = linear_rep(cols)
    oracle = MatroidOracle(rep)
    if kind == "bases":
        oracle = MatroidOracle(
            BasesRep(oracle.rank_total, enumerate_bases(oracle)),
            ground_size=oracle.ground.size + draw(st.integers(0, 2)))
    elif kind == "table":
        oracle.build_rank_table()
    independent: list[int] = []
    for e in draw(st.permutations(range(oracle.ground.size))):
        if oracle.is_independent(independent + [e]):
            independent.append(e)
    # a basis, or one to two elements short of one, split element by element
    independent = independent[:max(0, len(independent) - draw(st.integers(0, 2)))]
    into_held = [draw(st.booleans()) for _ in independent]
    return (oracle, [e for e, h in zip(independent, into_held) if h],
            [e for e, h in zip(independent, into_held) if not h])


def check_circuits(oracle, held, extra):
    """Every answer of `circuits(extra)` on a tester holding `held` against
    the rank definition: y of extra is on e's circuit iff held + extra - y
    + e is independent.  Returns the tester's kind and the circuit sizes."""
    tester = make_tester(oracle)
    for e in held:
        tester.push(e)
    circuit = tester.circuits(extra)
    together, sizes = held + extra, set()
    for e in range(oracle.ground.size):
        if e in together or oracle.rank(together + [e]) > len(together):
            continue
        expected = [y for y in reversed(extra)
                    if oracle.rank([x for x in together if x != y] + [e])
                    == len(together)]
        assert circuit(e) == expected
        # a push undone by its pop leaves the snapshot valid
        if tester.add(e):
            tester.pop(e)
        assert circuit(e) == expected
        sizes.add(len(expected))
    return type(tester).__name__, sizes


def test_circuits_match_the_rank_definition():
    # the draws must meet, on every tester kind, empty circuits (e spanned
    # by the held part alone) and one-member ones; M(K4) in every
    # representation, a star on three edges as `extra`, adds circuits of two
    # members, latest first
    seen = set()
    k4 = GraphicRep(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    incidence = LinearRep(3, tuple(tuple((i == u) - (i == w) for i in range(3))
                                   for u, w in k4.edges))
    tabled = MatroidOracle(k4)
    tabled.build_rank_table()
    for oracle in (MatroidOracle(k4), MatroidOracle(incidence), tabled,
                   MatroidOracle(BasesRep(3, enumerate_bases(tabled)))):
        assert check_circuits(oracle, [], [0, 1, 2])[1] == {2}
        # edge 3 closes the triangle of edges 0 and 1
        assert make_tester(oracle).circuits([0, 1, 2])(3) == [1, 0]

    @given(circuit_draws())
    @settings(max_examples=300, deadline=None)
    def agree(case):
        kind, sizes = check_circuits(*case)
        seen.update((kind, size) for size in sizes if size < 2)

    agree()
    kinds = {"LinearTester", "GraphicTester", "BasesTester", "TableTester"}
    assert {(kind, size) for kind in kinds for size in (0, 1)} <= seen


def test_linear_tester_reduction_is_reused_only_when_fresh():
    # (1,1) reduced against (1,0) is (0,1); that reduction is wrong for any
    # other stack, and for any other element, so no call may carry one over
    # from an earlier call
    cols = [(1, 0), (0, 1), (1, 1)]
    tester = LinearTester(cols)
    tester.push(0)
    assert tester.can_add(2)
    tester.pop(0)
    tester.push(2)                       # must reduce (1,1) afresh
    assert tester.can_add(1)
    tester.pop(2)
    tester.push(0)
    assert tester.can_add(2) and not tester.can_add(0)
    tester.push(2)                       # not the reduction of element 0
    with pytest.raises(ValueError):
        tester.push(2)                   # nor the one the last push used
    assert not tester.can_add(1)
    with pytest.raises(ValueError):
        tester.pop(0)


def test_linear_tester_is_exact_on_rational_columns():
    # denominators 2, 3 and 5: the third column is the sum of the first two
    cols = [(Fraction(1, 2), Fraction(1, 3), Fraction(0)),
            (Fraction(1, 3), Fraction(-1, 5), Fraction(2, 5)),
            (Fraction(5, 6), Fraction(2, 15), Fraction(2, 5)),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))]
    for tester in (LinearTester(cols),
                   make_tester(MatroidOracle(LinearRep(3, tuple(cols))))):
        tester.push(0)
        tester.push(1)
        assert not tester.can_add(2)
        assert tester.can_add(3)
        tester.push(3)
        assert [tester.can_add(e) for e in range(4)] == [False] * 4


@given(st.one_of(st.integers(0, 1 << 12), st.integers(0, 1 << 200)))
@settings(max_examples=300, deadline=None)
def test_bits_lists_the_set_bits_in_order(mask):
    # the bit-by-bit scan that the string scan replaced
    assert _bits(mask) == [e for e in range(mask.bit_length()) if mask >> e & 1]


@given(st.integers(0, 4), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_uniform_rank_formula(r, m):
    if r > m:
        r = m
    if r == 0:
        return
    oracle = uniform_matroid(r, m)
    for size in range(m + 1):
        subset = set(range(size))
        assert oracle.rank(subset) == min(size, r)
    table = uniform_matroid(r, m).build_rank_table()
    for mask in range(1 << m):
        assert table[mask] == min(bin(mask).count("1"), r)
