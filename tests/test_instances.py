"""Named instances, catalog generators, and the row-family enumerator."""

import hashlib
import time
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotagrid import (NOT_REQUIRED, REQUIRED, BasesRep, GraphicRep,
                      GridInstance, LinearRep, MatroidOracle, brute_force_count,
                      builtin_instance, c3_catalog, enumerate_bases,
                      enumerate_row_families,
                      find_basis_partition, find_exchange_violation,
                      is_disjoint_union_of_bases, k4_c2_instance,
                      mcdiarmid_instance, odd_wheel_instance,
                      oxley_j_instance, random_graphic_matroid,
                      random_linear_matroid, random_rota_instance,
                      serialize_matroid, solve, splits_into_bases,
                      u39_instance, uniform_matroid, validate_instance,
                      verify_c3_for_matroid)
from rotagrid import instances
from rotagrid.grid import SolveReport
from rotagrid.instances import (_clone_canon, _clone_classes,
                                _count_families, _orbit_maximal_families,
                                _row_sets, _sweep_exhaustive)

J_ROW_VECTORS = {
    0: {(-2, 3, 0, 1), (0, 0, 1, 1)},
    1: {(0, 2, 0, 1), (1, 0, 3, 1)},
    2: {(1, 0, 0, 1), (0, 1, 2, 1)},
    3: {(0, 1, 0, 1), (4, 0, 0, 1)},
}


# --- k4-c2 -------------------------------------------------------------------

def test_k4_rows_are_independent_non_incident_pairs():
    inst = k4_c2_instance().instance
    edges = inst.matroid.rep.edges
    for row in inst.rows:
        assert inst.matroid.is_independent(row)
        (a, b), (c, d) = (edges[e] for e in sorted(row))
        assert {a, b} & {c, d} == set()   # non-incident
    assert validate_instance(inst)


def test_k4_expected_unsat():
    named = k4_c2_instance()
    assert named.expected == "UNSAT"
    assert solve(named.instance, mode="count").count == 0


# --- oxley-j ------------------------------------------------------------------

def test_j_rows_match_declared_vectors():
    inst = oxley_j_instance().instance
    cols = inst.matroid.rep.columns
    for i, row in enumerate(inst.rows):
        got = {tuple(int(x) for x in cols[e]) for e in row}
        assert got == J_ROW_VECTORS[i]


def test_j_rank_and_unsat():
    named = oxley_j_instance()
    assert named.instance.matroid.rank_total == 4
    assert validate_instance(named.instance)
    assert solve(named.instance).status == "UNSAT"


# --- mcdiarmid -----------------------------------------------------------------

def test_mcdiarmid_rows_dependent():
    inst = mcdiarmid_instance().instance
    for row in inst.rows:
        assert not inst.matroid.is_independent(row)
    assert inst.independence == NOT_REQUIRED


def test_mcdiarmid_splits_into_three_trees():
    inst = mcdiarmid_instance().instance
    parts = find_basis_partition(inst.matroid, 3)
    assert parts is not None
    assert is_disjoint_union_of_bases(inst.matroid, parts)


def test_mcdiarmid_count_zero():
    assert solve(mcdiarmid_instance().instance, mode="count").count == 0


# --- odd wheels -------------------------------------------------------------------

def test_odd_wheel_rejects_even_or_small():
    for bad in (2, 4, 1, -3):
        with pytest.raises(ValueError):
            odd_wheel_instance(bad)


def test_odd_wheel_3_matches_mcdiarmid_exactly():
    """Explicit element bijection wheel-3 -> mcdiarmid: identical rank
    function on all 2^9 subsets and row sets mapped onto row sets."""
    wheel = odd_wheel_instance(3).instance
    mcd = mcdiarmid_instance().instance
    # wheel elements: r0=(v0,v1), r1=(v1,v2), r2=(v2,v0), then spokes
    # s0,s0', s1,s1', s2,s2'; mcd hub is vertex 4, rim vertices 1,2,3
    bijection = {0: 0, 1: 3, 2: 1,          # r0->12, r1->23, r2->13
                 3: 2, 4: 6,                # s0 copies -> 14, 14'
                 5: 4, 6: 7,                # s1 copies -> 24, 24'
                 7: 5, 8: 8}                # s2 copies -> 34, 34'
    assert sorted(bijection.values()) == list(range(9))
    for mask in range(1 << 9):
        sub = [e for e in range(9) if mask >> e & 1]
        mapped = [bijection[e] for e in sub]
        assert wheel.matroid.rank(sub) == mcd.matroid.rank(mapped)
    mapped_rows = {frozenset(bijection[e] for e in row) for row in wheel.rows}
    assert mapped_rows == set(mcd.rows)


def test_odd_wheel_3_unsat():
    assert solve(odd_wheel_instance(3).instance).status == "UNSAT"


def test_odd_wheel_5_shape():
    inst = odd_wheel_instance(5).instance
    assert inst.matroid.ground.size == 25
    assert inst.n == inst.k == 5
    assert all(len(r) == 5 for r in inst.rows)
    assert inst.independence == NOT_REQUIRED
    # hypothesis still holds: 25 edges split into 5 spanning trees
    assert validate_instance(inst)


def test_builtin_dispatch():
    assert builtin_instance("odd-wheel-3").name == "odd-wheel-3"
    assert builtin_instance("u39").expected == "SWEEP"
    with pytest.raises(KeyError):
        builtin_instance("odd-wheel-x")
    # int() reads each of these as 5; none is the canonical name
    for name in ("odd-wheel-05", "odd-wheel-+5", "odd-wheel-0_5",
                 "odd-wheel-\u0665"):
        with pytest.raises(KeyError):
            builtin_instance(name)
    with pytest.raises(KeyError):
        builtin_instance("nope")


# --- generators ---------------------------------------------------------------------

def test_uniform_matroid_every_subset_is_basis():
    m = uniform_matroid(3, 9)
    assert len(m.rep.bases) == 84
    for c in combinations(range(9), 3):
        assert m.is_basis(c)


def test_random_linear_deterministic():
    a = random_linear_matroid(3, 9, seed=1)
    b = random_linear_matroid(3, 9, seed=1)
    assert a.rep == b.rep
    c = random_linear_matroid(3, 9, seed=2)
    assert c.rep != a.rep


def test_random_linear_satisfies_hypotheses():
    for seed in range(5):
        m = random_linear_matroid(3, 9, seed=seed)
        assert m.rank_total == 3
        parts = find_basis_partition(m, 3)
        assert parts is not None
        assert is_disjoint_union_of_bases(m, parts)


def test_random_graphic_satisfies_hypotheses():
    for seed in range(5):
        m = random_graphic_matroid(4, 9, seed=seed)
        assert m.rank_total == 3
        assert find_basis_partition(m, 3) is not None


def test_random_rota_instance_valid():
    inst = random_rota_instance(4, seed=0)
    inst.check()


@pytest.mark.parametrize("make,args", [
    (random_linear_matroid, (2, -2, 0)),    # redrew forever: -1 parts
    (random_graphic_matroid, (3, -2, 0)),
    (random_linear_matroid, (0, 0, 0)),     # took m modulo a zero rank
    (random_rota_instance, (0, 0)),
    (random_graphic_matroid, (1, 0, 0)),
    (random_graphic_matroid, (0, 3, 0)),    # drew from an empty range
])
def test_generators_reject_bad_sizes_before_drawing(monkeypatch, make, args):
    def no_draw(*_):
        raise AssertionError("a draw was made")

    # every draw builds an oracle before it asks for a split
    monkeypatch.setattr(instances, "MatroidOracle", no_draw)
    with pytest.raises(ValueError):
        make(*args)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


# sha256 over serialize_matroid(inst.matroid) + repr(sorted rows), seeds 0..24
ROTA_DRAWS = {
    3: "673330c5843dc152b50e92e42a2a817c8cc22e15a77866d08d75b71473c39698",
    4: "8aca786ee32b440c6595b92ce450bb103158d3763b96d9b3a0494bc1307b7f62",
    5: "83b23a6df88f17451d4b4f3ea711d308ed5d16364452f7d5fbd109dd98e337ea",
    6: "da1d561477393c90104bd05fafb45e860c5bac8ef9784d0638ce4b727e552fc1",
}


@pytest.mark.parametrize("n", sorted(ROTA_DRAWS))
def test_random_rota_instance_draws_are_pinned(n):
    """The columns and rows of every seed's draw; a change to the redraw
    test or to the partition it keeps moves the digest."""
    draws = [random_rota_instance(n, s) for s in range(25)]
    assert _digest(serialize_matroid(inst.matroid)
                   + repr([sorted(b) for b in inst.bases])
                   for inst in draws) == ROTA_DRAWS[n]


def test_c3_catalog_draws_are_pinned():
    assert _digest(serialize_matroid(o) for o in c3_catalog(0)) == (
        "9b34469ee9fa9e3ffda242567a80529b0ea442aea83290fcf10c9e9a6f58d0c3")


# sha256 of serialize_matroid(random_graphic_matroid(*args)).  The first
# three are first draws that split, which a partition search that gives up
# after a node budget would redraw.
GRAPHIC_DRAWS = {
    (7, 36, 3): "e58e4fa8abf063887927fbb79dcd23df7b5a6cbdb56852b52c7c9035741ec465",
    (9, 64, 0): "9cd010e9dbcee29c624b433c46545cc54c5a8d3d2275e6892a0b71a5c43f27c5",
    (9, 64, 1): "0ec77669ed737e7c067070be1ee1866a7eb5ba6a041aa70d6a5d60c69b565552",
    (5, 12, 0): "618f38373fcf973f602733d95acad245fe7075e08d422429873dfed092595be8",
    (5, 8, 2): "01bfba0b779f446968ba7dfdb5f1cea0c72828c7998052747f6e589eebeda430",
    (5, 8, 4): "d404e2ca0f12f80390810b2895450919ab86516a190449f2bf746d243bffa0da",
    (4, 6, 0): "bd2d3fb51c11b2d25d54bbd50fe8f0b7ff8cb2d17f54fa09b063f6061e1985af",
    (5, 16, 0): "9d4fb0d6f237385b12c146eecbf8638a8a38d473b85382f51727b52e9d43e137",
}


@pytest.mark.parametrize("args", list(GRAPHIC_DRAWS),
                         ids=lambda a: "-".join(map(str, a)))
def test_random_graphic_draws_are_pinned(args):
    text = serialize_matroid(random_graphic_matroid(*args))
    assert _digest([text]) == GRAPHIC_DRAWS[args]


def test_large_graphic_draws_split_quickly():
    # 64 edges in 8 spanning trees; each seed's first draw with a split is
    # kept, found with no search that can give up
    start = time.perf_counter()
    draws = [random_graphic_matroid(9, 64, s) for s in range(10)]
    assert time.perf_counter() - start < 1.0
    for oracle in draws:
        assert is_disjoint_union_of_bases(oracle, find_basis_partition(oracle, 8))


def test_graphic_draws_keep_no_partition(monkeypatch):
    """A graphic draw is kept on matroid partition's yes/no answer; the
    least partition, which it would throw away, is never searched for."""
    def no_search(*_):
        raise AssertionError("a least partition was searched for")

    monkeypatch.setattr(instances, "find_basis_partition", no_search)
    # first 16 hex digits of the sha256 of serialize_matroid
    pinned = {(4, 9, 500): "7488f8c35ed3863a", (9, 64, 0): "9cd010e9dbcee29c"}
    for args, digest in pinned.items():
        text = serialize_matroid(random_graphic_matroid(*args))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_linear_draws_hand_the_oracle_their_integer_columns():
    """A linear draw's integers are its representation's columns, and the
    oracle keeps them as its integer columns without scaling a copy."""
    oracles = [random_rota_instance(n, s).matroid
               for n in (3, 4, 5, 6) for s in range(25)]
    oracles += [o for o in c3_catalog(0) if isinstance(o.rep, LinearRep)]
    assert len(oracles) == 125
    for oracle in oracles:
        assert all(type(x) is int for col in oracle.rep.columns for x in col)
        assert all(a is b for a, b in zip(oracle._columns, oracle.rep.columns,
                                          strict=True))


def test_rota_instance_searches_once_and_only_after_a_split(monkeypatch):
    """Seed 20's first n=4 draw has full rank and no split.  Every draw costs
    one least-partition search, which rejects a draw without full rank or a
    split and gives the kept one its rows.  No separate split check runs."""
    drawn, searched = [], []
    oracle_type, search = instances.MatroidOracle, instances.find_basis_partition

    def draw(*args, **kwargs):
        drawn.append(oracle_type(*args, **kwargs))
        return drawn[-1]

    def least(oracle, parts):
        searched.append((oracle, search(oracle, parts)))
        return searched[-1][1]

    def no_split_check(*args):
        raise AssertionError("the generators need no separate split check")

    monkeypatch.setattr(instances, "MatroidOracle", draw)
    monkeypatch.setattr(instances, "find_basis_partition", least)
    monkeypatch.setattr(instances, "splits_into_bases", no_split_check)
    inst = random_rota_instance(4, 20)
    assert [o for o, _ in searched] == drawn
    assert [parts for _, parts in searched[:-1]] == [None] * (len(drawn) - 1)
    assert drawn[0].rank_total == 4 and len(drawn) > 1
    assert searched[-1] == (inst.matroid, inst.bases)


def test_rota_instance_rows_are_the_least_partition():
    for n, seed in ((3, 0), (4, 14), (4, 20), (5, 3), (6, 7)):
        inst = random_rota_instance(n, seed)
        assert inst.bases == find_basis_partition(inst.matroid, n)


def test_generated_basis_families_pass_exchange():
    for seed in range(3):
        m = random_graphic_matroid(4, 9, seed=seed)
        assert find_exchange_violation(enumerate_bases(m)) is None


# --- row-family enumeration ------------------------------------------------------------

def brute_force_families(oracle, rows=3, cap=3):
    """Independent enumeration: all assignment vectors, filtered afterwards."""
    m = oracle.ground.size
    out = []
    for assign in product(range(-1, rows), repeat=m):
        fams = [frozenset(e for e in range(m) if assign[e] == r)
                for r in range(rows)]
        if any(len(f) > cap for f in fams):
            continue
        if any(not oracle.is_independent(f) for f in fams):
            continue
        out.append(tuple(fams))
    return out


def test_families_include_empty_triple(u39):
    first = next(iter(enumerate_row_families(u39)))
    assert first == (frozenset(), frozenset(), frozenset())


def test_family_enumeration_matches_brute_filter_small():
    m = uniform_matroid(2, 5)
    got = list(enumerate_row_families(m))      # 2 rows of at most 2
    expected = brute_force_families(m, rows=2, cap=2)
    assert sorted(got) == sorted(expected)
    assert len(got) == len(set(got))


def test_family_enumeration_matches_brute_filter_graphic():
    m = random_graphic_matroid(4, 9, seed=2)
    got = set(enumerate_row_families(m))
    expected = set(brute_force_families(m))
    assert got == expected


def test_u39_family_count_is_136348(u39):
    # 4^9 = 262144 raw assignments; the per-row size cap (= independence
    # for a uniform matroid) cuts the family count to 136348
    assert sum(1 for _ in enumerate_row_families(u39)) == 136348


LOOPED = MatroidOracle(   # rank 3 on nine edges, one of them a loop
    GraphicRep(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                   (0, 0), (1, 3), (2, 3))))


def test_families_never_contain_loops():
    for fam in enumerate_row_families(LOOPED):
        for row in fam:
            assert 6 not in row


def test_families_respect_filters(u39):
    seen = set()
    for fam in enumerate_row_families(u39):
        assert fam not in seen
        seen.add(fam)
        union = set()
        for row in fam:
            assert len(row) <= 3
            assert not (union & row)
            union |= row
        if len(seen) > 5000:
            break


# --- verify_c3 ---------------------------------------------------------------------------

def test_sweep_rejects_wrong_ground_size():
    # 15 = 3 * 5 elements split into bases, but the rank table stops at 12
    with pytest.raises(ValueError):
        verify_c3_for_matroid(uniform_matroid(3, 15))


def test_sweep_rejects_matroid_without_basis_split():
    # rank 3 on nine elements, but a loop lies in no basis
    with pytest.raises(ValueError):
        verify_c3_for_matroid(LOOPED)


def test_sweep_rejects_a_parallel_class_wider_than_k():
    # rank 3 on nine edges, four of them parallel: a basis holds at most one
    four_parallel = MatroidOracle(GraphicRep(4, (
        (0, 1), (0, 1), (0, 1), (0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))))
    assert four_parallel.rank_total == 3
    with pytest.raises(ValueError, match="disjoint union of 3 bases"):
        verify_c3_for_matroid(four_parallel)


def test_sweep_rejects_wrong_rank():
    with pytest.raises(ValueError):
        verify_c3_for_matroid(uniform_matroid(2, 9))


def test_sweep_mcdiarmid_matroid_all_solvable(mcd):
    # independent families only: the dependent-row obstruction is excluded
    report = verify_c3_for_matroid(mcd)
    assert report.unsat == 0
    assert report.families == report.sat
    assert report.families > 0


# --- positive controls: two-column obstructions the sweep must find ----------

def test_sweep_finds_every_k4_obstruction(k4):
    """M(K4) at (3, 2); brute force is zero on exactly the UNSAT families."""
    report = verify_c3_for_matroid(k4)
    assert (report.families, report.sat, report.unsat) == (2074, 2014, 60)
    assert len(report.unsat_examples) == 16
    assert report == _sweep_exhaustive(k4, 3, 2)
    unsat, zeros = set(), set()
    for rows in enumerate_row_families(k4):
        inst = GridInstance(k4, 3, 2, rows, REQUIRED)
        fam = tuple(tuple(sorted(r)) for r in rows)
        if solve(inst).status == "UNSAT":
            unsat.add(fam)
        if brute_force_count(inst) == 0:
            zeros.add(fam)
    assert len(zeros) == 60 and zeros == unsat
    assert set(report.unsat_examples) <= zeros
    assert ((0, 5), (1, 4), (2, 3)) in zeros      # the named k4-c2 rows


def test_sweep_finds_the_j_obstructions(oxley_j):
    """J at (4, 2); every kept example also counts zero grids."""
    report = verify_c3_for_matroid(oxley_j)
    assert (report.families, report.sat, report.unsat) == (114721, 114097, 624)
    assert len(report.unsat_examples) == 16
    for fam in report.unsat_examples:
        rows = tuple(frozenset(r) for r in fam)
        inst = GridInstance(oxley_j, 4, 2, rows, REQUIRED)
        assert solve(inst, mode="count").count == 0


# --- the sweep against plain enumeration -----------------------------------

SWEEP_MATROIDS = {
    "u39": lambda: uniform_matroid(3, 9, name="u39"),
    "linear-s0": lambda: random_linear_matroid(3, 9, seed=0),
    "linear-s1": lambda: random_linear_matroid(3, 9, seed=1),
    "graphic-s500": lambda: random_graphic_matroid(4, 9, seed=500),
    "graphic-s501": lambda: random_graphic_matroid(4, 9, seed=501),
    "k4": lambda: k4_c2_instance().instance.matroid,
    "u26": lambda: uniform_matroid(2, 6),
    "u36": lambda: uniform_matroid(3, 6),
    "graphic-v4-m6-s0": lambda: random_graphic_matroid(4, 6, seed=0),
    "linear-r2-m6-s0": lambda: random_linear_matroid(2, 6, seed=0),
}
SMALL_SWEEP_MATROIDS = ["k4", "u26", "u36", "graphic-v4-m6-s0",
                        "linear-r2-m6-s0"]


def _canonical_maximal_families(table, indep, n, k, m):
    """Reference: nondecreasing row masks of every maximal family of n rows,
    cap k, with no clone reduction.

    `ext[s]` holds the elements outside s that keep s independent (none
    once s is full), so maximality says the last row contains every element
    the other rows could still take, and takes nothing more itself.  Each
    row starts at the previous row's index in `indep`, which keeps the
    masks nondecreasing.
    """
    full = (1 << m) - 1
    ext = {}
    for s in indep:
        ext[s] = 0
        if table[s] < k:
            for e in range(m):
                bit = 1 << e
                if not s & bit and table[s | bit] > table[s]:
                    ext[s] |= bit

    def extend(start, used, reach, rows):
        if len(rows) < n - 1:
            for i, a in enumerate(indep[start:], start):
                if not a & used:
                    yield from extend(i, used | a, reach | ext[a], rows + (a,))
            return
        rest = full & ~used
        need = reach & rest
        if need in ext:
            for c in indep[start:]:
                if not c & ~rest and c & need == need and not ext[c] & rest:
                    yield rows + (c,)

    yield from extend(0, 0, 0, ())


def _is_maximal(oracle, fam, k, m):
    used = frozenset().union(*fam)
    return not any(len(row) < k and oracle.is_independent(row | {e})
                   for row in fam for e in range(m) if e not in used)


def _masks(fam):
    return tuple(sum(1 << e for e in row) for row in fam)


def _shape_and_sets(oracle):
    """(n, k, m), the rank table, and the independent sets of size <= k."""
    m, n = oracle.ground.size, oracle.rank_total
    k = m // n
    table = oracle.build_rank_table()
    indep = [s for s in range(1 << m) if table[s] == s.bit_count() <= k]
    return (n, k, m), table, indep


@pytest.mark.parametrize("key", sorted(SWEEP_MATROIDS))
def test_sweep_counts_and_maximal_families_match_enumeration(key):
    oracle = SWEEP_MATROIDS[key]()
    (n, k, m), table, indep = _shape_and_sets(oracle)
    enumerated = list(enumerate_row_families(oracle))
    assert verify_c3_for_matroid(oracle).families == len(enumerated)
    assert _count_families(indep, n, m) == len(enumerated)
    generated = list(_canonical_maximal_families(table, indep, n, k, m))
    expected = sorted(_masks(fam) for fam in enumerated
                      if list(_masks(fam)) == sorted(_masks(fam))
                      and _is_maximal(oracle, fam, k, m))
    assert sorted(generated) == expected
    assert len(set(generated)) == len(generated)


def reference_count_families(indep, n, m):
    """Reference: ordered n-tuples of disjoint sets from `indep`, counted by
    the union of the first n - 1 rows.  h[S] counts the sets inside S (a
    subset-sum transform), so the last row is any of h[complement] sets;
    `ways` maps the union of the first rows to the number of ordered
    prefixes with that union."""
    full = (1 << m) - 1
    h = [0] * (1 << m)
    for s in indep:
        h[s] = 1
    for e in range(m):
        bit = 1 << e
        for s in range(1 << m):
            if s & bit:
                h[s] += h[s ^ bit]
    ways = {0: 1}
    for _ in range(n - 1):
        grown = {}
        for used, w in ways.items():
            for a in indep:
                if not a & used:
                    grown[a | used] = grown.get(a | used, 0) + w
        ways = grown
    return sum(w * h[full & ~used] for used, w in ways.items())


def _brute_count_families(sets, n):
    """Every ordered n-tuple of the sets, kept when no two of them meet."""
    return sum(1 for rows in product(sets, repeat=n)
               if not any(a & b for a, b in combinations(rows, 2)))


@st.composite
def set_families(draw, max_size):
    """Any family of subsets of m <= 8 elements, with or without the empty
    set and not closed under subsets in general, and a row count n."""
    m = draw(st.integers(0, 8))
    sets = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=max_size))
    return sorted(sets), draw(st.integers(1, 4)), m


@given(set_families(max_size=9))
@example(([], 2, 3))                        # no sets, so no tuple
@example(([0b0011, 0b0110, 0b1100], 2, 4))  # no empty set, not hereditary
@example(([0, 0b111], 3, 3))                # the empty set in many rows
@settings(max_examples=200, deadline=None)
def test_family_count_matches_brute_force_on_any_set_family(case):
    sets, n, m = case
    expected = _brute_count_families(sets, n)
    assert reference_count_families(sets, n, m) == expected
    assert _count_families(sets, n, m) == expected


@given(set_families(max_size=256))
@settings(max_examples=200, deadline=None)
def test_family_count_matches_the_reference_on_any_set_family(case):
    sets, n, m = case
    assert _count_families(sets, n, m) == reference_count_families(sets, n, m)


def test_family_count_of_every_subset_is_every_assignment():
    """With every subset allowed, a family is an assignment of each element
    to one of n rows or none, and the coefficients come nearest the field
    width's bound."""
    for m in range(13):
        for n in range(1, 5):
            assert _count_families(range(1 << m), n, m) == (n + 1) ** m


@pytest.mark.parametrize("make, families", [
    (lambda: uniform_matroid(4, 12), 71965085),
    (lambda: random_linear_matroid(4, 12, 0), 71965085),
    (lambda: random_graphic_matroid(5, 12, 0), 28936205),
], ids=["u412", "linear-r4-m12-s0", "graphic-v5-m12-s0"])
def test_family_count_of_rank_4_matroids_on_12_elements(make, families):
    (n, _, m), _, indep = _shape_and_sets(make())
    assert _count_families(indep, n, m) == families


def _clone_key(classes, fam):
    """A family's rows as their counts in each clone class, up to row order."""
    return tuple(sorted(tuple(len(row & set(cls)) for cls in classes)
                        for row in fam))


def _recorded_sweep(oracle, monkeypatch):
    """The sweep's report and the rows of every family it solved."""
    real_solve = instances.solve
    solved = []

    def recording_solve(inst, *args, **kwargs):
        solved.append(inst.rows)
        return real_solve(inst, *args, **kwargs)

    monkeypatch.setattr(instances, "solve", recording_solve)
    return verify_c3_for_matroid(oracle), solved


@pytest.mark.parametrize("key", sorted(set(SWEEP_MATROIDS) - {"k4"}))
def test_sweep_solves_only_the_maximal_families(key, monkeypatch):
    """On an all-SAT matroid the sweep solves maximal families only, each
    one up to row order a mask-sorted maximal family, one for each clone
    key, and covers every maximal family's key."""
    oracle = SWEEP_MATROIDS[key]()
    (n, k, m), table, indep = _shape_and_sets(oracle)
    maximal = [_row_sets(masks, m)
               for masks in _canonical_maximal_families(table, indep, n, k, m)]
    classes = _clone_classes(table, m)
    report, solved = _recorded_sweep(oracle, monkeypatch)
    assert report.unsat == 0
    assert ({tuple(sorted(_masks(fam))) for fam in solved}
            <= {_masks(fam) for fam in maximal})
    assert all(_is_maximal(oracle, fam, k, m) for fam in solved)
    keys = [_clone_key(classes, fam) for fam in solved]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {_clone_key(classes, fam) for fam in maximal}


def _assert_one_family_per_orbit(oracle):
    """The orbit generator against the reference: every family maximal,
    no clone key twice, and the reference's keys exactly."""
    (n, k, m), table, indep = _shape_and_sets(oracle)
    classes = _clone_classes(table, m)
    generated = [_row_sets(masks, m) for masks in
                 _orbit_maximal_families(table, indep, classes, n, k, m)]
    assert all(_is_maximal(oracle, fam, k, m) for fam in generated)
    keys = [_clone_key(classes, fam) for fam in generated]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {
        _clone_key(classes, _row_sets(masks, m))
        for masks in _canonical_maximal_families(table, indep, n, k, m)}


@pytest.mark.parametrize("key", sorted(SWEEP_MATROIDS))
def test_orbit_families_match_the_reference(key):
    _assert_one_family_per_orbit(SWEEP_MATROIDS[key]())


@st.composite
def sweep_matroids_with_clones(draw):
    """Rank-n matroids on nk elements that split into k bases, at
    (n, k) in {(2,2), (3,2), (2,3), (3,3), (4,2)}: uniform ones, unions of
    k spanning trees (shared edges are parallel, and a vertex that is a
    leaf of both of two trees carries a series pair), and uniform basis
    families with parallel copies."""
    n, k = draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]))
    kind = draw(st.sampled_from(["uniform", "graphic", "bases"]))
    if kind == "uniform":
        return uniform_matroid(n, n * k)
    if kind == "graphic":
        edges = [(draw(st.integers(0, v - 1)), v)
                 for _ in range(k) for v in range(1, n + 1)]
        return MatroidOracle(GraphicRep(n + 1, tuple(draw(st.permutations(edges)))))
    # copies of distinct elements: classes of at most 2 <= k, so it splits
    copies = draw(st.integers(0, n * k // 2))
    m = n * k - copies
    bases = {frozenset(b) for b in combinations(range(m), n)}
    for f, e in enumerate(draw(st.permutations(range(m)))[:copies], m):
        bases |= {b - {e} | {f} for b in bases if e in b}
    return MatroidOracle(BasesRep(n, bases), ground_size=n * k)


@given(sweep_matroids_with_clones())
@settings(max_examples=80, deadline=None)
def test_orbit_families_match_the_reference_on_matroids_with_clones(oracle):
    assert splits_into_bases(oracle, (1 << oracle.ground.size) - 1,
                             oracle.ground.size // oracle.rank_total)
    _assert_one_family_per_orbit(oracle)


@pytest.mark.parametrize("make, families, solves", [
    (lambda: uniform_matroid(4, 12), 71965085, 1),
    (lambda: random_graphic_matroid(5, 12, 0), 28936205, 112),
], ids=["u412", "graphic-v5-m12-s0"])
def test_sweep_of_a_rank_4_matroid_on_12_elements(make, families, solves,
                                                  monkeypatch):
    report, solved = _recorded_sweep(make(), monkeypatch)
    assert (report.families, report.sat, report.unsat) == (families,
                                                           families, 0)
    assert len(solved) == solves


@pytest.mark.parametrize("seed", [2, 4])
def test_sweep_verdicts_are_constant_on_clone_orbits(seed):
    """Graphic rank-4 matroids with clones and UNSAT families at (4, 2):
    every canonical maximal family with the same clone key has one verdict."""
    oracle = random_graphic_matroid(5, 8, seed)
    (n, k, m), table, indep = _shape_and_sets(oracle)
    assert (n, k) == (4, 2)
    canon = _clone_canon(_clone_classes(table, m), indep)
    verdicts: dict = {}
    families = 0
    for masks in _canonical_maximal_families(table, indep, n, k, m):
        inst = GridInstance(oracle, n, k, _row_sets(masks, m), REQUIRED)
        key = tuple(sorted(canon[a] for a in masks))
        verdicts.setdefault(key, set()).add(solve(inst).status)
        families += 1
    assert len(verdicts) < families
    assert all(len(v) == 1 for v in verdicts.values())
    assert set().union(*verdicts.values()) == {"SAT", "UNSAT"}


@st.composite
def clone_matroids(draw):
    """Linear, graphic and basis-family matroids on at most 9 elements,
    extended by parallel copies, loops and (graphic, basis family) series
    elements, so that most have clone classes of two or more."""
    kind = draw(st.sampled_from(["linear", "graphic", "bases"]))
    if kind == "linear":
        d = draw(st.integers(1, 3))
        cols = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                             min_size=1, max_size=5))
        for _ in range(draw(st.integers(0, 3))):
            factor = draw(st.sampled_from([0, 1, -1, 2]))
            cols.append(tuple(factor * x for x in draw(st.sampled_from(cols))))
        return MatroidOracle(LinearRep(d, tuple(cols)))
    v = draw(st.integers(2, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, v - 1),
                                    st.integers(0, v - 1)),
                          min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(edges) - 1))
        u, w = edges[i]
        if draw(st.booleans()):
            edges.append((u, w))
        else:                 # subdivide edge i through a new vertex
            edges[i] = (u, v)
            edges.append((v, w))
            v += 1
    oracle = MatroidOracle(GraphicRep(v, tuple(edges)))
    if kind == "graphic":
        return oracle
    m, bases = oracle.ground.size, set(enumerate_bases(oracle))
    for _ in range(draw(st.integers(0, 2))):
        e = draw(st.integers(0, m - 1))
        if draw(st.booleans()):   # f parallel to e
            bases |= {b - {e} | {m} for b in bases if e in b}
        else:                     # f in series with e
            bases = ({b | {m} for b in bases}
                     | {b | {e} for b in bases if e not in b})
        m += 1
    return MatroidOracle(BasesRep(len(next(iter(bases))), bases),
                         ground_size=m)


def _swapped(s, e, f):
    """The mask s with elements e and f exchanged."""
    if (s >> e ^ s >> f) & 1:
        return s ^ (1 << e | 1 << f)
    return s


@given(clone_matroids())
@settings(max_examples=150, deadline=None)
def test_clone_classes_match_brute_force_swaps(oracle):
    """Swapping two members of a class keeps every rank; swapping two
    classes' least members changes some rank."""
    m = oracle.ground.size
    classes = _clone_classes(oracle.build_rank_table(), m)
    plain = MatroidOracle(oracle.rep, ground_size=m)     # no table
    rank = [plain.rank([e for e in range(m) if s >> e & 1])
            for s in range(1 << m)]

    def keeps_ranks(e, f):
        return all(rank[_swapped(s, e, f)] == rank[s] for s in range(1 << m))

    assert sorted(e for cls in classes for e in cls) == list(range(m))
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    for cls in classes:
        assert cls == sorted(cls)
        assert all(keeps_ranks(e, f) for e, f in combinations(cls, 2))
    for c, d in combinations(classes, 2):
        assert not keeps_ranks(c[0], d[0])


@pytest.mark.parametrize("key", ["u39", "graphic-s500"] + SMALL_SWEEP_MATROIDS)
def test_sweep_report_equals_exhaustive_sweep(key):
    oracle = SWEEP_MATROIDS[key]()
    (n, k, _), _, _ = _shape_and_sets(oracle)
    assert verify_c3_for_matroid(oracle) == _sweep_exhaustive(oracle, n, k)


def test_sweep_falls_back_to_every_family_on_unsat(u39, monkeypatch):
    import rotagrid.instances as instances
    real_solve = instances.solve
    target = (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}))
    calls = []

    def solve_refusing_target(inst, *args, **kwargs):
        calls.append(inst.rows)
        if inst.rows == target:
            return SolveReport("UNSAT", None, None, 0, 0.0)
        return real_solve(inst, *args, **kwargs)

    monkeypatch.setattr(instances, "solve", solve_refusing_target)
    report = verify_c3_for_matroid(u39)
    assert calls.count(target) == 2       # once as maximal, once in fallback
    assert len(calls) > report.families
    assert (report.families, report.sat, report.unsat) == (136348, 136347, 1)
    assert report.unsat_examples == (((0, 1, 2), (3, 4, 5), (6, 7, 8)),)
