"""Named instances, catalog generators, and the row-family enumerator."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotagrid import (NOT_REQUIRED, REQUIRED, GraphicRep, MatroidOracle,
                      builtin_instance, count_solutions, enumerate_bases,
                      enumerate_row_families, find_basis_partition,
                      is_disjoint_union_of_bases, k4_c2_instance,
                      mcdiarmid_instance, odd_wheel_instance, oxley_j_instance,
                      random_graphic_matroid, random_linear_matroid,
                      random_rota_instance, solve, u39_instance,
                      uniform_matroid, validate_instance, verify_basis_axioms,
                      verify_c3_for_matroid)
from rotagrid.grid import SolveReport
from rotagrid.instances import _canonical_maximal_families, _sweep_exhaustive

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
    assert count_solutions(named.instance) == 0


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
    assert count_solutions(mcdiarmid_instance().instance) == 0


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


def test_odd_wheel_alternate_shift():
    inst = odd_wheel_instance(5, rim_shift=1).instance
    rims = {min(r) for r in inst.rows}
    assert rims == set(range(5))      # each rim edge assigned exactly once


def test_builtin_dispatch():
    assert builtin_instance("odd-wheel-3").name == "odd-wheel-3"
    assert builtin_instance("u39").expected == "SWEEP"
    with pytest.raises(KeyError):
        builtin_instance("odd-wheel-x")
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


def test_generated_basis_families_pass_exchange():
    for seed in range(3):
        m = random_graphic_matroid(4, 9, seed=seed)
        assert verify_basis_axioms(enumerate_bases(m))


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
    got = list(enumerate_row_families(m, rows=3, cap=2))
    expected = brute_force_families(m, rows=3, cap=2)
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


def test_families_never_contain_loops():
    looped = MatroidOracle(
        GraphicRep(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                       (0, 0), (1, 3), (2, 3))))
    for fam in enumerate_row_families(looped):
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

def test_sweep_rejects_wrong_ground_size(k4):
    with pytest.raises(ValueError):
        verify_c3_for_matroid(k4)


def test_sweep_rejects_wrong_rank():
    with pytest.raises(ValueError):
        verify_c3_for_matroid(uniform_matroid(2, 9))


def test_sweep_mcdiarmid_matroid_all_solvable(mcd):
    # independent families only: the dependent-row obstruction is excluded
    report = verify_c3_for_matroid(mcd)
    assert report.unsat == 0
    assert report.families == report.sat
    assert report.families > 0


SWEEP_MATROIDS = {
    "u39": lambda: uniform_matroid(3, 9, name="u39"),
    "linear-s0": lambda: random_linear_matroid(3, 9, seed=0),
    "linear-s1": lambda: random_linear_matroid(3, 9, seed=1),
    "graphic-s500": lambda: random_graphic_matroid(4, 9, seed=500),
    "graphic-s501": lambda: random_graphic_matroid(4, 9, seed=501),
}


def _is_maximal(oracle, fam):
    used = frozenset().union(*fam)
    return not any(len(row) < 3 and oracle.is_independent(row | {e})
                   for row in fam for e in range(9) if e not in used)


def _masks(fam):
    return tuple(sum(1 << e for e in row) for row in fam)


@pytest.mark.parametrize("key", sorted(SWEEP_MATROIDS))
def test_sweep_counts_and_maximal_families_match_enumeration(key):
    oracle = SWEEP_MATROIDS[key]()
    enumerated = list(enumerate_row_families(oracle))
    assert verify_c3_for_matroid(oracle).families == len(enumerated)
    table = oracle.build_rank_table()
    indep = [s for s in range(512) if table[s] == bin(s).count("1")]
    generated = list(_canonical_maximal_families(table, indep, 9))
    expected = sorted(_masks(fam) for fam in enumerated
                      if list(_masks(fam)) == sorted(_masks(fam))
                      and _is_maximal(oracle, fam))
    assert sorted(generated) == expected
    assert len(set(generated)) == len(generated)


@pytest.mark.parametrize("key", ["u39", "graphic-s500"])
def test_sweep_report_equals_exhaustive_sweep(key):
    oracle = SWEEP_MATROIDS[key]()
    assert verify_c3_for_matroid(oracle) == _sweep_exhaustive(oracle)


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
