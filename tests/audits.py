"""Test-only audits: brute-force basis enumeration, the exhaustive rank-axiom
audit and the double-partition check.  No command, script or benchmark
needs them, so they live beside the tests that use them."""

from itertools import combinations

from rotagrid import DoublePartition, MatroidOracle, RotaInstance
from rotagrid import is_disjoint_union_of_bases
from rotagrid.matroid import _bits


def enumerate_bases(oracle: MatroidOracle) -> frozenset[frozenset[int]]:
    """All bases, by brute force over r-subsets; refuses ground sets above 16."""
    m = oracle.ground.size
    if m > 16:
        raise ValueError(f"ground set of size {m} exceeds enumeration cap 16")
    r = oracle.rank_total
    return frozenset(
        frozenset(c) for c in combinations(range(m), r) if oracle.rank(c) == r
    )


def rank_axiom_violations(oracle: MatroidOracle) -> list[str]:
    """Exhaustive monotonicity / unit-increase / submodularity audit (m <= 12).

    Returns up to 5 human-readable violations; empty means the rank
    function is a matroid rank function on the full subset lattice.
    """
    m = oracle.ground.size
    if m > 12:
        raise ValueError("exhaustive axiom audit limited to 12 elements")
    table = oracle.build_rank_table()
    out: list[str] = []
    full = 1 << m
    if table[0] != 0:
        out.append(f"rank(empty) = {table[0]}")
    # monotone + unit increase over all nested pairs A ⊆ B
    for b_mask in range(full):
        rb = table[b_mask]
        a_mask = b_mask
        while True:
            a_mask = (a_mask - 1) & b_mask
            if a_mask == b_mask:
                break
            ra = table[a_mask]
            if not ra <= rb <= ra + (b_mask & ~a_mask).bit_count():
                out.append(f"nested pair A={_bits(a_mask)} B={_bits(b_mask)}: "
                           f"rank {ra} vs {rb}")
                if len(out) >= 5:
                    return out
            if a_mask == 0:
                break
    for x in range(full):
        rx = table[x]
        for y in range(x, full):
            if table[x | y] + table[x & y] > rx + table[y]:
                out.append(f"submodularity fails at A={_bits(x)} B={_bits(y)}")
                if len(out) >= 5:
                    return out
    return out


def check_double_partition(inst: RotaInstance, dp: DoublePartition) -> None:
    """Raise unless beta is a basis partition and tau a transversal partition."""
    n = inst.n
    if len(dp.beta) != n:
        raise ValueError(f"expected {n} parts, got {len(dp.beta)}")
    if not is_disjoint_union_of_bases(inst.matroid, dp.beta):
        raise ValueError("beta is not a partition into disjoint bases")
    covered: set[int] = set()
    for j, t in enumerate(dp.tau):
        if covered & t:
            raise ValueError(f"tau_{j} overlaps an earlier transversal")
        covered |= t
        for i, b in enumerate(inst.bases):
            if len(t & b) != 1:
                raise ValueError(f"tau_{j} meets B_{i} in {len(t & b)} elements")
    if len(covered) != inst.matroid.ground.size:
        raise ValueError("tau does not cover the ground set")
