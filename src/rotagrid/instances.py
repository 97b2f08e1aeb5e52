"""Built-in problem instances, catalog generators, and the n=3 sweep.

The named instances are the known small obstructions to two-column grid
completion -- the graphic matroid of K4 with its non-incident edge pairs,
and the eight-point rank-4 matroid J in its standard vector coordinates --
plus the dependent-row family: McDiarmid's K4-with-doubled-spokes
multigraph and, generally, odd wheels with duplicated spokes.

The sweep decides every admissible row family over a rank-3 matroid on nine
elements by solving the maximal ones up to row order; an unsolvable family
would be a counterexample to three-column grid completion and is reported
verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .grid import (NOT_REQUIRED, REQUIRED, GridInstance, find_basis_partition,
                   solve)
from .matroid import BasesRep, GraphicRep, LinearRep, MatroidOracle

SAT = "SAT"
UNSAT = "UNSAT"
SWEEP = "SWEEP"


@dataclass(frozen=True)
class NamedInstance:
    name: str
    instance: GridInstance
    expected: str          # SAT | UNSAT | SWEEP
    note: str


@dataclass(frozen=True)
class SweepReport:
    matroid: str
    families: int
    sat: int
    unsat: int
    unsat_examples: tuple[tuple[tuple[int, ...], ...], ...]

    def to_dict(self) -> dict:
        return {
            "matroid": self.matroid,
            "families": self.families,
            "sat": self.sat,
            "unsat": self.unsat,
            "examples_of_unsat": [[list(r) for r in fam]
                                  for fam in self.unsat_examples],
        }


# ---------------------------------------------------------------------------
# named instances


def complete_graph_matroid(v: int, name: str = "") -> MatroidOracle:
    edges = []
    names = []
    for u in range(v):
        for w in range(u + 1, v):
            edges.append((u, w))
            names.append(f"{u + 1}{w + 1}")
    return MatroidOracle(GraphicRep(v, tuple(edges)), names=names,
                         name=name or f"k{v}")


def k4_c2_instance() -> NamedInstance:
    """M(K4) with the three pairs of non-incident edges as rows (3 x 2)."""
    m = complete_graph_matroid(4, name="k4-c2")
    # element order: 12, 13, 14, 23, 24, 34
    rows = (frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3}))
    inst = GridInstance(m, 3, 2, rows, REQUIRED)
    return NamedInstance(
        "k4-c2", inst, UNSAT,
        "graphic matroid of K4; rows pair each edge with its non-incident "
        "partner; no pair of disjoint spanning trees respects the rows")


_J_VECTORS = (
    (-2, 3, 0, 1), (0, 0, 1, 1),
    (0, 2, 0, 1), (1, 0, 3, 1),
    (1, 0, 0, 1), (0, 1, 2, 1),
    (0, 1, 0, 1), (4, 0, 0, 1),
)


def oxley_j_instance() -> NamedInstance:
    """The matroid J as eight vectors in Q^4, rows pairing them off (4 x 2)."""
    names = ["(" + ",".join(str(x) for x in v) + ")" for v in _J_VECTORS]
    m = MatroidOracle(LinearRep.from_columns(_J_VECTORS), names=names,
                      name="oxley-j")
    rows = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(4))
    inst = GridInstance(m, 4, 2, rows, REQUIRED)
    return NamedInstance(
        "oxley-j", inst, UNSAT,
        "rank-4 vector matroid J on eight points; the four printed pairs "
        "admit no two-column completion")


def mcdiarmid_instance() -> NamedInstance:
    """K4 plus a copy of each edge at vertex 4; dependent rows (3 x 3)."""
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 3), (1, 3), (2, 3))
    names = ["12", "13", "14", "23", "24", "34", "14'", "24'", "34'"]
    m = MatroidOracle(GraphicRep(4, edges), names=names, name="mcdiarmid")
    rows = (frozenset({2, 6, 3}),    # 14, 14', 23
            frozenset({4, 7, 1}),    # 24, 24', 13
            frozenset({5, 8, 0}))    # 34, 34', 12
    inst = GridInstance(m, 3, 3, rows, NOT_REQUIRED)
    return NamedInstance(
        "mcdiarmid", inst, UNSAT,
        "each row holds both copies of a spoke at vertex 4 plus the opposite "
        "rim edge; rows are dependent, and no grid exists")


def wheel_matroid(k: int, spoke_copies: int, name: str = "") -> MatroidOracle:
    """Wheel on hub + k rim vertices; each spoke repeated `spoke_copies` times.

    Element order: rim edges r_0..r_{k-1} (r_i joins rim vertices i, i+1 mod
    k), then the copies of spoke 0, spoke 1, ...  The hub is vertex k.
    """
    edges = [(i, (i + 1) % k) for i in range(k)]
    names = [f"r{i}" for i in range(k)]
    for i in range(k):
        for t in range(spoke_copies):
            edges.append((k, i))
            names.append(f"s{i}.{t}")
    return MatroidOracle(GraphicRep(k + 1, tuple(edges)), names=names,
                         name=name or f"wheel{k}x{spoke_copies}")


def odd_wheel_instance(k: int, rim_shift: int | None = None) -> NamedInstance:
    """Odd wheel with k-1 copies of each spoke; k x k grid, dependent rows.

    Row i holds every copy of spoke i plus one rim edge; by default the rim
    edge antipodal to spoke i (shift (k-1)/2, which reproduces the
    K4-with-doubled-spokes instance at k = 3).  Any other shift in 1..k-1
    still assigns each rim edge to exactly one row and can be probed via
    `rim_shift` -- the default pairing is an interpretation validated by the
    solver, not a theorem.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("odd wheels need odd k >= 3")
    shift = (k - 1) // 2 if rim_shift is None else rim_shift
    if not 0 < shift < k:
        raise ValueError(f"rim shift must be in 1..{k - 1}")
    m = wheel_matroid(k, k - 1, name=f"odd-wheel-{k}")
    rows = []
    for i in range(k):
        spokes = {k + i * (k - 1) + t for t in range(k - 1)}
        rows.append(frozenset(spokes | {(i + shift) % k}))
    inst = GridInstance(m, k, k, tuple(rows), NOT_REQUIRED)
    return NamedInstance(
        f"odd-wheel-{k}", inst, UNSAT,
        f"wheel with {k - 1} copies of each of its {k} spokes; row i holds "
        f"spoke i's copies plus the rim edge {shift} steps around")


def uniform_matroid(r: int, m: int, name: str = "") -> MatroidOracle:
    """U_{r,m} as an explicit basis family."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    bases = frozenset(frozenset(c) for c in combinations(range(m), r))
    return MatroidOracle(BasesRep(r, bases), name=name or f"u{r}{m}",
                         ground_size=m)


def u39_instance() -> NamedInstance:
    """U_{3,9} with the three consecutive triples as rows; sweep seed matroid."""
    m = uniform_matroid(3, 9, name="u39")
    rows = (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}))
    inst = GridInstance(m, 3, 3, rows, REQUIRED)
    return NamedInstance(
        "u39", inst, SWEEP,
        "uniform rank-3 matroid on nine elements; canonical sweep target, "
        "trivially completable for every admissible row family")


_BUILTINS = {
    "k4-c2": k4_c2_instance,
    "oxley-j": oxley_j_instance,
    "mcdiarmid": mcdiarmid_instance,
    "u39": u39_instance,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS) + ["odd-wheel-<k>"]


def builtin_instance(name: str) -> NamedInstance:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("odd-wheel-"):
        try:
            k = int(name[len("odd-wheel-"):])
        except ValueError:
            raise KeyError(f"unknown instance {name!r}") from None
        return odd_wheel_instance(k)
    raise KeyError(f"unknown instance {name!r}")


# ---------------------------------------------------------------------------
# catalog generators

# node budget for the partition search inside generator redraw loops; a draw
# that exhausts it is simply redrawn, deterministically
_GENERATOR_SEARCH_CAP = 200_000


def random_linear_matroid(rank: int, m: int, seed: int,
                          entry_bound: int = 2) -> MatroidOracle:
    """Seeded random integer-entry rank-`rank` matroid on m elements.

    Redraws until the full column set has the requested rank and the ground
    set splits into m/rank disjoint bases, so every generated matroid is a
    valid grid-instance carrier.  Same seed, same matroid.
    """
    if m % rank != 0:
        raise ValueError("element count must be a multiple of the rank")
    rng = random.Random(seed)
    while True:
        cols = tuple(tuple(Fraction(rng.randint(-entry_bound, entry_bound))
                           for _ in range(rank)) for _ in range(m))
        oracle = MatroidOracle(LinearRep(rank, cols),
                               name=f"linear-r{rank}-m{m}-s{seed}")
        if oracle.rank_total != rank:
            continue
        if find_basis_partition(oracle, m // rank,
                                node_cap=_GENERATOR_SEARCH_CAP) is not None:
            return oracle


def random_graphic_matroid(vertices: int, m: int, seed: int) -> MatroidOracle:
    """Seeded random loopless multigraph whose edges split into spanning trees."""
    rank = vertices - 1
    if m % rank != 0:
        raise ValueError("edge count must be a multiple of vertices-1")
    rng = random.Random(seed)
    while True:
        edges = []
        for _ in range(m):
            u = rng.randrange(vertices)
            w = rng.randrange(vertices - 1)
            if w >= u:
                w += 1
            edges.append((min(u, w), max(u, w)))
        oracle = MatroidOracle(GraphicRep(vertices, tuple(edges)),
                               name=f"graphic-v{vertices}-m{m}-s{seed}")
        if oracle.rank_total != rank:
            continue
        if find_basis_partition(oracle, m // rank,
                                node_cap=_GENERATOR_SEARCH_CAP) is not None:
            return oracle


def random_rota_instance(n: int, seed: int):
    """Seeded rank-n Rota instance over a random linear matroid on n^2 points."""
    from .descent import RotaInstance

    oracle = random_linear_matroid(n, n * n, seed)
    parts = find_basis_partition(oracle, n)
    assert parts is not None   # generator guarantees a split exists
    return RotaInstance(oracle, parts)


# ---------------------------------------------------------------------------
# the n = 3 sweep


def enumerate_row_families(oracle: MatroidOracle, rows: int = 3,
                           cap: int = 3, require_independent: bool = True,
                           ) -> Iterator[tuple[frozenset[int], ...]]:
    """All ordered tuples of pairwise-disjoint row sets with |I_i| <= cap.

    Every element independently joins one row or none; a candidate row is
    pruned as soon as it exceeds the size cap or (when required) goes
    dependent, which is exact because independence is hereditary.
    """
    m = oracle.ground.size
    table = oracle.build_rank_table() if m <= 12 else None
    masks = [0] * rows
    sizes = [0] * rows

    def indep(mask: int) -> bool:
        if table is not None:
            return table[mask] == bin(mask).count("1")
        return oracle.rank([i for i in range(m) if mask >> i & 1]) \
            == bin(mask).count("1")

    def rec(e: int) -> Iterator[tuple[frozenset[int], ...]]:
        if e == m:
            yield _row_sets(masks, m)
            return
        bit = 1 << e
        for r in range(-1, rows):
            if r < 0:
                yield from rec(e + 1)
                continue
            if sizes[r] == cap:
                continue
            nxt = masks[r] | bit
            if require_independent and not indep(nxt):
                continue
            masks[r] = nxt
            sizes[r] += 1
            yield from rec(e + 1)
            sizes[r] -= 1
            masks[r] &= ~bit

    yield from rec(0)


def _row_sets(masks: Sequence[int], m: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(e for e in range(m) if mask >> e & 1)
                 for mask in masks)


def _count_families(indep: Sequence[int], m: int) -> int:
    """Exact number of families `enumerate_row_families` yields (3 rows, cap 3).

    h[S] counts the independent sets inside S (a subset-sum transform);
    the third row of a family with first rows A, B is any independent subset
    of the complement of A | B.  Every independent set of a rank-3 matroid
    has at most 3 elements, so the size cap is implied.
    """
    full = (1 << m) - 1
    h = [0] * (1 << m)
    for s in indep:
        h[s] = 1
    for e in range(m):
        bit = 1 << e
        for s in range(1 << m):
            if s & bit:
                h[s] += h[s ^ bit]
    return sum(h[full & ~(a | b)] for a in indep for b in indep if not a & b)


def _canonical_maximal_families(table: Sequence[int], indep: Sequence[int],
                                m: int) -> Iterator[tuple[int, int, int]]:
    """Row masks a <= b <= c of every maximal family over a rank-3 matroid.

    A family is maximal when no unused element can join a row of size
    under 3 and keep it independent.  `ext[s]` holds the elements outside s
    that keep s independent (none once s is full), so maximality says the
    third row contains every element the first two rows could still take,
    and takes nothing more itself.
    """
    full = (1 << m) - 1
    ext = {}
    for s in indep:
        ext[s] = 0
        if table[s] < 3:
            for e in range(m):
                bit = 1 << e
                if not s & bit and table[s | bit] > table[s]:
                    ext[s] |= bit
    for a in indep:
        for b in indep:
            if b < a or a & b:
                continue
            rest = full & ~(a | b)
            need = (ext[a] | ext[b]) & rest
            if need not in ext:       # the third row could not hold it
                continue
            for c in indep:
                if c >= b and not c & ~rest and c & need == need \
                        and not ext[c] & rest:
                    yield a, b, c


def _sweep_exhaustive(oracle: MatroidOracle) -> SweepReport:
    families = sat = unsat = 0
    examples = []
    for rows in enumerate_row_families(oracle):
        inst = GridInstance(oracle, 3, 3, rows, REQUIRED)
        families += 1
        if solve(inst).status == SAT:
            sat += 1
        else:
            unsat += 1
            if len(examples) < 16:
                examples.append(tuple(tuple(sorted(r)) for r in rows))
    return SweepReport(oracle.name or "matroid", families, sat, unsat,
                       tuple(sorted(examples)))


def verify_c3_for_matroid(oracle: MatroidOracle, processes: int = 1) -> SweepReport:
    """Decide every admissible independent row family over `oracle`.

    Requires a rank-3 matroid on nine elements that is a disjoint union of
    three bases.  Reports totals and every unsolvable family verbatim (up to
    16 retained examples); any nonzero `unsat` is a counterexample to
    three-column grid completion.

    Only the maximal families with row masks in nondecreasing order are
    solved.  That is exact: a grid for rows I'_i containing I_i is a grid for
    the rows I_i, and permuting the rows of a grid gives a grid for the
    permuted rows, so every family is solvable once each of these is.  The
    family total is counted without enumerating the families.  Should a
    maximal family be unsolvable, every family is enumerated and solved,
    which yields the exact `sat`, `unsat` and examples.  `processes` is accepted
    for compatibility and ignored: the sweep runs in the calling process.
    """
    m = oracle.ground.size
    if m != 9:
        raise ValueError(f"sweep needs 9 elements, got {m}")
    if oracle.rank_total != 3:
        raise ValueError(f"sweep needs rank 3, got {oracle.rank_total}")
    if find_basis_partition(oracle, 3) is None:
        raise ValueError("sweep needs a disjoint union of three bases")

    table = oracle.build_rank_table()
    indep = [s for s in range(1 << m) if table[s] == bin(s).count("1")]
    for masks in _canonical_maximal_families(table, indep, m):
        inst = GridInstance(oracle, 3, 3, _row_sets(masks, m), REQUIRED)
        if solve(inst).status != SAT:
            return _sweep_exhaustive(oracle)
    families = _count_families(indep, m)
    return SweepReport(oracle.name or "matroid", families, families, 0, ())


def c3_catalog(seed: int = 0, linear: int = 25, graphic: int = 25):
    """The sweep catalog: U_{3,9} plus seeded random linear and graphic matroids."""
    out = [uniform_matroid(3, 9, name="u39")]
    for i in range(linear):
        out.append(random_linear_matroid(3, 9, seed * 1000 + i))
    for i in range(graphic):
        out.append(random_graphic_matroid(4, 9, seed * 1000 + 500 + i))
    return out
