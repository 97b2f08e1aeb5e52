"""Built-in problem instances, catalog generators, and the row-family sweep.

The named instances are the known small obstructions to two-column grid
completion -- the graphic matroid of K4 with its non-incident edge pairs,
and the eight-point rank-4 matroid J in its standard vector coordinates --
plus the dependent-row family: McDiarmid's K4-with-doubled-spokes
multigraph and, generally, odd wheels with duplicated spokes.

The sweep decides every admissible row family over a rank-n matroid on
nk <= 12 elements by solving the maximal ones, one per orbit under row
order and swaps of clones.  It generates only the class-canonical family
of each orbit instead of filtering all of them, and reports unsolvable
families verbatim: at k = 3 a counterexample to three-column grid
completion, at k = 2 the known obstructions of M(K4) and J.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Iterator, Sequence

from .descent import RotaInstance
from .grid import (NOT_REQUIRED, REQUIRED, GridInstance, find_basis_partition,
                   solve, splits_into_bases)
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


def k4_c2_instance() -> NamedInstance:
    """M(K4) with the three pairs of non-incident edges as rows (3 x 2)."""
    # element order: 12, 13, 14, 23, 24, 34
    edges = tuple(combinations(range(4), 2))
    names = [f"{u + 1}{w + 1}" for u, w in edges]
    m = MatroidOracle(GraphicRep(4, edges), names=names, name="k4-c2")
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
    m = MatroidOracle(LinearRep(4, _J_VECTORS), names=names,
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


def odd_wheel_instance(k: int) -> NamedInstance:
    """Odd wheel with k-1 copies of each spoke; k x k grid, dependent rows.

    Elements: the rim edges r_i (rim vertices i, i+1 mod k), then the
    copies s_i.t of spoke 0, spoke 1, ... to the hub, vertex k.  Row i
    holds every copy of spoke i plus the rim edge antipodal to it, (k-1)/2
    steps around, which reproduces the K4-with-doubled-spokes instance at
    k = 3.  The pairing is an interpretation validated by the solver, not a
    theorem.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("odd wheels need odd k >= 3")
    shift = (k - 1) // 2
    spokes = [(i, t) for i in range(k) for t in range(k - 1)]
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k, i) for i, _ in spokes]
    names = [f"r{i}" for i in range(k)] + [f"s{i}.{t}" for i, t in spokes]
    m = MatroidOracle(GraphicRep(k + 1, tuple(edges)), names=names,
                      name=f"odd-wheel-{k}")
    rows = tuple(frozenset(range(k + i * (k - 1), k + (i + 1) * (k - 1)))
                 | {(i + shift) % k} for i in range(k))
    inst = GridInstance(m, k, k, rows, NOT_REQUIRED)
    return NamedInstance(
        f"odd-wheel-{k}", inst, UNSAT,
        f"wheel with {k - 1} copies of each of its {k} spokes; row i holds "
        f"spoke i's copies plus the rim edge {shift} steps around")


def uniform_matroid(r: int, m: int, name: str = "") -> MatroidOracle:
    """U_{r,m} as an explicit basis family."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    return MatroidOracle(BasesRep(r, combinations(range(m), r)),
                         name=name or f"u{r}{m}", ground_size=m)


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
        # int() also reads "05", "+5", "0_5" and non-ASCII digits; only the
        # canonical spelling names the instance returned
        if name == f"odd-wheel-{k}":
            return odd_wheel_instance(k)
    raise KeyError(f"unknown instance {name!r}")


# ---------------------------------------------------------------------------
# catalog generators

def _linear_draw(rank: int, m: int, seed: int):
    """`random_linear_matroid`'s draw together with its least partition."""
    if rank < 1 or m < 0:
        raise ValueError(f"need rank >= 1 and m >= 0, got rank {rank}, m {m}")
    if m % rank != 0:
        raise ValueError("element count must be a multiple of the rank")
    rng = random.Random(seed)
    while True:
        ints = tuple(tuple([rng.randint(-2, 2)
                            for _ in range(rank)]) for _ in range(m))
        oracle = MatroidOracle(LinearRep(rank, ints),
                               name=f"linear-r{rank}-m{m}-s{seed}")
        parts = find_basis_partition(oracle, m // rank)
        if parts is not None:
            return oracle, parts


def random_linear_matroid(rank: int, m: int, seed: int) -> MatroidOracle:
    """Seeded random rank-`rank` matroid on m columns with entries in -2..2.

    Redraws until the full column set has the requested rank and the ground
    set splits into m/rank disjoint bases, so every generated matroid is a
    valid grid-instance carrier.  Same seed, same matroid.
    """
    return _linear_draw(rank, m, seed)[0]


def random_graphic_matroid(vertices: int, m: int, seed: int) -> MatroidOracle:
    """Seeded random loopless multigraph whose edges split into spanning trees."""
    if vertices < 2 or m < 0:
        raise ValueError(f"need vertices >= 2 and m >= 0, got vertices "
                         f"{vertices}, m {m}")
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
        if splits_into_bases(oracle, (1 << m) - 1, m // rank):
            return oracle


def random_rota_instance(n: int, seed: int):
    """Seeded rank-n Rota instance over a random linear matroid on n^2 points,
    its rows the least partition into n bases."""
    return RotaInstance(*_linear_draw(n, n * n, seed))


# ---------------------------------------------------------------------------
# the sweep


def enumerate_row_families(oracle: MatroidOracle,
                           ) -> Iterator[tuple[frozenset[int], ...]]:
    """All ordered tuples of rank-many disjoint independent rows, each of
    at most m/rank elements.

    Every element independently joins one row or none; a candidate row is
    pruned as soon as it exceeds the size cap or goes dependent, which is
    exact because independence is hereditary.
    """
    m = oracle.ground.size
    rows = oracle.rank_total
    cap = m // max(rows, 1)
    table = oracle.build_rank_table()
    masks = [0] * rows
    sizes = [0] * rows

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
            if table[nxt] != sizes[r] + 1:
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


def _count_families(indep: Sequence[int], n: int, m: int) -> int:
    """Exact number of families `enumerate_row_families` yields: ordered
    n-tuples of disjoint sets from `indep`, which may be any set of masks.
    By ranked subset convolution (Bjorklund, Husfeldt, Kaski and Koivisto
    2007): with F_S(x) the sum of x^|T| over the T in `indep` inside S and
    P_j the sum of F_S(x)^n over |S| = j, the count is the sum over j of
    (-1)^(m-j) [x^m] P_j(x) (1+x)^j.  That coefficient counts the n-tuples
    plus a free (n+1)-th part, all inside S, of total size m; inclusion-
    exclusion over S keeps those that cover all m elements: disjoint ones.
    A polynomial is one int with a field of w bits per degree.  Every
    coefficient is nonnegative and at most the value at x = 1, at most
    C(m, j) 2^(jn) 2^j <= 2^(m(n+2)) < 2^w, so no field ever overflows.
    """
    w = m * (n + 2) + 1
    f = [0] * (1 << m)
    for s in indep:
        f[s] = 1 << w * s.bit_count()
    for _ in range(m):        # zeta over bit 0, then rotate bit 1 to bit 0
        low = f[::2]
        f = low + list(map(add, f[1::2], low))
    p = [0] * (m + 1)
    for s, fs in enumerate(f):
        p[s.bit_count()] += fs ** n
    field = (1 << w) - 1
    return sum((-1) ** (m - j) * (pj * (1 + (1 << w)) ** j >> w * m & field)
               for j, pj in enumerate(p))


def _orbit_maximal_families(table: Sequence[int], indep: Sequence[int],
                            classes: Sequence[Sequence[int]],
                            n: int, k: int, m: int,
                            ) -> Iterator[tuple[int, ...]]:
    """Row masks of one maximal family of n rows, cap k, per clone orbit.

    The orbits are those of row permutations and of permutations inside
    the clone classes.  A family is maximal when no unused element can
    join a row of size under k and keep it independent.  `ext[s]` holds
    the elements outside s that keep s independent (none once s is full),
    so maximality says the last row contains every element the other rows
    could still take, and takes nothing more itself.  So a prefix is cut
    once the elements its rows could still take, outside `used`, outnumber
    the k places in each row left to absorb them.

    The families yielded are the class-canonical ones:
    - prefix placement: each row takes, from every clone class, the least
      members that earlier rows left unused.  With pred(s) the union of
      the smaller class-mates of the members of s, that is
      `pred(s) & ~(used | s) == 0`: `lack`, the part of pred(s) outside
      s, is all used;
    - canon order: the rows' canons (`_clone_canon`) do not decrease.
      The sets are walked in (canon, mask) order, and each row starts at
      the first set with the previous row's canon.

    Exactly one per orbit.  A canon fixes a row's count in every class,
    and given the earlier rows, prefix placement admits one set per canon.
    So a sorted sequence of canons, that is, a multiset of rows read as
    class counts, gives at most one family.  Every orbit has one: sort a
    family's rows by canon, then in each class C map the members of the
    first row to the least members of C, those of the second row to the
    next ones, and so on.  That permutation stays inside the classes, so
    it is an automorphism, which keeps maximality.  With no clones every
    `lack` is 0 and the walk is the walk over mask-sorted families.
    """
    full = (1 << m) - 1
    canon = _clone_canon(classes, indep)
    smaller = [0] * m
    for cls in classes:
        for j, e in enumerate(cls):
            smaller[e] = sum(1 << f for f in cls[:j])
    items, first = [], {}
    for s in sorted(indep, key=lambda s: (canon[s], s)):
        ext = lack = 0
        for e in range(m):
            bit = 1 << e
            if s & bit:
                lack |= smaller[e]
            elif table[s] < k and table[s | bit] > table[s]:
                ext |= bit
        lack &= ~s
        first.setdefault(canon[s], len(items))
        items.append((s, lack, ext, first[canon[s]]))
    independent = set(indep)

    def extend(start: int, used: int, reach: int, rows: tuple) -> Iterator:
        if len(rows) < n - 1:
            room = k * (n - 1 - len(rows))     # in the rows after row a
            for a, lack, ext, nxt in items[start:]:
                if (not a & used and lack & used == lack
                        and ((reach | ext) & ~(used | a)).bit_count() <= room):
                    yield from extend(nxt, used | a, reach | ext, rows + (a,))
            return
        rest = full & ~used
        need = reach & rest
        if need in independent:    # else the last row could not hold it
            for c, lack, ext, _ in items[start:]:
                if (not c & used and c & need == need and not ext & rest
                        and lack & used == lack):
                    yield rows + (c,)

    yield from extend(0, 0, 0, ())


def _clone_classes(table: Sequence[int], m: int) -> list[list[int]]:
    """The clone classes of the elements, each in increasing order.

    Elements e, f are clones when r(S + e) = r(S + f) for every S avoiding
    both, that is, when swapping them keeps every rank (Geelen, Oxley,
    Vertigan and Whittle 2002).  A conjugate of an automorphism is one, so
    (e g) = (e f)(f g)(e f) makes the relation transitive, and each element
    is compared with the least member of each class found so far.
    """
    full = (1 << m) - 1

    def clones(e: int, f: int) -> bool:
        be, bf = 1 << e, 1 << f
        rest = full & ~(be | bf)
        s = 0                   # the subsets of rest, in increasing order
        while table[s | be] == table[s | bf]:
            s = (s - rest) & rest
            if not s:
                return True
        return False

    classes: list[list[int]] = []
    for e in range(m):
        cls = next((c for c in classes if clones(c[0], e)), None)
        if cls is None:
            classes.append([e])
        else:
            cls.append(e)
    return classes


def _clone_canon(classes: Sequence[Sequence[int]], sets: Sequence[int],
                 ) -> dict[int, int]:
    """Each set mapped to the one that takes, from every clone class C,
    its |set & C| least members: equal images mean a permutation inside
    the classes maps one set onto the other."""
    masks = [sum(1 << e for e in cls) for cls in classes]
    firsts = [[sum(1 << e for e in cls[:j]) for j in range(len(cls) + 1)]
              for cls in classes]
    return {s: sum(first[(s & mask).bit_count()]
                   for mask, first in zip(masks, firsts))
            for s in sets}


def _sweep_exhaustive(oracle: MatroidOracle, n: int, k: int) -> SweepReport:
    families = sat = unsat = 0
    examples = []
    for rows in enumerate_row_families(oracle):
        inst = GridInstance(oracle, n, k, rows, REQUIRED)
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

    The matroid fixes the shape: n rows, its rank, of at most k = m/n
    elements, with m <= 12 (the rank table's bound) and a split into k
    bases.  Reports totals and every unsolvable family verbatim (up to 16
    retained examples); at k = 3 any nonzero `unsat` is a counterexample to
    three-column grid completion.

    Only the maximal families are solved, one per orbit under row order
    and swaps of clones, each generated directly as its class-canonical
    representative (`_orbit_maximal_families`).  That is exact: a grid for
    rows I'_i containing I_i is a grid for the rows I_i, permuting the rows
    of a grid gives a grid for the permuted rows, and a permutation inside
    the clone classes is an automorphism, so it maps grids to grids.  The
    family total is counted without enumerating the families.  Should a
    solved family be unsolvable, every family is enumerated and solved,
    which yields the exact `sat`, `unsat` and examples.  `processes` is
    accepted for compatibility and ignored: the sweep runs in the calling
    process.
    """
    m, n = oracle.ground.size, oracle.rank_total
    if n < 1 or m % n or m > 12:
        raise ValueError(f"sweep needs rank n >= 1 on n*k <= 12 elements, "
                         f"got rank {n} on {m}")
    k = m // n
    if not splits_into_bases(oracle, (1 << m) - 1, k):
        raise ValueError(f"sweep needs a disjoint union of {k} bases")

    table = oracle.build_rank_table()
    indep = [s for s in range(1 << m) if table[s] == s.bit_count() <= k]
    classes = _clone_classes(table, m)
    for masks in _orbit_maximal_families(table, indep, classes, n, k, m):
        inst = GridInstance(oracle, n, k, _row_sets(masks, m), REQUIRED)
        if solve(inst).status != SAT:
            return _sweep_exhaustive(oracle, n, k)
    families = _count_families(indep, n, m)
    return SweepReport(oracle.name or "matroid", families, families, 0, ())


def c3_catalog(seed: int = 0):
    """The 51-matroid sweep catalog: U_{3,9}, then 25 random linear and 25
    random graphic matroids on nine elements, drawn from `seed`."""
    return ([uniform_matroid(3, 9, name="u39")]
            + [random_linear_matroid(3, 9, seed * 1000 + i) for i in range(25)]
            + [random_graphic_matroid(4, 9, seed * 1000 + 500 + i)
               for i in range(25)])
