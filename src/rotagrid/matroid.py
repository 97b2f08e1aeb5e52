"""Exact matroid rank oracles.

Three representations are supported: columns of exact rationals (linear),
edge lists of a multigraph (graphic), and an explicit family of bases.
Elements are always dense integer indices 0..m-1; display names are
metadata only.  Each representation decides independence in exactly one
place, its incremental tester; every rank, rank table and loop is computed
through that tester.  A full 2^m rank table is built only where a caller
asks for one (`build_rank_table`: the sweep, row-family enumeration, brute
force counts, the axiom audit); once built, ranks and testers read it.
Loops and parallel classes live in one per-element index (`class_ids`):
the tester finds the loops, and a key read off the representation (a
column's primitive direction, an edge's endpoints, the bases through an
element) groups the rest, which the tests check against the tester.  All
arithmetic is exact -- the linear tester eliminates over integers
(Bareiss), never floating point.  It packs each integer column into one int
of signed fields wide enough for every minor, so an elimination step is a
few operations on whole ints; an oracle packs its columns once and hands
them to its restrictions.  A greedy rank, like every other linear query,
reduces through the tester's `can_add` and `push`, the one copy of that
arithmetic.

A restriction M|S has M's rank on every subset of S, so whatever the rank
of small sets decides is M's too: an element of S is a loop of M|S iff it
is a loop of M, and two elements of S are parallel in M|S iff they are in
M.  A restriction's index is therefore M's taken at the elements of S, and
is never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterable, Sequence


def _inexact(x) -> TypeError:
    return TypeError(f"refusing inexact entry {x!r}; use int, Fraction, or 'a/b' string")


def _as_fraction(x) -> Fraction:
    # floats are rejected: rank decisions must be exact
    if isinstance(x, float):
        raise _inexact(x)
    return Fraction(x)


def _integer_column(col: Sequence) -> tuple[int, ...]:
    # the column times the lcm of its denominators: same span, integer
    # entries; only an int or a Fraction is an exact entry
    if all([type(x) is int for x in col]):
        return col
    for x in col:
        if not isinstance(x, (int, Fraction)):
            raise _inexact(x)
    scale = lcm(*[x.denominator for x in col])
    return tuple([x.numerator * (scale // x.denominator) for x in col])


@dataclass(frozen=True)
class GroundSet:
    """Dense element universe 0..size-1 with optional display names."""

    size: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("ground-set size must be nonnegative")
        if self.names is not None and len(self.names) != self.size:
            raise ValueError("one display name per element required")

    def label(self, e: int) -> str:
        return self.names[e] if self.names is not None else str(e)


@dataclass(frozen=True)
class LinearRep:
    """m column vectors of length dim over the rationals, each entry an
    `int` or a `Fraction`."""

    dim: int
    columns: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dimension must be positive")
        for col in self.columns:
            if len(col) != self.dim:
                raise ValueError("column length mismatch")

    @staticmethod
    def from_columns(columns: Iterable[Sequence]) -> "LinearRep":
        cols = tuple(tuple(_as_fraction(x) for x in col) for col in columns)
        if not cols:
            raise ValueError("at least one column required")
        return LinearRep(len(cols[0]), cols)

    @property
    def size(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class GraphicRep:
    """Edge list of a multigraph; parallel edges and self-loops permitted.

    Edge index order is the element order.  A self-loop is a matroid loop.
    """

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertices <= 0:
            raise ValueError("vertex count must be positive")
        for u, w in self.edges:
            if not (0 <= u < self.vertices and 0 <= w < self.vertices):
                raise ValueError(f"edge ({u},{w}) outside vertex range")

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BasesRep:
    """Explicit basis family; all members must share cardinality `rank`."""

    rank: int
    bases: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if not self.bases:
            raise ValueError("basis family must be nonempty")
        for b in self.bases:
            if len(b) != self.rank:
                raise ValueError("all bases must have cardinality equal to the rank")

    @staticmethod
    def from_sets(rank: int, bases: Iterable[Iterable[int]]) -> "BasesRep":
        return BasesRep(rank, frozenset(frozenset(b) for b in bases))

    @property
    def size(self) -> int:
        return max((max(b) for b in self.bases if b), default=-1) + 1


Representation = LinearRep | GraphicRep | BasesRep


class MatroidOracle:
    """Immutable exact rank oracle over one representation.

    A rank query reads the rank table once one is built, and otherwise grows
    a greedy independent subset with a fresh tester.  After construction the
    only mutations are the lazily built table and class index; a restriction
    is handed its index by `restrict`.  `ground_size` must be the size of a
    linear or graphic representation; a basis family may be padded with
    trailing loops.
    """

    def __init__(self, rep: Representation, names: Sequence[str] | None = None,
                 name: str = "", ground_size: int | None = None, _packing=None):
        self.rep = rep
        m = rep.size if ground_size is None else ground_size
        if isinstance(rep, BasesRep):
            if rep.size > m:
                raise ValueError("basis family references elements outside the ground set")
        elif m != rep.size:
            raise ValueError(f"ground size {m} differs from the {rep.size} "
                             f"elements of the representation")
        self.ground = GroundSet(m, tuple(names) if names is not None else None)
        self.name = name
        self.parent_elements: tuple[int, ...] | None = None
        self._table: list[int] | None = None
        self._class_ids: list[int] | None = None
        # no subset's rank exceeds the ceiling, so a greedy scan stops there
        if isinstance(rep, BasesRep):
            self._basis_masks = tuple(sorted(_mask(b) for b in rep.bases))
            self._ceiling = rep.rank
        elif isinstance(rep, LinearRep):
            if _packing is None:
                # the integer columns are kept for `_parallel_key`; a
                # restriction inherits its class index and gets the packing
                self._columns = tuple([_integer_column(c) for c in rep.columns])
                _packing = _pack(self._columns, rep.dim)
            self._packing = _packing
            self._ceiling = rep.dim
        else:
            # the testers' union-find holds only the endpoints the edges
            # touch, numbered once by first appearance, not every vertex
            ids: dict[int, int] = {}
            edges = tuple((ids.setdefault(u, len(ids)), ids.setdefault(w, len(ids)))
                          for u, w in rep.edges)
            self._touched = len(ids), edges
            self._ceiling = len(ids) - 1
        self.rank_total = tester_for(self).rank(range(m), self._ceiling)

    def __repr__(self):
        kind = type(self.rep).__name__
        return f"MatroidOracle({self.name or kind}, m={self.ground.size}, rank={self.rank_total})"

    def _sorted(self, elems: Iterable[int]) -> list[int]:
        # the distinct elements in increasing order; the two ends decide
        # whether any lies outside the ground set
        elems = sorted(set(elems))
        m = self.ground.size
        if elems and (elems[0] < 0 or elems[-1] >= m):
            bad = elems[0] if elems[0] < 0 else elems[-1]
            raise IndexError(f"element {bad} outside ground set of size {m}")
        return elems

    def rank(self, elems: Iterable[int]) -> int:
        return tester_for(self).rank(self._sorted(elems), self._ceiling)

    def is_independent(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        return self.rank(s) == len(s)

    def is_basis(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        return len(s) == self.rank_total and self.rank(s) == len(s)

    def class_ids(self) -> list[int]:
        """Per element, the index of its parallel class, -1 for a loop.

        Two non-loops are parallel (rank{e,f} = 1) iff their keys are
        equal: the primitive integer direction of a column, the endpoint
        pair of an edge, or the sets B - e over the bases B containing e (no
        basis holds both).  An oracle numbers its classes by first
        appearance; a restriction keeps its parent's numbers (`restrict`).
        """
        if self._class_ids is None:
            tester = tester_for(self)
            index: dict = {}
            self._class_ids = [
                index.setdefault(self._parallel_key(e), len(index))
                if tester.can_add(e) else -1 for e in range(self.ground.size)]
        return self._class_ids

    def loops(self) -> frozenset[int]:
        return frozenset([e for e, c in enumerate(self.class_ids()) if c < 0])

    def parallel_classes(self) -> tuple[tuple[int, ...], ...]:
        """Non-loop elements grouped by their class index, classes ordered
        by least element, members increasing."""
        groups: dict = {}
        for e, c in enumerate(self.class_ids()):
            if c >= 0:
                groups.setdefault(c, []).append(e)
        return tuple(map(tuple, groups.values()))

    def _parallel_key(self, e: int):
        rep = self.rep
        if isinstance(rep, LinearRep):
            col = self._columns[e]
            g = gcd(*col) * (1 if next(x for x in col if x) > 0 else -1)
            return tuple([x // g for x in col])
        if isinstance(rep, GraphicRep):
            return frozenset(rep.edges[e])
        bit = 1 << e
        return frozenset([bm ^ bit for bm in self._basis_masks if bm & bit])

    def restrict(self, subset: Iterable[int]) -> "MatroidOracle":
        """Restriction to `subset`, re-indexed densely in sorted order.

        The returned oracle's ``parent_elements[i]`` is the original index of
        its element ``i``; its rank function agrees with this oracle on every
        subset of `subset`.  Loops and parallel pairs are decided by ranks of
        sets of at most two elements, so the restriction's class index is
        this oracle's taken at `subset`, never recomputed.
        """
        elems = self._sorted(subset)
        names = None
        if self.ground.names is not None:
            names = tuple(self.ground.names[e] for e in elems)
        rep = self.rep
        packing = None
        if isinstance(rep, LinearRep):
            sub_rep: Representation = LinearRep(rep.dim, tuple(rep.columns[e] for e in elems))
            # a subset's minors are minors of these columns, so the width
            # still decodes them
            packed, width, bias = self._packing
            packing = (tuple([packed[e] for e in elems]), width, bias)
        elif isinstance(rep, GraphicRep):
            sub_rep = GraphicRep(rep.vertices, tuple(rep.edges[e] for e in elems))
        else:
            sub_rep = _restrict_bases(rep, elems, self.rank(elems))
        sub = MatroidOracle(sub_rep, names=names, name=self.name,
                            ground_size=len(elems), _packing=packing)
        sub.parent_elements = tuple(elems)
        ids = self.class_ids()
        sub._class_ids = [ids[e] for e in elems]
        return sub

    def build_rank_table(self) -> list[int]:
        """Precompute rank for all 2^m subsets (m <= 12); idempotent.

        One depth-first walk adds elements in increasing order.  The tester
        always holds a basis of the current mask, so rank(mask + e) is
        rank(mask) plus whether e can still be added.  A mask that reaches
        the ceiling is a full stack, spanning tree or basis that no tester
        can grow, so its whole subtree -- the masks sub + j * 2**(e+1) --
        is filled with the ceiling in one slice.
        """
        if self._table is None:
            m = self.ground.size
            if m > 12:
                raise ValueError("rank table limited to 12 elements")
            table = [0] * (1 << m)
            tester = tester_for(self)
            ceiling = self._ceiling

            def extend(mask: int, start: int) -> None:
                for e in range(start, m):
                    sub = mask | 1 << e
                    grows = tester.can_add(e)
                    rank = table[mask] + grows
                    if rank == ceiling:
                        table[sub::2 << e] = [rank] * (1 << (m - e - 1))
                        continue
                    table[sub] = rank
                    if grows:
                        tester.push(e)
                    extend(sub, e + 1)
                    if grows:
                        tester.pop(e)

            extend(0, 0)
            self._table = table
        return self._table


def _bits(mask: int) -> list[int]:
    return [e for e, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _mask(elems: Iterable[int]) -> int:
    mask = 0
    for e in elems:
        mask |= 1 << e
    return mask


def _restrict_bases(rep: BasesRep, elems: list[int], sub_rank: int) -> BasesRep:
    # bases of the restriction = maximal independent subsets of `elems`,
    # i.e. all sub_rank-subsets of B ∩ elems over the original bases B
    pos = {e: i for i, e in enumerate(elems)}
    sub_bases = set()
    for b in rep.bases:
        inter = sorted([pos[e] for e in b if e in pos])
        if len(inter) >= sub_rank:
            sub_bases.update(map(frozenset, combinations(inter, sub_rank)))
    return BasesRep(sub_rank, frozenset(sub_bases))


# ---------------------------------------------------------------------------
# family-level checks


def find_exchange_violation(family: Iterable[Iterable[int]]):
    """First failure of the basis-exchange axiom, or None.

    Returns (A, x, B) such that no y in B \\ A makes (A - {x}) + {y} a member.
    Members are bitmasks, scanned as pairs (A, B) in the order of their
    sorted elements.  For each x in A, `swaps` keeps the mask of x and of
    every y outside A for which (A - {x}) + {y} is a member, so the pair
    fails at x exactly when B meets none of them.
    """
    fam = {frozenset(b) for b in family}
    if not fam:
        raise ValueError("empty basis family")
    sizes = {len(b) for b in fam}
    if len(sizes) != 1:
        raise ValueError("basis family members must share cardinality")
    ordered = sorted(fam, key=sorted)
    masks = [sum(1 << e for e in b) for b in ordered]
    members = set(masks)
    ground = range(max(max(b, default=0) for b in ordered) + 1)
    for a, ma in zip(ordered, masks):
        swaps = []
        for x in sorted(a):
            rest = ma ^ 1 << x
            swaps.append((x, sum(1 << y for y in ground
                                 if not rest >> y & 1
                                 and rest | 1 << y in members)))
        for b, mb in zip(ordered, masks):
            for x, z in swaps:
                if not z & mb:
                    return (a, x, b)
    return None


def is_disjoint_union_of_bases(oracle: MatroidOracle, parts: Sequence[Iterable[int]]) -> bool:
    """True iff `parts` are pairwise disjoint bases covering the ground set."""
    seen: set[int] = set()
    total = 0
    for part in parts:
        p = set(part)
        total += len(p)
        if seen & p or not oracle.is_basis(p):
            return False
        seen |= p
    return total == oracle.ground.size == len(seen)


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


# ---------------------------------------------------------------------------
# incremental independence testers (solver support)
#
# A tester maintains one growing/shrinking independent set with O(small)
# can_add / push / pop, avoiding a full rank computation per query.  Its
# verdicts agree with the owning oracle's rank function (property-tested).


class _Tester:
    __slots__ = ()

    def rank(self, elems: Iterable[int], ceiling: int) -> int:
        """Rank of the distinct `elems` on a tester that holds nothing yet,
        by growing a greedy independent subset, stopped at `ceiling`; the
        tester may be left holding that subset."""
        rank = 0
        for e in elems:
            if rank == ceiling:
                break
            if self.can_add(e):
                self.push(e)
                rank += 1
        return rank


class TableTester(_Tester):
    __slots__ = ("table", "mask", "size")

    def __init__(self, table: list[int]):
        self.table = table
        self.mask = 0
        self.size = 0

    def can_add(self, e: int) -> bool:
        return self.table[self.mask | (1 << e)] == self.size + 1

    def push(self, e: int) -> None:
        mask = self.mask | 1 << e
        if self.table[mask] != self.size + 1:
            raise ValueError(f"element {e} is dependent on the current set")
        self.mask = mask
        self.size += 1

    def pop(self, e: int) -> None:
        self.mask &= ~(1 << e)
        self.size -= 1


class LinearTester(_Tester):
    # Fraction-free (Bareiss) elimination over integer columns, each packed
    # into one int: coordinate i is a signed field of `width` bits at bit
    # i * width.  A stack entry is (pivot shift s, row w, element, pivot value
    # d); v reduces against it to (d * v - c * w) // d', c the field of v at s
    # and d' the pivot value of the entry before (1 for the first).
    #
    # Packing is linear and Sylvester's identity makes each coordinate's
    # division exact, so the packed arithmetic is exact whatever the width;
    # the width only has to make the fields decodable.  Every stored or
    # reduced coordinate is a minor of at most dim columns, so by Hadamard at
    # most H = sqrt(prod of the dim largest max(1, |col|^2)) in absolute
    # value, and width = ceil(bitlen(H^2) / 2) + 2 keeps H below
    # half = 2**(width - 1).  Adding `bias` (half in each of the dim fields)
    # turns every field into a nonnegative digit, so c is a shift and a mask;
    # v is zero iff each coordinate is; and the lowest set bit of v lies in
    # its first nonzero field, the pivot.
    __slots__ = ("columns", "width", "bias", "half", "fmask", "stack", "kept")

    def __init__(self, columns: Sequence[Sequence], _packing=None):
        if _packing is None:
            ints = [_integer_column(c) for c in columns]
            _packing = _pack(ints, len(ints[0]) if ints else 0)
        self.columns, self.width, self.bias = _packing
        self.half = 1 << self.width - 1
        self.fmask = (1 << self.width) - 1
        self.stack: list[tuple[int, int, int, int]] = []
        self.kept = (-1, 0)  # last can_add: (e, v)

    def can_add(self, e: int) -> bool:
        v = self.columns[e]
        bias, fmask, half = self.bias, self.fmask, self.half
        prev = 1
        for s, w, _, d in self.stack:
            v = (d * v - (((v + bias) >> s & fmask) - half) * w) // prev
            prev = d
        self.kept = (e, v)
        return v != 0

    def push(self, e: int) -> None:
        if self.kept[0] != e:  # else reuse the reduction can_add just made
            self.can_add(e)
        v = self.kept[1]
        self.kept = (-1, 0)
        if not v:
            raise ValueError(f"element {e} is dependent on the current set")
        s = ((v & -v).bit_length() - 1) // self.width * self.width
        self.stack.append((s, v, e, ((v + self.bias) >> s & self.fmask) - self.half))

    def pop(self, e: int) -> None:
        self.kept = (-1, 0)
        if self.stack.pop()[2] != e:
            raise ValueError("pop order must mirror push order")


def _pack(columns: Sequence[tuple[int, ...]], dim: int) -> tuple[tuple[int, ...], int, int]:
    """Integer columns packed for `LinearTester`: (packed columns, field
    width, bias), the width read off the Hadamard bound of the columns."""
    norms = sorted((max(1, sum([x * x for x in col])) for col in columns), reverse=True)
    width = (prod(norms[:dim]).bit_length() + 1) // 2 + 2
    half = 1 << width - 1
    packed = tuple(sum([x << i * width for i, x in enumerate(col)]) for col in columns)
    return packed, width, sum([half << i * width for i in range(dim)])


class GraphicTester(_Tester):
    __slots__ = ("edges", "parent", "compsize", "trail")

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        self.edges = edges
        self.parent = list(range(vertices))
        self.compsize = [1] * vertices
        self.trail: list[tuple[int, int, int]] = []  # (child_root, parent_root, element)

    def can_add(self, e: int) -> bool:
        ru, rw = self.edges[e]
        parent = self.parent
        while parent[ru] != ru:  # no path compression: keeps pops O(1)
            ru = parent[ru]
        while parent[rw] != rw:
            rw = parent[rw]
        return ru != rw

    def push(self, e: int) -> None:
        ru, rw = self.edges[e]
        parent = self.parent
        while parent[ru] != ru:
            ru = parent[ru]
        while parent[rw] != rw:
            rw = parent[rw]
        if ru == rw:
            raise ValueError(f"edge {e} closes a cycle")
        compsize = self.compsize
        if compsize[ru] > compsize[rw]:
            ru, rw = rw, ru
        parent[ru] = rw
        compsize[rw] += compsize[ru]
        self.trail.append((ru, rw, e))

    def pop(self, e: int) -> None:
        child, root, elem = self.trail.pop()
        if elem != e:
            raise ValueError("pop order must mirror push order")
        self.parent[child] = child
        self.compsize[root] -= self.compsize[child]


class BasesTester(_Tester):
    __slots__ = ("stack",)

    def __init__(self, basis_masks: Sequence[int]):
        self.stack: list[list[int]] = [list(basis_masks)]

    def can_add(self, e: int) -> bool:
        bit = 1 << e
        return any(bm & bit for bm in self.stack[-1])

    def push(self, e: int) -> None:
        bit = 1 << e
        nxt = [bm for bm in self.stack[-1] if bm & bit]
        if not nxt:
            raise ValueError(f"element {e} is dependent on the current set")
        self.stack.append(nxt)

    def pop(self, e: int) -> None:
        self.stack.pop()


def tester_for(oracle: MatroidOracle):
    """Fresh incremental tester: over the rank table if a caller has built
    one, else over the representation itself, the one place each
    representation decides independence.  It never builds a table."""
    if oracle._table is not None:
        return TableTester(oracle._table)
    rep = oracle.rep
    if isinstance(rep, LinearRep):
        return LinearTester((), oracle._packing)
    if isinstance(rep, GraphicRep):
        return GraphicTester(*oracle._touched)
    return BasesTester(oracle._basis_masks)
