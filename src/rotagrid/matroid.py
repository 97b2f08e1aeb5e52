"""Exact matroid rank oracles.

Three representations are supported: columns of exact rationals (linear),
edge lists of a multigraph (graphic), and an explicit family of bases.
Elements are always dense integer indices 0..m-1; display names are
metadata only.  Each representation decides independence in exactly one
place, its incremental tester; every rank, rank table, loop and parallel
class is computed through that tester.  All arithmetic is exact -- the
linear tester eliminates over fractions, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence


def _as_fraction(x) -> Fraction:
    # floats are rejected: rank decisions must be exact
    if isinstance(x, float):
        raise TypeError(f"refusing inexact entry {x!r}; use int, Fraction, or 'a/b' string")
    return Fraction(x)


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
    """m column vectors of length dim over the rationals."""

    dim: int
    columns: tuple[tuple[Fraction, ...], ...]

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

# Solver testers read a full 2^m rank table up to this ground-set size;
# beyond it they run the representation's own tester.
TABLE_SIZE_CAP = 10


class MatroidOracle:
    """Immutable exact rank oracle over one representation.

    A rank query reads the rank table once one is built, and otherwise grows
    a greedy independent subset with a fresh tester.  After construction the
    only mutations are the lazily built table, loops and parallel classes.
    """

    def __init__(self, rep: Representation, names: Sequence[str] | None = None,
                 name: str = "", ground_size: int | None = None):
        self.rep = rep
        m = rep.size if ground_size is None else ground_size
        if isinstance(rep, BasesRep) and rep.size > m:
            raise ValueError("basis family references elements outside the ground set")
        self.ground = GroundSet(m, tuple(names) if names is not None else None)
        self.name = name
        self.parent_elements: tuple[int, ...] | None = None
        self._table: list[int] | None = None
        self._loops: frozenset[int] | None = None
        self._parallel_classes: tuple[tuple[int, ...], ...] | None = None
        if isinstance(rep, BasesRep):
            self._basis_masks = tuple(sorted(_mask(b) for b in rep.bases))
        self.rank_total = self.rank(range(m))

    @property
    def size(self) -> int:
        return self.ground.size

    def __repr__(self):
        kind = type(self.rep).__name__
        return f"MatroidOracle({self.name or kind}, m={self.size}, rank={self.rank_total})"

    def _mask_of(self, elems: Iterable[int]) -> int:
        mask = 0
        m = self.ground.size
        for e in elems:
            if not 0 <= e < m:
                raise IndexError(f"element {e} outside ground set of size {m}")
            mask |= 1 << e
        return mask

    def rank(self, elems: Iterable[int]) -> int:
        mask = self._mask_of(elems)
        if self._table is not None:
            return self._table[mask]
        return self._rank_mask(mask)

    def _rank_mask(self, mask: int) -> int:
        # the greedily grown independent subset is a basis of the mask
        tester = _rep_tester(self)
        rank = 0
        for e in _bits(mask):
            if tester.can_add(e):
                tester.push(e)
                rank += 1
        return rank

    def is_independent(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        return self.rank(s) == len(s)

    def is_basis(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        return len(s) == self.rank_total and self.rank(s) == len(s)

    def closure(self, elems: Iterable[int]) -> frozenset[int]:
        base = set(elems)
        r = self.rank(base)
        out = set()
        for x in range(self.ground.size):
            if x in base or self.rank(base | {x}) == r:
                out.add(x)
        return frozenset(out)

    def loops(self) -> frozenset[int]:
        if self._loops is None:
            tester = tester_for(self)
            self._loops = frozenset(
                e for e in range(self.ground.size) if not tester.can_add(e))
        return self._loops

    def parallel_classes(self) -> tuple[tuple[int, ...], ...]:
        """Non-loop elements grouped by pairwise parallelism (rank{e,f} = 1),
        classes ordered by least element, members increasing."""
        if self._parallel_classes is None:
            m = self.ground.size
            placed = set(self.loops())
            groups: list[tuple[int, ...]] = []
            for e in range(m):
                if e in placed:
                    continue
                tester = tester_for(self)
                tester.push(e)
                group = (e, *(f for f in range(e + 1, m)
                              if f not in placed and not tester.can_add(f)))
                placed.update(group)
                groups.append(group)
            self._parallel_classes = tuple(groups)
        return self._parallel_classes

    def restrict(self, subset: Iterable[int]) -> "MatroidOracle":
        """Restriction to `subset`, re-indexed densely in sorted order.

        The returned oracle's ``parent_elements[i]`` is the original index of
        its element ``i``; its rank function agrees with this oracle on every
        subset of `subset`.
        """
        elems = sorted(set(subset))
        self._mask_of(elems)  # range check
        names = None
        if self.ground.names is not None:
            names = tuple(self.ground.names[e] for e in elems)
        rep = self.rep
        if isinstance(rep, LinearRep):
            sub_rep: Representation = LinearRep(rep.dim, tuple(rep.columns[e] for e in elems))
        elif isinstance(rep, GraphicRep):
            sub_rep = GraphicRep(rep.vertices, tuple(rep.edges[e] for e in elems))
        else:
            sub_rep = _restrict_bases(rep, elems, self.rank(elems))
        sub = MatroidOracle(sub_rep, names=names, name=self.name, ground_size=len(elems))
        sub.parent_elements = tuple(elems)
        return sub

    def build_rank_table(self) -> list[int]:
        """Precompute rank for all 2^m subsets (m <= 12); idempotent.

        One depth-first walk adds elements in increasing order.  The tester
        always holds a basis of the current mask, so rank(mask + e) is
        rank(mask) plus whether e can still be added.
        """
        if self._table is None:
            m = self.ground.size
            if m > 12:
                raise ValueError("rank table limited to 12 elements")
            table = [0] * (1 << m)
            tester = _rep_tester(self)

            def extend(mask: int, start: int) -> None:
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
            self._table = table
        return self._table


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _bits(mask: int) -> list[int]:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


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
    keep = set(elems)
    for b in rep.bases:
        inter = sorted(b & keep)
        if len(inter) >= sub_rank:
            for combo in combinations(inter, sub_rank):
                sub_bases.add(frozenset(pos[e] for e in combo))
    return BasesRep(sub_rank, frozenset(sub_bases))


# ---------------------------------------------------------------------------
# family-level checks


def find_exchange_violation(family: Iterable[Iterable[int]]):
    """First failure of the basis-exchange axiom, or None.

    Returns (A, x, B) such that no y in B \\ A makes (A - {x}) + {y} a member.
    """
    fam = {frozenset(b) for b in family}
    if not fam:
        raise ValueError("empty basis family")
    sizes = {len(b) for b in fam}
    if len(sizes) != 1:
        raise ValueError("basis family members must share cardinality")
    ordered = sorted(fam, key=sorted)
    for a in ordered:
        for b in ordered:
            diff = a - b
            for x in diff:
                rest = a - {x}
                if not any(rest | {y} in fam for y in b - a):
                    return (a, x, b)
    return None


def verify_basis_axioms(family: Iterable[Iterable[int]]) -> bool:
    """True iff the family satisfies the pairwise basis-exchange axiom."""
    return find_exchange_violation(family) is None


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


def enumerate_bases(oracle: MatroidOracle, cap: int = 16) -> frozenset[frozenset[int]]:
    """All bases, by brute force over r-subsets; refuses ground sets above `cap`."""
    m = oracle.ground.size
    if m > cap:
        raise ValueError(f"ground set of size {m} exceeds enumeration cap {cap}")
    r = oracle.rank_total
    return frozenset(
        frozenset(c) for c in combinations(range(m), r) if oracle.rank(c) == r
    )


def rank_axiom_violations(oracle: MatroidOracle, limit: int = 5) -> list[str]:
    """Exhaustive monotonicity / unit-increase / submodularity audit (m <= 12).

    Returns up to `limit` human-readable violations; empty means the rank
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
            if not ra <= rb <= ra + _popcount(b_mask & ~a_mask):
                out.append(f"nested pair A={_bits(a_mask)} B={_bits(b_mask)}: "
                           f"rank {ra} vs {rb}")
                if len(out) >= limit:
                    return out
            if a_mask == 0:
                break
    for x in range(full):
        rx = table[x]
        for y in range(x, full):
            if table[x | y] + table[x & y] > rx + table[y]:
                out.append(f"submodularity fails at A={_bits(x)} B={_bits(y)}")
                if len(out) >= limit:
                    return out
    return out


# ---------------------------------------------------------------------------
# incremental independence testers (solver support)
#
# A tester maintains one growing/shrinking independent set with O(small)
# can_add / push / pop, avoiding a full rank computation per query.  Its
# verdicts agree with the owning oracle's rank function (property-tested).


class TableTester:
    __slots__ = ("table", "mask", "size")

    def __init__(self, table: list[int]):
        self.table = table
        self.mask = 0
        self.size = 0

    def can_add(self, e: int) -> bool:
        return self.table[self.mask | (1 << e)] == self.size + 1

    def push(self, e: int) -> None:
        self.mask |= 1 << e
        self.size += 1

    def pop(self, e: int) -> None:
        self.mask &= ~(1 << e)
        self.size -= 1


class LinearTester:
    __slots__ = ("columns", "stack")

    def __init__(self, columns: Sequence[tuple[Fraction, ...]]):
        self.columns = columns
        self.stack: list[tuple[int, list[Fraction], int]] = []  # (pivot, vec, element)

    def _reduce(self, e: int) -> list[Fraction]:
        v = list(self.columns[e])
        for p, w, _ in self.stack:
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, w)]
        return v

    def can_add(self, e: int) -> bool:
        return any(self._reduce(e))

    def push(self, e: int) -> None:
        v = self._reduce(e)
        for p, a in enumerate(v):
            if a:
                inv = 1 / a
                self.stack.append((p, [x * inv for x in v], e))
                return
        raise ValueError(f"element {e} is dependent on the current set")

    def pop(self, e: int) -> None:
        p, w, elem = self.stack.pop()
        if elem != e:
            raise ValueError("pop order must mirror push order")


class GraphicTester:
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


class BasesTester:
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
    """Fresh incremental tester; table-backed when the oracle is small."""
    if oracle._table is None and oracle.ground.size <= TABLE_SIZE_CAP:
        oracle.build_rank_table()
    if oracle._table is not None:
        return TableTester(oracle._table)
    return _rep_tester(oracle)


def _rep_tester(oracle: MatroidOracle):
    """Fresh tester over the representation itself: the one place each
    representation decides independence."""
    rep = oracle.rep
    if isinstance(rep, LinearRep):
        return LinearTester(rep.columns)
    if isinstance(rep, GraphicRep):
        return GraphicTester(rep.vertices, rep.edges)
    return BasesTester(oracle._basis_masks)
