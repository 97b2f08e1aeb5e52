"""Exact solver for the constrained n-by-k grid-completion problem.

An instance asks for an n x k grid using every element of a rank-n matroid
on n*k elements exactly once, where row i must contain the prescribed set
I_i and every column must be a basis.  Both searches here, the solver over
cells in column-major order and the basis-partition check, are one loop
over an explicit stack, so neither has a depth limit.  Each solver cell
keeps a bitmask of its untried candidates, tried in increasing index.

Pruning keeps counts exact: a partial column must stay independent (the
incremental tester subsumes closure-based candidate filtering), and a row
must always retain enough empty cells for its unplaced prescribed elements.
Symmetry breaking is applied only in decision mode, where it is sound:
column permutations act freely on solutions (row-0 entries are forced to
increase across columns), and so do exchanges of parallel elements that
share a row constraint (each class is placed in increasing index order).
Count mode enumerates labeled grids with no symmetry reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .matroid import (BasesRep, MatroidOracle, _mask, find_exchange_violation,
                      tester_for)

REQUIRED = "REQUIRED"
NOT_REQUIRED = "NOT_REQUIRED"

Grid = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GridInstance:
    """A constrained grid-completion problem.

    `rows[i]` is the set I_i that must appear in row i.  Invariants beyond
    basic well-formedness (disjoint rows, row sizes, ground rank = n,
    independence when required) are reported by :func:`validate_instance`,
    not enforced here, so that deliberately broken instances can be built
    and diagnosed.
    """

    matroid: MatroidOracle
    n: int
    k: int
    rows: tuple[frozenset[int], ...]
    independence: str = REQUIRED

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError("grid dimensions must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} row sets, got {len(self.rows)}")
        object.__setattr__(self, "rows", tuple(frozenset(r) for r in self.rows))
        m = self.matroid.ground.size
        for row in self.rows:
            for e in row:
                if not 0 <= e < m:
                    raise IndexError(f"row element {e} outside ground set of size {m}")
        if self.independence not in (REQUIRED, NOT_REQUIRED):
            raise ValueError(f"bad independence mode {self.independence!r}")


@dataclass(frozen=True)
class InstanceCheck:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SolveReport:
    status: str                       # "SAT" | "UNSAT" | "UNKNOWN"
    grid: Grid | None
    count: int | None                 # populated in count mode
    nodes: int
    millis: float

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "grid": [list(r) for r in self.grid] if self.grid is not None else None,
            "count": self.count,
            "nodes": self.nodes,
            "millis": self.millis,
        }


def find_basis_partition(oracle: MatroidOracle, parts: int,
                         node_cap: int | None = None):
    """Partition the ground set into `parts` disjoint bases, or None.

    Exact backtracking, one loop over an explicit stack: each element in
    turn joins the first part that keeps it independent, opening at most one
    empty part (empty parts are interchangeable), so the first partition
    found is the least such assignment.  Swapping parallel elements maps
    partitions to partitions, so once the search backtracks, an element tries
    only parts after its parallel-class predecessor's.  With a node cap it
    gives up (None) when it would place node `node_cap + 1`.
    """
    m = oracle.ground.size
    r = oracle.rank_total
    if parts < 0 or r * parts != m:
        return None
    if parts == 0:
        return ()
    testers = [tester_for(oracle) for _ in range(parts)]
    sizes = [0] * parts
    assign = [-1] * (m + 1)   # assign[m] = -1 stands for "no predecessor"
    prev = None               # parallel-class predecessors, m for none
    limit = -1 if node_cap is None else node_cap
    nodes = opened = e = p = 0
    while e < m:
        top = min(opened, parts - 1)
        while p <= top and (sizes[p] == r or not testers[p].can_add(e)):
            p += 1
        if p <= top:
            if nodes == limit:
                return None
            nodes += 1
            testers[p].push(e)
            sizes[p] += 1
            opened += p == opened
            assign[e] = p
            e += 1
            p = 0 if prev is None else assign[prev[e]] + 1
            continue
        if not e:
            return None
        if prev is None:
            prev = [m] * (m + 1)
            for cls in oracle.parallel_classes():
                for f, g in zip(cls, cls[1:]):
                    prev[g] = f
        e -= 1
        p = assign[e]
        testers[p].pop(e)
        sizes[p] -= 1
        opened -= not sizes[p]
        p += 1
    return tuple(frozenset(e for e in range(m) if assign[e] == p) for p in range(parts))


def validate_instance(inst: GridInstance, check_basis_partition: bool = True) -> InstanceCheck:
    """Check instance invariants and (optionally) the k-disjoint-bases hypothesis.

    An explicit basis family must satisfy the exchange axiom: the solver's
    pruning assumes the independent sets are closed under subsets.
    """
    failures = []
    M = inst.matroid
    m = M.ground.size
    if m != inst.n * inst.k:
        failures.append(f"ground-set size {m} != n*k = {inst.n * inst.k}")
    seen: set[int] = set()
    for i, row in enumerate(inst.rows):
        if len(row) > inst.k:
            failures.append(f"row {i} has {len(row)} elements, more than k = {inst.k}")
        if seen & row:
            failures.append(f"row {i} overlaps an earlier row on {sorted(seen & row)}")
        seen |= row
    if isinstance(M.rep, BasesRep):
        violation = find_exchange_violation(M.rep.bases)
        if violation is not None:
            a, x, b = violation
            failures.append(f"basis family is not a matroid: no element of "
                            f"{sorted(b)} can replace {x} in {sorted(a)}")
    if M.rank_total != inst.n:
        failures.append(f"ground-set rank {M.rank_total} != n = {inst.n}")
    if inst.independence == REQUIRED:
        for i, row in enumerate(inst.rows):
            if not M.is_independent(row):
                failures.append(f"row {i} is dependent but independence is required")
    if check_basis_partition and not failures:
        if find_basis_partition(M, inst.k) is None:
            failures.append(f"ground set is not a disjoint union of {inst.k} bases")
    return InstanceCheck(not failures, tuple(failures))


def _parallel_successors(inst: GridInstance, row_of: Sequence[int]):
    """Per-element bit of the next member of its same-row parallel class.

    Elements e, f are interchangeable when they are parallel in the matroid
    (rank{e}=rank{f}=rank{e,f}=1) and carry the same row constraint; swapping
    them maps valid grids to valid grids, so in decision mode each class may
    be placed in increasing index order only.  A last member has entry 0.
    """
    succ = [0] * inst.matroid.ground.size
    for cls in inst.matroid.parallel_classes():
        if len(cls) > 1:
            # a stable sort keeps each row's members in increasing order
            group = sorted(cls, key=row_of.__getitem__)
            for e, f in zip(group, group[1:]):
                if row_of[e] == row_of[f]:
                    succ[e] = 1 << f
    return succ


def _search(inst: GridInstance, mode: str, break_columns: bool,
            break_parallel: bool, node_budget: int | None = None):
    """Core backtracking run.  Returns (count, first_grid, nodes); count is
    None when the search would place node `node_budget + 1`."""
    M = inst.matroid
    n, k = inst.n, inst.k
    m = M.ground.size
    if m != n * k:
        raise ValueError(f"ground-set size {m} != n*k = {n * k}")
    total = n * k
    if not total:
        return 1, tuple(() for _ in range(n)), 0

    # exact shortcuts: a loop can never sit in a basis column, and columns of
    # size n are bases only when the whole matroid has rank n
    if M.rank_total != n or M.loops():
        return 0, None, 0

    row_of = [-1] * m
    for i, row in enumerate(inst.rows):
        for e in row:
            row_of[e] = i
    own = [0] * (n + 1)    # own[i]: the elements bound to row i; own[-1]: free
    for e, i in enumerate(row_of):
        own[i] |= 1 << e
    free_mask = own.pop()
    wide = [_mask(row) | free_mask for row in inst.rows]  # all row i may take
    unused = (1 << m) - 1
    slack = [k - len(row) for row in inst.rows]
    decide = mode == "decide"
    succ = (_parallel_successors(inst, row_of)
            if break_parallel and decide else [0] * m)
    # a member waits for its predecessor; successor bits are disjoint
    ready = unused & ~sum(succ)

    row_at = list(range(n)) * k
    testers = [tester_for(M) for _ in range(k)]
    can_add_at = [testers[t // n].can_add for t in range(total)]
    push_at = [testers[t // n].push for t in range(total)]
    pop_at = [testers[t // n].pop for t in range(total)]
    above_at = [break_columns and decide and t >= n and t % n == 0
                for t in range(total)]
    cells = [-1] * total
    rest = [0] * total       # rest[t]: untried candidates of cell t
    limit = -1 if node_budget is None else node_budget
    count = nodes = t = 0
    first: Grid | None = None
    cand = (wide[0] if slack[0] else own[0]) & ready
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            e = low.bit_length() - 1
            if not can_add_at[t](e):
                continue
            if nodes == limit:
                return None, None, nodes
            nodes += 1
            push_at[t](e)
            cells[t] = e
            rest[t] = cand
            unused ^= low
            ready |= succ[e]
            if not low & own[row_at[t]]:
                slack[row_at[t]] -= 1
            t += 1
            if t < total:
                i = row_at[t]
                cand = (wide[i] if slack[i] else own[i]) & unused & ready
                if above_at[t]:
                    cand &= -(2 << cells[t - n])
                continue
            count += 1
            if first is None:
                first = tuple(tuple(cells[i::n]) for i in range(n))
            if decide:
                break
        elif not t:
            break
        t -= 1
        e = cells[t]
        low = 1 << e
        pop_at[t](e)
        unused |= low
        ready &= ~succ[e]
        if not low & own[row_at[t]]:
            slack[row_at[t]] += 1
        cand = rest[t]
    return count, first, nodes


def solve(inst: GridInstance, mode: str = "decide", *,
          break_columns: bool = True, break_parallel: bool = True,
          node_budget: int | None = None) -> SolveReport:
    """Solve (decision) or count grids for `inst`.

    Deterministic for a fixed instance: reports are identical across runs up
    to `millis`.  With a `node_budget`, a search that would place more nodes
    stops and reports "UNKNOWN" with no grid and no count, never a partial
    count.
    """
    if mode not in ("decide", "count"):
        raise ValueError(f"bad mode {mode!r}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    t0 = time.perf_counter()
    count, grid, nodes = _search(inst, mode, break_columns, break_parallel,
                                 node_budget)
    millis = (time.perf_counter() - t0) * 1000.0
    status = "UNKNOWN" if count is None else "SAT" if count else "UNSAT"
    return SolveReport(status=status, grid=grid if status == "SAT" else None,
                       count=count if mode == "count" else None,
                       nodes=nodes, millis=millis)


def count_solutions(inst: GridInstance) -> int:
    """Number of distinct valid grids (labeled; column order distinguishes)."""
    return solve(inst, mode="count").count


def validate_grid(inst: GridInstance, grid: Sequence[Sequence[int]]) -> bool:
    """True iff `grid` uses every element once, covers each I_i in its row,
    and has all-basis columns."""
    n, k = inst.n, inst.k
    if len(grid) != n or any(len(r) != k for r in grid):
        return False
    flat = [e for r in grid for e in r]
    if sorted(flat) != list(range(inst.matroid.ground.size)):
        return False
    for i, row in enumerate(grid):
        if not inst.rows[i] <= set(row):
            return False
    for c in range(k):
        if not inst.matroid.is_basis({grid[i][c] for i in range(n)}):
            return False
    return True


def brute_force_count(inst: GridInstance) -> int:
    """Independent solution counter: filter all (nk)! cell assignments.

    No pruning and no shared search code; intended as an oracle for
    :func:`count_solutions` on tiny instances.
    """
    n, k = inst.n, inst.k
    m = inst.matroid.ground.size
    if m != n * k:
        raise ValueError(f"ground-set size {m} != n*k = {n * k}")
    if m > 9:
        raise ValueError("brute force limited to 9 cells")
    if m == 0:
        return 1
    table = inst.matroid.build_rank_table()
    row_of = [-1] * m
    for i, row in enumerate(inst.rows):
        for e in row:
            row_of[e] = i
    count = 0
    rng_n, rng_k = range(n), range(k)
    for perm in permutations(range(m)):
        ok = True
        for i in rng_n:
            base = i * k
            for c in rng_k:
                r = row_of[perm[base + c]]
                if r >= 0 and r != i:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for c in rng_k:
            mask = 0
            for i in rng_n:
                mask |= 1 << perm[i * k + c]
            if table[mask] != n:
                ok = False
                break
        if ok:
            count += 1
    return count
