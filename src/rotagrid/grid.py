"""Exact solver for the constrained n-by-k grid-completion problem.

An instance asks for an n x k grid using every element of a rank-n matroid
on n*k elements exactly once, where row i must contain the prescribed set
I_i and every column must be a basis.  The solver is a deterministic
backtracking search over cells in column-major order; candidates for a cell
are tried in increasing element index.

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

from .matroid import (BasesRep, MatroidOracle, find_exchange_violation,
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
    status: str                       # "SAT" | "UNSAT"
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

    Complete backtracking search (exact when node_cap is None); a node cap
    turns it into a deterministic give-up useful inside instance generators.
    """
    m = oracle.ground.size
    r = oracle.rank_total
    if parts < 0 or r * parts != m:
        return None
    if parts == 0:
        return ()
    testers = [tester_for(oracle) for _ in range(parts)]
    sizes = [0] * parts
    assign = [-1] * m
    nodes = 0

    def place(e: int) -> bool:
        nonlocal nodes
        if e == m:
            return True
        if node_cap is not None and nodes > node_cap:
            return False
        tried_empty = False
        for p in range(parts):
            if sizes[p] == r:
                continue
            if sizes[p] == 0:
                if tried_empty:       # empty parts are interchangeable
                    break
                tried_empty = True
            if testers[p].can_add(e):
                testers[p].push(e)
                sizes[p] += 1
                assign[e] = p
                nodes += 1
                if place(e + 1):
                    return True
                assign[e] = -1
                sizes[p] -= 1
                testers[p].pop(e)
        return False

    if not place(0):
        return None
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


def _parallel_row_classes(inst: GridInstance, row_of: Sequence[int]):
    """Per-element list of same-row parallel companions, for symmetry breaking.

    Elements e, f are interchangeable when they are parallel in the matroid
    (rank{e}=rank{f}=rank{e,f}=1) and carry the same row constraint; swapping
    them maps valid grids to valid grids, so in decision mode each class may
    be placed in increasing index order only.
    """
    members = [None] * inst.matroid.ground.size
    for cls in inst.matroid.parallel_classes():
        if len(cls) < 2:
            continue
        by_row: dict[int, list[int]] = {}
        for e in cls:
            by_row.setdefault(row_of[e], []).append(e)
        for group in by_row.values():
            if len(group) > 1:
                group.sort()
                for e in group:
                    members[e] = group
    return members


def _search(inst: GridInstance, mode: str, break_columns: bool,
            break_parallel: bool, fixed_first: int | None = None):
    """Core backtracking run.  Returns (count, first_grid, nodes)."""
    M = inst.matroid
    n, k = inst.n, inst.k
    m = M.ground.size
    if m != n * k:
        raise ValueError(f"ground-set size {m} != n*k = {n * k}")
    total = n * k

    # exact shortcuts: a loop can never sit in a basis column, and columns of
    # size n are bases only when the whole matroid has rank n
    if total and (M.rank_total != n or M.loops()):
        return 0, None, 0

    row_of = [-1] * m
    for i, row in enumerate(inst.rows):
        for e in row:
            row_of[e] = i
    free = [e for e in range(m) if row_of[e] < 0]
    allowed = [sorted(inst.rows[i] | set(free)) for i in range(n)]
    need = [len(inst.rows[i]) for i in range(n)]
    cells_left = [k] * n
    class_members = (_parallel_row_classes(inst, row_of)
                     if break_parallel and mode == "decide" else [None] * m)
    break_cols = break_columns and mode == "decide"

    used = bytearray(m)
    cells = [-1] * total
    testers = [tester_for(M) for _ in range(k)]
    counting = mode == "count"
    count = 0
    nodes = 0
    first: Grid | None = None

    def step(t: int) -> bool:
        nonlocal count, nodes, first
        if t == total:
            count += 1
            if first is None:
                first = tuple(tuple(cells[c * n + i] for c in range(k))
                              for i in range(n))
            return not counting
        c, i = divmod(t, n)
        tester = testers[c]
        req_only = need[i] == cells_left[i]
        lo = cells[(c - 1) * n] if (break_cols and i == 0 and c > 0) else -1
        for e in allowed[i]:
            if used[e] or e <= lo:
                continue
            in_row = row_of[e] == i
            if req_only and not in_row:
                continue
            group = class_members[e]
            if group is not None:
                blocked = False
                for f in group:
                    if f == e:
                        break
                    if not used[f]:
                        blocked = True
                        break
                if blocked:
                    continue
            if not tester.can_add(e):
                continue
            used[e] = 1
            cells[t] = e
            tester.push(e)
            cells_left[i] -= 1
            if in_row:
                need[i] -= 1
            nodes += 1
            stop = step(t + 1)
            if in_row:
                need[i] += 1
            cells_left[i] += 1
            tester.pop(e)
            cells[t] = -1
            used[e] = 0
            if stop:
                return True
        return False

    if fixed_first is not None:
        # worker for a split top-level branch: pre-place cell (0, 0)
        e = fixed_first
        used[e] = 1
        cells[0] = e
        testers[0].push(e)
        cells_left[0] -= 1
        if row_of[e] == 0:
            need[0] -= 1
        nodes += 1
        step(1)
    else:
        step(0)
    return count, first, nodes


def _top_branches(inst: GridInstance, break_parallel: bool) -> list[int]:
    """Legal candidates for cell (0, 0) under decision-mode filters."""
    M = inst.matroid
    if M.ground.size == 0:
        return []
    row_of = [-1] * M.ground.size
    for i, row in enumerate(inst.rows):
        for e in row:
            row_of[e] = i
    class_members = (_parallel_row_classes(inst, row_of) if break_parallel
                     else [None] * M.ground.size)
    need0 = len(inst.rows[0])
    out = []
    for e in sorted(inst.rows[0] | {x for x in range(M.ground.size) if row_of[x] < 0}):
        if need0 == inst.k and row_of[e] != 0:
            continue
        group = class_members[e]
        if group is not None and group[0] != e:
            continue
        if M.rank((e,)) == 1:
            out.append(e)
    return out


def _branch_worker(args):
    inst, break_columns, break_parallel, e = args
    count, grid, nodes = _search(inst, "decide", break_columns, break_parallel,
                                 fixed_first=e)
    return count, grid, nodes


def solve(inst: GridInstance, mode: str = "decide", *, processes: int = 1,
          break_columns: bool = True, break_parallel: bool = True) -> SolveReport:
    """Solve (decision) or count grids for `inst`.

    Deterministic for a fixed instance: reports are identical across runs up
    to `millis`.  `processes` > 1 splits the top-level branch set across
    worker processes; it preserves the SAT/UNSAT answer and the returned
    grid, and is rejected in count mode where exact totals require a single
    exhaustive enumeration order.
    """
    if mode not in ("decide", "count"):
        raise ValueError(f"bad mode {mode!r}")
    if processes > 1 and mode == "count":
        raise ValueError("parallel search is forbidden in count mode")
    t0 = time.perf_counter()
    if processes > 1 and mode == "decide" and inst.n * inst.k > 0 \
            and inst.matroid.rank_total == inst.n and not inst.matroid.loops():
        branches = _top_branches(inst, break_parallel)
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes) as pool:
            results = pool.map(
                _branch_worker,
                [(inst, break_columns, break_parallel, e) for e in branches])
        nodes = sum(r[2] for r in results)
        count, grid = 0, None
        for cnt, g, _ in results:          # branch order fixes the returned grid
            if cnt and grid is None:
                count, grid = cnt, g
    else:
        count, grid, nodes = _search(inst, mode, break_columns, break_parallel)
    millis = (time.perf_counter() - t0) * 1000.0
    status = "SAT" if count > 0 else "UNSAT"
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
