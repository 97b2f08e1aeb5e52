"""Exact solver for the constrained n-by-k grid-completion problem.

An instance asks for an n x k grid using every element of a rank-n matroid
on n*k elements exactly once, where row i must contain the prescribed set
I_i and every column must be a basis.  The solver is one loop over an
explicit stack of cells in column-major order, so it has no depth limit;
each cell keeps a bitmask of its untried candidates, tried in increasing
index.  One matroid-partition routine (`_Parts`) answers, in polynomial
time, whether a set splits into disjoint bases (`splits_into_bases`, which
also checks the k-disjoint-bases hypothesis) and the least such split of
the ground set, which the generators need (`find_basis_partition`): it pins
the elements in order only until a first fit over the pins completes the
split, which is then exactly the least split's tail.

Pruning keeps counts exact: a partial column must stay independent (the
incremental tester subsumes closure-based candidate filtering), and a row
must always retain enough empty cells for its unplaced prescribed elements.
On entering column c >= 1 with k - c >= 3 columns left (and n >= 2), the
unused elements must split into k - c bases, or the column gets no
candidates.
The lookahead ignores rows, so it is sound in count mode too.  The gate is
fixed by the grid's shape, so solves with k <= 3 never run it, and at rank
1 the loop check already decides it.  Whether a test at k - c = 2 would pay
depends on the matroid, not on the shape: it costs more than it saves on
linear blocks (the 100 benchmark descents: 0.075 -> 0.097 s for 8,199 ->
8,112 nodes) and saves on the wheels (odd-wheel-15: 152,996 -> 48,293
nodes).  The solve's `_Lookahead` keeps each failed query's certificate
and tries them before every later query, so a column refused for a reason
already found costs a few bit counts.  It also
keeps one partition per part count: the first query with that count
partitions afresh, and each later one repairs the partition the last left
(`_Parts.repair`), since sibling columns change only a few unused elements.
A repaired partition answers and certifies as a fresh one does, so the
answers, and so the nodes, are unchanged.
Symmetry breaking is applied only in decision mode, where it is sound:
column permutations act freely on solutions (row-0 entries are forced to
increase across columns), and so do exchanges of parallel elements that
share a row constraint (each class is placed in increasing index order).
`solve(symmetry=False)` turns both rules off, a second search path for
checking an UNSAT.  Count mode enumerates labeled grids with no symmetry
reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .matroid import (BasesRep, MatroidOracle, _bits, _mask,
                      find_exchange_violation, tester_for)

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
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return not self.failures


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

    The least such assignment: each element in turn joins the first part
    with which a partition can still be completed, opening at most one
    empty part.  A first fit, each element in the first part that keeps it
    independent, is that answer when it places every element; otherwise
    the leftovers go in along augmenting paths, which decides whether any
    partition exists, and the elements are pinned in order (`_Parts.pin`).

    The pins hold a prefix of the answer, and pinning stops as soon as a
    first fit over them places every later element (`_Parts.complete`):
    each goes to the first opened part, in the order the parts opened, that
    has room and stays independent, else to a new part.  Such a fit is the
    answer's tail.  Every part before the one it picks is full or spans the
    element, so no completion puts the element there, and the fit's own
    completion shows that its pick can be completed.  No fit tried before a
    pin whose first try is refused completes, since it would put that
    element in the part refused; refused pins come in runs, so the fit is
    tried at the first pin after a refused one that is not refused itself.
    Nothing backtracks; `node_cap` is accepted for compatibility and
    ignored.
    """
    m = oracle.ground.size
    if parts < 0 or oracle.rank_total * parts != m:
        return None
    state = _Parts(oracle, range(m), parts, cyclic=False)
    if not state.left:
        return tuple(map(frozenset, state.free))
    if state.settle() is not None:
        return None
    order: list[int] = []     # the parts with pins, in the order they opened
    deviated = False          # a pin since the last tail fit was refused
    for e in range(m):
        c = state.part_of[e]
        earlier = order[:order.index(c)] if c in order else order
        c, refused = state.pin(e, earlier)
        if c not in order:
            order.append(c)
        if refused:
            deviated = True
        elif deviated:
            deviated = False
            done = state.complete(e + 1, order)
            if done is not None:
                return done
    return tuple(frozenset(state.pinned[j]) for j in order)


def splits_into_bases(oracle: MatroidOracle, mask: int, parts: int) -> bool:
    """True iff the elements of bitmask `mask` split into `parts` disjoint
    bases, by matroid partition (Edmonds 1965; Cunningham 1986): a first fit,
    then `_Parts.settle`."""
    return (parts >= 0 and mask.bit_count() == oracle.rank_total * parts
            and _Parts(oracle, _bits(mask), parts, cyclic=True).settle() is None)


class _Parts:
    """A matroid partition in progress.  Part j holds its pinned elements,
    which never move, and `free` ones, at most the rank in all; `full[j]` is a
    tester holding all of it, in the order pinned then free, and `pins[j]`
    one holding its pins.  Part j extends its pins P_j: matroid partition
    over the contractions M/P_j.  Each element starts in the first part that
    takes it, from the one after the last used when `cyclic` (parallel
    elements spread at once), else from part 0; `left` lists the rest, which
    `settle` inserts.  `repair` moves a pin-free partition to another set of
    elements, so a run of related sets is partitioned by one state."""

    def __init__(self, oracle: MatroidOracle, elems, parts: int, cyclic: bool):
        self.oracle = oracle
        self.free = free = [[] for _ in range(parts)]
        self.pinned = [[] for _ in range(parts)]
        self.part_of = part_of = [-1] * oracle.ground.size
        self.full = full = [tester_for(oracle) for _ in range(parts)]
        self.pins = [tester_for(oracle) for _ in range(parts)]
        self.left = list(self.fit(elems, range(parts), free, full, cyclic))
        for j, members in enumerate(free):
            for e in members:
                part_of[e] = j

    def fit(self, elems, order: Sequence[int], held, testers, cyclic=False):
        """First fit: each element joins the first part in `order` that has
        room and whose tester takes it, from the one after the part last
        used when `cyclic`, else from the start; yields each element no part
        takes.  The parts are `held` and `testers`: the free members and
        `full`, or the pins and `pins`."""
        rank, tries = self.oracle.rank_total, list(order)
        # after[p]: the order of the tries once part p has taken an element
        after = {p: tries[at + 1:] + tries[:at + 1]
                 for at, p in enumerate(tries)} if cyclic else None
        for e in elems:
            for p in tries:
                # a full part takes nothing: skip it before a costly test
                if len(held[p]) < rank and testers[p].can_add(e):
                    testers[p].push(e)
                    held[p].append(e)
                    if cyclic:
                        tries = after[p]
                    break
            else:
                yield e

    def _rebuild(self, j: int) -> None:
        self.full[j] = tester = tester_for(self.oracle)
        for f in self.pinned[j] + self.free[j]:
            tester.push(f)

    def settle(self):
        """Insert the leftovers in turn (`insert`): None once every one is
        placed, else a certificate (R, rho), R a bitmask, for the first that
        cannot be, which stays in `left` with those after it.

        With no pins, a failed insertion of s certifies that the elements
        held and s do not split into `parts` independent sets: each part is
        independent, and a part takes an element it stays independent with
        whenever it has room, so a full part is a basis.  The set R that the
        search reached then lies in the span of its members in every part,
        which are independent, so each part holds exactly r(R) of R, and
        only s is in no part: |R| = parts * r(R) + 1 with rho = r(R).  A set
        X with more than p * rho elements of R has no partition into p
        independent sets, so none into bases, for any p.  Nothing here asks
        how the state was reached, so a repaired state certifies as a fresh
        one does."""
        parts, left = range(len(self.free)), self.left
        for i, s in enumerate(left):
            reached = self.insert(s, parts)
            if reached is not None:
                del left[:i]
                return _mask(reached), (len(reached) - 1) // len(parts)
        left.clear()
        return None

    def repair(self, gone: int, new: int) -> None:
        """Take the elements of bitmask `gone` out, rebuilding the testers
        of only the parts they leave, and queue those of bitmask `new` after
        the leftovers, for `settle`.  The parts stay independent, so the
        state is one `settle` can finish or certify."""
        free, part_of, left = self.free, self.part_of, self.left
        changed = set()
        for e in _bits(gone):
            j = part_of[e]
            if j < 0:
                left.remove(e)
            else:
                free[j].remove(e)
                part_of[e] = -1
                changed.add(j)
        for j in changed:
            self._rebuild(j)
        left += _bits(new)

    def insert(self, s: int, first: Sequence[int]):
        """Put s, in no part, into the parts along a shortest augmenting path,
        found breadth first, whose first step enters a part in `first`: None
        if one exists, else the elements reached.  An edge x -> y, y free in
        part j, means part j - y + x is independent; a path ends at an element
        another part takes as it is, and a shortest one keeps every part
        independent."""
        free, part_of, full = self.free, self.part_of, self.full
        everywhere = range(len(free))
        rank, pinned = self.oracle.rank_total, self.pinned
        # no part gains room while the path is sought, so the sinks are
        # among the parts with room now, still tried in increasing order
        roomy = [j for j in everywhere if len(free[j]) + len(pinned[j]) < rank]

        def sink_of(x, targets):
            return next((j for j in targets
                         if j != part_of[x] and full[j].can_add(x)), None)

        came_from = {s: None}
        queue = [s]
        x, sink = s, sink_of(s, [j for j in first if j in roomy])
        for z in queue:
            if sink is not None:
                break
            for j in (first if z == s else everywhere):
                if j == part_of[z]:
                    continue
                tester = self.pins[j]
                # z's circuit in part j leaves the queue exactly when the
                # pins and the members on the queue do not span z; on top of
                # z, the first free member off the queue that does not fit
                # lies on the circuit
                while sink is None and tester.can_add(z):
                    pushed = [z]
                    tester.push(z)
                    for y in free[j]:
                        if y not in came_from:
                            if not tester.can_add(y):
                                break
                            tester.push(y)
                            pushed.append(y)
                    for f in reversed(pushed):
                        tester.pop(f)
                    came_from[y] = z
                    queue.append(y)
                    tester.push(y)
                    x, sink = y, sink_of(y, roomy)
        for y in reversed(queue[1:]):      # leave the pin testers as found
            self.pins[part_of[y]].pop(y)
        if sink is None:
            return queue
        # move x into `sink`, then each predecessor into the part x left
        full[sink].push(x)          # `sink` takes x as it is
        changed = set()             # the parts that lost a member
        while x is not None:
            old, part_of[x] = part_of[x], sink
            free[sink].append(x)
            if old >= 0:
                free[old].remove(x)
                changed.add(old)
            sink, x = old, came_from[x]
        for j in changed:
            self._rebuild(j)
        return None

    def pin(self, e: int, earlier: list[int]) -> tuple[int, bool]:
        """Pin e to the first of the `earlier` parts that an augmenting path
        from e, entering it first, can move e into, else to its own part.
        Returns the part and whether the first part tried refused e, so
        that e is not where a first fit over the pins would put it."""
        c = self.part_of[e]
        rank = self.oracle.rank_total
        tries = [q for q in earlier
                 if len(self.pinned[q]) < rank and self.pins[q].can_add(e)]
        refused = False
        if tries:
            free, full = self.free[c], self.full[c]
            self.free[c] = [f for f in free if f != e]
            self._rebuild(c)
            self.part_of[e] = -1
            q = next((q for q in tries if self.insert(e, (q,)) is None), c)
            if q == c:          # nothing moved: restore part c
                self.free[c], self.full[c], self.part_of[e] = free, full, c
            refused, c = q != tries[0], q
        self.free[c].remove(e)
        self.pinned[c].append(e)
        self.pins[c].push(e)
        return c, refused

    def complete(self, start: int, order: list[int]):
        """The pinned partition with the elements from `start` on added by a
        first fit over the pins, trying the parts in `order` and then the
        unopened ones, if it places every element; else None, with the pins
        left as found."""
        pinned, pins = self.pinned, self.pins
        order = order + [j for j in range(len(pinned)) if j not in order]
        had = [len(held) for held in pinned]
        for _ in self.fit(range(start, len(self.part_of)), order, pinned, pins):
            for held, tester, n in zip(pinned, pins, had):
                for f in reversed(held[n:]):
                    tester.pop(f)
                del held[n:]
            return None
        return tuple(map(frozenset, (pinned[j] for j in order)))


class _Lookahead:
    """The partition lookahead of one solve: `query` answers
    `splits_into_bases` for a mask of `parts` times the rank elements.

    Failed queries leave their certificates (`_Parts.settle`), and a mask
    that one of them refuses is answered with no partition run.  Otherwise
    the first query with a part count partitions its mask afresh, as
    `splits_into_bases` does, and every later query with that count repairs
    the state the last one left (`_Parts.repair`) and settles it again:
    sibling columns change a few elements of the mask, not all of them.
    Repaired or fresh, a settled state answers exactly and a failed one
    certifies, so the answers, and the nodes, are those of fresh splits.
    """

    def __init__(self, oracle: MatroidOracle):
        self.oracle = oracle
        self.certs = []     # (X, rho) of each failed query
        self.states = {}    # part count -> (its _Parts, the mask it holds)

    def query(self, mask: int, parts: int) -> bool:
        for x, rho in self.certs:
            if (x & mask).bit_count() > parts * rho:
                return False
        held = self.states.get(parts)
        if held is None:
            state = _Parts(self.oracle, _bits(mask), parts, cyclic=True)
        else:
            state, had = held
            state.repair(had & ~mask, mask & ~had)
        self.states[parts] = state, mask
        cert = state.settle()
        if cert is None:
            return True
        self.certs.append(cert)
        return False


def validate_instance(inst: GridInstance, check_basis_partition: bool = True) -> InstanceCheck:
    """Check instance invariants and (optionally) the k-disjoint-bases hypothesis,
    which matroid partition decides in polynomial time.

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
        if not splits_into_bases(M, (1 << m) - 1, inst.k):
            failures.append(f"ground set is not a disjoint union of {inst.k} bases")
    return InstanceCheck(tuple(failures))


def _search(inst: GridInstance, mode: str, symmetry: bool,
            node_budget: int | None = None):
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

    # exact shortcut: columns of size n are bases only when the whole
    # matroid has rank n
    if M.rank_total != n:
        return 0, None, 0

    row_of = [-1] * m
    for i, row in enumerate(inst.rows):
        for e in row:
            row_of[e] = i
    decide = mode == "decide"
    breaking = symmetry and decide
    # succ[e]: the bit of the next element parallel to e and bound to its
    # row, 0 if none; in decision mode each such group is placed in
    # increasing index order (module docstring)
    succ = [0] * m
    last = {}               # (class, row) -> its latest member so far
    for e, c in enumerate(M.class_ids()):
        if c < 0:           # a loop can never sit in a basis column
            return 0, None, 0
        if breaking:
            group = c, row_of[e]
            if group in last:
                succ[last[group]] = 1 << e
            last[group] = e
    own = [0] * (n + 1)    # own[i]: the elements bound to row i; own[-1]: free
    for e, i in enumerate(row_of):
        own[i] |= 1 << e
    free_mask = own.pop()
    wide = [mask | free_mask for mask in own]  # all row i may take
    unused = (1 << m) - 1
    slack = [k - len(row) for row in inst.rows]
    # a member waits for its predecessor; successor bits are disjoint
    ready = unused & ~sum(succ)

    row_at = list(range(n)) * k
    testers = [tester_for(M) for _ in range(k)]
    can_add_at = [f for tester in testers for f in [tester.can_add] * n]
    push_at = [f for tester in testers for f in [tester.push] * n]
    pop_at = [f for tester in testers for f in [tester.pop] * n]
    # the first cell of each column after the first: above_at breaks column
    # symmetry there, parts_at gives the partition lookahead's part count
    above_at = [False] * total
    parts_at = [0] * total
    for t in range(n, total, n):
        above_at[t] = breaking
        if n > 1 and k - t // n >= 3:   # (module docstring)
            parts_at[t] = k - t // n
    splits = _Lookahead(M).query if any(parts_at) else None
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
                if (parts_at[t] and cand
                        and not splits(unused, parts_at[t])):
                    cand = 0
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
          symmetry: bool = True, node_budget: int | None = None) -> SolveReport:
    """Solve (decision) or count grids for `inst`; `symmetry=False` turns
    off the decision mode's symmetry breaking (module docstring).

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
    count, grid, nodes = _search(inst, mode, symmetry, node_budget)
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
    # the n entries of a column are distinct, so it is a basis iff its rank
    # is n and n is the rank of the matroid
    M = inst.matroid
    return all(M.rank_total == n == M.rank([row[c] for row in grid])
               for c in range(k))


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
