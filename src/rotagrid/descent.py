"""Potential descent from full Rota instances to fixed-block grid subproblems.

A Rota instance is a rank-n matroid on n^2 elements given as a disjoint
union of n bases B_1..B_n.  A double partition pairs a partition beta into
n disjoint bases with a partition tau into n disjoint transversals (sets
meeting every B_i exactly once), and carries the potential

    mu(beta, tau) = sum over ordered pairs i != j of |beta_i ∩ tau_j|
                  = sum over i of |beta_i - tau_i|,

the second form because tau partitions the ground set, so every element of
beta_i outside tau_i lies in exactly one other tau_j.

mu = 0 forces beta_i = tau_i for all i, and then the grid with (i, j) entry
B_i ∩ tau_j solves the instance.  While mu > 0, one descent step picks a
block of k indices around the lexicographically first nonempty off-diagonal
intersection beta_i ∩ tau_j: i is the first index with beta_i ⊄ tau_i and j
the first other index whose tau part beta_i meets.  It restricts the
matroid to the union S of the block's beta parts, solves the induced
n x k grid instance with rows I_i = B_i ∩ T ∩ S (T the union of the block's
tau parts), and regroups: the subgrid's columns replace the block's beta
parts, and the columns of a companion grid on B_i ∩ T replace the block's
tau parts.  Off-diagonal intersections inside the block drop to zero while
all other contributions are conserved, so mu strictly decreases and the
iteration terminates in at most mu(initial) steps -- unless a subproblem
comes back unsolvable, in which case that subproblem is itself a
counterexample to the fixed-block conjecture and is surfaced as a
first-class certificate, never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .formats import serialize_grid_instance, serialize_matroid
from .grid import (REQUIRED, Grid, GridInstance, SolveReport, solve,
                   validate_grid)
from .matroid import MatroidOracle, is_disjoint_union_of_bases


@dataclass(frozen=True)
class RotaInstance:
    """Rank-n matroid on n^2 elements with a distinguished basis partition."""

    matroid: MatroidOracle
    bases: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(frozenset(b) for b in self.bases))

    @property
    def n(self) -> int:
        return len(self.bases)

    def check(self) -> None:
        n = self.n
        if self.matroid.rank_total != n:
            raise ValueError(f"matroid rank {self.matroid.rank_total} != {n} bases")
        if self.matroid.ground.size != n * n:
            raise ValueError(f"ground set must have {n * n} elements")
        if not is_disjoint_union_of_bases(self.matroid, self.bases):
            raise ValueError("rows must be disjoint bases that cover the "
                             "ground set")


@dataclass(frozen=True)
class DoublePartition:
    beta: tuple[frozenset[int], ...]
    tau: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(frozenset(b) for b in self.beta))
        object.__setattr__(self, "tau", tuple(frozenset(t) for t in self.tau))
        if len(self.beta) != len(self.tau):
            raise ValueError("beta and tau must have the same number of parts")


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


def mu(dp: DoublePartition) -> int:
    """Potential: total off-diagonal intersection between beta and tau parts.

    It is read as the sum of |beta_i - tau_i|, which equals the off-diagonal
    sum whenever tau partitions a set holding every beta part, as in every
    double partition that `check_double_partition` accepts.
    """
    return sum(len(b - t) for b, t in zip(dp.beta, dp.tau))


def initial_double_partition(inst: RotaInstance) -> DoublePartition:
    """beta_i = B_i; tau_j collects the j-th smallest element of every B_i."""
    ordered = [sorted(b) for b in inst.bases]
    n = inst.n
    tau = tuple(frozenset(row[j] for row in ordered) for j in range(n))
    return DoublePartition(inst.bases, tau)


def select_block(dp: DoublePartition, k: int) -> tuple[int, ...]:
    """Indices of the beta/tau parts to regroup, as a sorted k-tuple.

    The block contains the lexicographically first pair (i, j), i != j, with
    beta_i ∩ tau_j nonempty, padded with the smallest indices outside {i, j},
    so k must be at least 2.
    """
    n = len(dp.beta)
    if k < 2:
        raise ValueError(f"block size {k} cannot hold a pair i != j")
    if k > n:
        raise ValueError(f"block size {k} exceeds {n} parts")
    first = next(((i, j) for i, (b, t) in enumerate(zip(dp.beta, dp.tau))
                  if b - t for j, u in enumerate(dp.tau) if j != i and b & u),
                 None)
    if first is None:
        raise ValueError("mu is zero: no off-diagonal intersection to fix")
    block = set(first)
    for idx in range(n):
        if len(block) == k:
            break
        block.add(idx)
    return tuple(sorted(block))


@dataclass(frozen=True)
class Subinstance:
    """A block's grid subproblem; its matroid's ``parent_elements`` maps
    sub indices back to the parent's."""

    instance: GridInstance
    block: tuple[int, ...]
    span: frozenset[int]               # S: union of the block's beta parts
    trace_set: frozenset[int]          # T: union of the block's tau parts


def build_subinstance(inst: RotaInstance, dp: DoublePartition,
                      block: Sequence[int]) -> Subinstance:
    """Restrict to the block's beta union and induce rows B_i ∩ T ∩ S."""
    block = tuple(sorted(block))
    span = frozenset().union(*(dp.beta[b] for b in block))
    trace = frozenset().union(*(dp.tau[b] for b in block))
    sub = inst.matroid.restrict(span)
    to_sub = {e: i for i, e in enumerate(sub.parent_elements)}
    kept = trace & span
    rows = tuple(frozenset([to_sub[e] for e in b & kept]) for b in inst.bases)
    grid_inst = GridInstance(sub, inst.n, len(block), rows, REQUIRED)
    return Subinstance(grid_inst, block, span, trace)


def rebuild(inst: RotaInstance, dp: DoublePartition, sub: Subinstance,
            subgrid: Grid) -> DoublePartition:
    """Fold a solved block subgrid back into a double partition.

    The subgrid's columns become the block's new beta parts.  The new tau
    parts are the columns of the companion grid whose row i holds the k
    elements of B_i ∩ T, each row-i element of S keeping the column it has
    in the subgrid and the remaining elements filling vacant columns in
    increasing order.
    """
    if not validate_grid(sub.instance, subgrid):
        raise ValueError("subgrid does not solve the block subproblem")
    to_parent = sub.instance.matroid.parent_elements
    rows = [[to_parent[e] for e in row] for row in subgrid]
    new_beta = list(dp.beta)
    for j, b in enumerate(sub.block):
        new_beta[b] = frozenset([row[j] for row in rows])

    companion = []
    for i, row in enumerate(rows):
        tied = inst.bases[i] & sub.trace_set
        fill = iter(sorted(tied - sub.span))
        companion.append([e if e in tied else next(fill) for e in row])

    new_tau = list(dp.tau)
    for j, b in enumerate(sub.block):
        new_tau[b] = frozenset([row[j] for row in companion])
    return DoublePartition(tuple(new_beta), tuple(new_tau))


@dataclass(frozen=True)
class CounterexampleCertificate:
    """An unsolvable block subproblem: it satisfies every hypothesis of the
    fixed-block grid conjecture, so an exhausted search here refutes the
    conjecture and must be exported for independent replay."""

    instance: GridInstance                 # on the restricted oracle
    report: SolveReport


@dataclass(frozen=True)
class DescentStep:
    block: tuple[int, ...]
    mu_before: int
    mu_after: int
    subinstance: Subinstance
    report: SolveReport

    def to_dict(self) -> dict:
        return {
            "block": list(self.block),
            "mu_before": self.mu_before,
            "mu_after": self.mu_after,
            "subinstance": serialize_grid_instance(self.subinstance.instance,
                                                   matroid_path="inline"),
            "submatroid": serialize_matroid(self.subinstance.instance.matroid),
            "nodes": self.report.nodes,
            "millis": self.report.millis,
        }


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple[DescentStep, ...]
    grid: Grid | None
    certificate: CounterexampleCertificate | None

    def to_dict(self) -> dict:
        """The `rota` report's result: status, grid and serialized steps."""
        return {
            "status": "CERTIFICATE" if self.grid is None else "GRID",
            "grid": None if self.grid is None else [list(r) for r in self.grid],
            "steps": [s.to_dict() for s in self.steps],
        }


def descent_step(inst: RotaInstance, dp: DoublePartition, k: int = 3):
    """One potential-reducing step.

    Returns (new_dp, DescentStep) on success, or a CounterexampleCertificate
    when the block subproblem is unsolvable.
    """
    if inst.n < 3 or k < 3:
        raise ValueError("descent requires n >= 3 and block size k >= 3")
    block = select_block(dp, k)   # raises when mu is zero
    sub = build_subinstance(inst, dp, block)
    report = solve(sub.instance)
    if report.status != "SAT":
        return CounterexampleCertificate(sub.instance, report)
    new_dp = rebuild(inst, dp, sub, report.grid)
    mu_before, mu_after = mu(dp), mu(new_dp)
    if mu_after >= mu_before:
        raise AssertionError(
            f"potential failed to decrease: {mu_before} -> {mu_after}")
    return new_dp, DescentStep(block, mu_before, mu_after, sub, report)


def rota_solve(inst: RotaInstance, k: int = 3) -> DescentTrace:
    """Drive an instance to a full grid (rows = B_i, columns bases).

    For n <= 2 the grid is found by a direct search.  For n >= 3 the descent
    iterates from the canonical initial double partition until mu reaches
    zero; each step costs one n x k subsolve and the step count is bounded
    by the initial potential.  Any unsolvable subproblem stops the run and
    is returned as a certificate.  A block size k < 3 is refused at any n.
    """
    if k < 3:
        raise ValueError(f"block size k must be at least 3, got {k}")
    inst.check()
    n = inst.n
    if n <= 2:
        direct = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
        report = solve(direct)
        if report.status == "SAT":
            return DescentTrace((), report.grid, None)
        return DescentTrace((), None, CounterexampleCertificate(direct, report))
    if k > n:
        raise ValueError(f"block size {k} exceeds n = {n}")

    dp = initial_double_partition(inst)
    potential = mu(dp)
    steps: list[DescentStep] = []
    while potential > 0:
        outcome = descent_step(inst, dp, k)
        if isinstance(outcome, CounterexampleCertificate):
            return DescentTrace(tuple(steps), None, outcome)
        dp, step = outcome
        steps.append(step)
        potential = step.mu_after

    grid = grid_from_double_partition(inst, dp)
    return DescentTrace(tuple(steps), grid, None)


def grid_from_double_partition(inst: RotaInstance, dp: DoublePartition) -> Grid:
    """At mu = 0, entry (i, j) is the unique element of B_i ∩ tau_j."""
    if mu(dp) != 0:
        raise ValueError("grid extraction requires mu = 0")
    rows = []
    for b in inst.bases:
        row = []
        for t in dp.tau:
            cell = b & t
            if len(cell) != 1:
                raise ValueError("tau part is not a transversal")
            row.append(next(iter(cell)))
        rows.append(tuple(row))
    return tuple(rows)
