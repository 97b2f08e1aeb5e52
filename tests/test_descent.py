"""Descent machinery: potential accounting, block selection, regrouping,
certificates, and full runs."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotagrid.descent
from rotagrid import (REQUIRED, DoublePartition, GridInstance, RotaInstance,
                      SolveReport, build_subinstance, check_double_partition,
                      descent_step, find_basis_partition,
                      grid_from_double_partition, initial_double_partition,
                      mu, random_graphic_matroid, random_rota_instance,
                      rebuild, rota_solve, select_block, uniform_matroid,
                      validate_grid, validate_instance)
from rotagrid.descent import CounterexampleCertificate


def u39_rota():
    m = uniform_matroid(3, 9, name="u39")
    return RotaInstance(m, (frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                            frozenset({6, 7, 8})))


def rainbow_dp():
    # beta = tau = the three transversals {i, i+3, i+6}
    parts = tuple(frozenset({i, i + 3, i + 6}) for i in range(3))
    return DoublePartition(parts, parts)


# --- mu -----------------------------------------------------------------------

def test_mu_zero_when_blocks_coincide():
    assert mu(rainbow_dp()) == 0


def test_mu_after_single_swap_is_two():
    dp = rainbow_dp()
    # swap elements 1 and 2 (both in B_1) between tau_1 and tau_2
    tau = (dp.tau[0], dp.tau[1] - {1} | {2}, dp.tau[2] - {2} | {1})
    swapped = DoublePartition(dp.beta, tau)
    check_double_partition(u39_rota(), swapped)
    assert mu(swapped) == 2


@given(st.permutations(list(range(3))), st.permutations(list(range(3))),
       st.permutations(list(range(3))))
@settings(max_examples=60, deadline=None)
def test_mu_matches_direct_recount(p0, p1, p2):
    inst = u39_rota()
    ordered = [sorted(b) for b in inst.bases]
    perms = (p0, p1, p2)
    tau = tuple(frozenset(ordered[i][perms[i][j]] for i in range(3))
                for j in range(3))
    dp = DoublePartition(inst.bases, tau)
    check_double_partition(inst, dp)
    recount = 0
    for i, b in enumerate(dp.beta):
        for j, t in enumerate(dp.tau):
            if i != j:
                recount += sum(1 for e in b if e in t)
    assert mu(dp) == recount
    # zero potential exactly when the partitions coincide blockwise
    assert (mu(dp) == 0) == (dp.beta == dp.tau)


# --- initial double partition ----------------------------------------------------

def test_initial_tau_are_transversals():
    inst = u39_rota()
    dp = initial_double_partition(inst)
    check_double_partition(inst, dp)
    for t in dp.tau:
        for b in inst.bases:
            assert len(t & b) == 1


def test_initial_single_basis():
    m = uniform_matroid(1, 1)
    inst = RotaInstance(m, (frozenset({0}),))
    dp = initial_double_partition(inst)
    assert dp.beta == dp.tau == (frozenset({0}),)


def test_initial_mu_of_canonical_u39_is_six():
    # the j-th-element transversals each meet every off-diagonal basis once
    dp = initial_double_partition(u39_rota())
    assert mu(dp) == 6


# --- select_block ------------------------------------------------------------------

def test_select_block_first_pair():
    dp = initial_double_partition(u39_rota())
    assert mu(dp) > 0
    assert select_block(dp, 3) == (0, 1, 2)


def test_select_block_padding_rule():
    # six parts; the only off-diagonal intersection is beta_1 ∩ tau_4
    beta = tuple(frozenset({i}) for i in range(6))
    tau = list(beta)
    tau[1], tau[4] = tau[4], tau[1]
    dp = DoublePartition(beta, tuple(tau))
    assert select_block(dp, 3) == (0, 1, 4)


def test_select_block_at_mu_zero_errors():
    with pytest.raises(ValueError):
        select_block(rainbow_dp(), 3)


def test_select_block_size_exceeding_parts_errors():
    dp = initial_double_partition(u39_rota())
    with pytest.raises(ValueError):
        select_block(dp, 4)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_select_block_refuses_a_block_without_a_pair(k):
    dp = initial_double_partition(random_rota_instance(4, 0))
    with pytest.raises(ValueError):
        select_block(dp, k)


def test_select_block_holds_the_first_pair_at_every_size():
    dp = initial_double_partition(random_rota_instance(4, 0))
    pair = next({i, j} for i in range(4) for j in range(4)
                if i != j and dp.beta[i] & dp.tau[j])
    for k in range(2, 5):
        block = select_block(dp, k)
        assert len(block) == k and block == tuple(sorted(block))
        assert pair <= set(block)


def test_select_block_lex_among_equal_sizes():
    beta = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}),
            frozenset({6, 7}))
    tau = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4, 6}),
           frozenset({5, 7}))
    dp = DoublePartition(beta, tau)
    # |beta_0 ∩ tau_1| = 1 is lexicographically first, every pair has size <= 1
    assert select_block(dp, 3) == (0, 1, 2)


# --- build_subinstance ----------------------------------------------------------------

def test_subinstance_rows_are_small_disjoint_independent():
    inst = random_rota_instance(4, seed=7)
    dp = initial_double_partition(inst)
    block = select_block(dp, 3)
    sub = build_subinstance(inst, dp, block)
    seen = set()
    for row in sub.instance.rows:
        assert len(row) <= 3
        assert not (seen & row)
        seen |= row
        assert sub.instance.matroid.is_independent(row)


def test_subinstance_full_block_is_whole_matroid():
    inst = u39_rota()
    dp = initial_double_partition(inst)
    sub = build_subinstance(inst, dp, (0, 1, 2))
    assert sub.span == frozenset(range(9))
    assert sub.trace_set == frozenset(range(9))
    assert sub.instance.rows == inst.bases


def test_subinstance_restriction_maps_back():
    inst = random_rota_instance(4, seed=3)
    dp = initial_double_partition(inst)
    sub = build_subinstance(inst, dp, select_block(dp, 3))
    parent_elements = sub.instance.matroid.parent_elements
    assert len(parent_elements) == 12
    assert parent_elements == tuple(sorted(sub.span))


# --- rebuild ------------------------------------------------------------------------

def run_one_step(inst):
    dp = initial_double_partition(inst)
    outcome = descent_step(inst, dp, 3)
    assert not isinstance(outcome, CounterexampleCertificate)
    return dp, outcome


def test_rebuild_gives_valid_double_partition():
    inst = random_rota_instance(4, seed=11)
    _, (new_dp, step) = run_one_step(inst)
    check_double_partition(inst, new_dp)


def test_rebuild_decreases_mu():
    inst = random_rota_instance(5, seed=2)
    dp, (new_dp, step) = run_one_step(inst)
    assert mu(new_dp) < mu(dp)
    assert step.mu_after == mu(new_dp)


def test_rebuild_zeroes_block_off_diagonal():
    inst = random_rota_instance(4, seed=5)
    dp = initial_double_partition(inst)
    block = select_block(dp, 3)
    sub = build_subinstance(inst, dp, block)
    new_dp, step = descent_step(inst, dp, 3)
    for a in block:
        for b in block:
            if a != b:
                assert not (new_dp.beta[a] & new_dp.tau[b]
                            & sub.span & sub.trace_set)
                # beta' lives in S and tau' in T, so the plain
                # intersection is empty too
                assert not (new_dp.beta[a] & new_dp.tau[b])


def test_rebuild_conserves_cross_terms():
    inst = random_rota_instance(5, seed=9)
    dp = initial_double_partition(inst)
    block = select_block(dp, 3)
    new_dp, _ = descent_step(inst, dp, 3)
    outside = [j for j in range(inst.n) if j not in block]
    before = sum(len(dp.beta[c] & dp.tau[j]) for c in block for j in outside)
    after = sum(len(new_dp.beta[c] & new_dp.tau[j])
                for c in block for j in outside)
    assert before == after
    before_t = sum(len(dp.beta[i] & dp.tau[c]) for i in outside for c in block)
    after_t = sum(len(new_dp.beta[i] & new_dp.tau[c])
                  for i in outside for c in block)
    assert before_t == after_t


def test_rebuild_rejects_bogus_subgrid():
    inst = u39_rota()
    dp = initial_double_partition(inst)
    sub = build_subinstance(inst, dp, (0, 1, 2))
    bad = ((0, 0, 0), (3, 3, 3), (6, 6, 6))
    with pytest.raises(ValueError):
        rebuild(inst, dp, sub, bad)


# --- descent_step -----------------------------------------------------------------------

def test_step_requires_small_dimensions():
    inst = u39_rota()
    dp = initial_double_partition(inst)
    with pytest.raises(ValueError):
        descent_step(inst, dp, 2)


def test_step_count_bounded_by_initial_mu():
    inst = random_rota_instance(5, seed=13)
    trace = rota_solve(inst)
    assert trace.grid is not None
    assert len(trace.steps) <= mu(initial_double_partition(inst))


def test_unsat_subsolve_becomes_certificate(monkeypatch):
    inst = u39_rota()
    dp = initial_double_partition(inst)
    stub = lambda _inst: SolveReport("UNSAT", None, None, 0, 0.0)
    monkeypatch.setattr(rotagrid.descent, "solve", stub)
    cert = descent_step(inst, dp, 3)
    assert isinstance(cert, CounterexampleCertificate)
    assert cert.instance.rows == inst.bases  # full block: rows are the B_i
    assert validate_instance(cert.instance)
    assert cert.instance.independence == REQUIRED
    assert cert.report.status == "UNSAT"


def test_certificate_surfaces_from_rota_solve(monkeypatch):
    inst = random_rota_instance(4, seed=1)
    stub = lambda _inst: SolveReport("UNSAT", None, None, 0, 0.0)
    monkeypatch.setattr(rotagrid.descent, "solve", stub)
    trace = rota_solve(inst)
    assert trace.grid is None
    assert trace.certificate is not None


def test_certificate_exports_replayable_files(tmp_path, monkeypatch):
    from rotagrid import parse_grid_instance, write_instance_files

    inst = random_rota_instance(4, seed=1)
    stub = lambda _inst: SolveReport("UNSAT", None, None, 0, 0.0)
    monkeypatch.setattr(rotagrid.descent, "solve", stub)
    cert = rota_solve(inst).certificate
    _, grid_path = write_instance_files(cert.instance, tmp_path, "cert")
    replay = parse_grid_instance(grid_path.read_text(), base_dir=tmp_path)
    assert replay.rows == cert.instance.rows
    assert replay.n == 4 and replay.k == 3
    # the exported matroid is the same restriction: identical rank function
    table_a = replay.matroid.build_rank_table()
    table_b = cert.instance.matroid.build_rank_table()
    assert table_a == table_b
    # re-solving the exported subproblem with the real solver refutes the
    # stub: these instances satisfy the hypotheses and are solvable
    from rotagrid import solve as real_solve
    assert real_solve(replay).status == "SAT"


# --- rota_solve ----------------------------------------------------------------------------

def test_rota_n2_direct():
    m = uniform_matroid(2, 4)
    inst = RotaInstance(m, (frozenset({0, 1}), frozenset({2, 3})))
    trace = rota_solve(inst)
    assert trace.steps == ()
    grid_inst = GridInstance(m, 2, 2, inst.bases, REQUIRED)
    assert validate_grid(grid_inst, trace.grid)


def test_rota_u39_rows_equal_bases():
    inst = u39_rota()
    trace = rota_solve(inst)
    for i, row in enumerate(trace.grid):
        assert frozenset(row) == inst.bases[i]
    grid_inst = GridInstance(inst.matroid, 3, 3, inst.bases, REQUIRED)
    assert validate_grid(grid_inst, trace.grid)


def test_rota_random_instances_strictly_decreasing_mu():
    for seed in range(8):
        inst = random_rota_instance(4, seed=seed)
        trace = rota_solve(inst)
        assert trace.grid is not None
        grid_inst = GridInstance(inst.matroid, 4, 4, inst.bases, REQUIRED)
        assert validate_grid(grid_inst, trace.grid)
        mus = [s.mu_before for s in trace.steps]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        if trace.steps:
            assert trace.steps[-1].mu_after == 0


def digest_trace(digest, trace, nodes=True):
    # every step's block, mu before and after, nodes (left out when `nodes`
    # is false, for a digest of the grids alone), subgrid and parent
    # elements, and the final grid
    for s in trace.steps:
        digest.update(repr((s.block, s.mu_before, s.mu_after,
                            s.report.nodes if nodes else None, s.report.grid,
                            s.subinstance.instance.matroid.parent_elements)
                       ).encode())
    digest.update(repr(trace.grid).encode())


def test_benchmark_descent_traces_are_pinned():
    # the 100 descents at n = 3..6, seeds 0..24, fixed by the search order;
    # the grid-only digest keeps a node move from hiding a grid move
    digest, grids = hashlib.sha256(), hashlib.sha256()
    steps = nodes = 0
    for n in (3, 4, 5, 6):
        for seed in range(25):
            trace = rota_solve(random_rota_instance(n, seed))
            digest_trace(digest, trace)
            digest_trace(grids, trace, nodes=False)
            steps += len(trace.steps)
            nodes += sum(s.report.nodes for s in trace.steps)
    assert (steps, nodes) == (501, 8199)
    assert digest.hexdigest() == ("9fb9b569d38a054b7fd36b1744a18e52"
                                  "5c9603972fb510d1e5625a01a2ee0097")
    assert grids.hexdigest() == ("e580ab2f79fcf3fd2c8f9baf6b4fea67"
                                 "81c8c75b30181eb8b21b74c7f0298951")


def test_graphic_descent_traces_are_pinned():
    # the benchmark descents are linear; these blocks are graphic
    # restrictions with many parallel classes, split by their least
    # partition.  The effort gate took the nodes from 64,961 to 20,034 and
    # the full digest from 812381dc... to 4861e635...; the grids held
    digest, grids = hashlib.sha256(), hashlib.sha256()
    steps = nodes = 0
    for n in (3, 4, 5, 6):
        for seed in range(5):
            o = random_graphic_matroid(n + 1, n * n, seed)
            trace = rota_solve(RotaInstance(o, find_basis_partition(o, n)))
            digest_trace(digest, trace)
            digest_trace(grids, trace, nodes=False)
            steps += len(trace.steps)
            nodes += sum(s.report.nodes for s in trace.steps)
    assert (steps, nodes) == (102, 20034)
    assert digest.hexdigest() == ("4861e63522eb8352ff7906b03b9c09c2"
                                  "25bed9386a54ccd8bd9359915b88a2c4")
    assert grids.hexdigest() == ("801ab8ef1c594d11c22544581ea122d4"
                                 "97dfe45ad1bcbf680a1c2a4202dcc378")


def test_rota_solve_keeps_the_reference_potential():
    # rota_solve loops while the last step's mu_after is positive; replayed
    # one step at a time, every block and potential must be the same, and
    # each mu_after must be mu of the double partition the step returned
    inst = random_rota_instance(9, seed=3)
    trace = rota_solve(inst)
    dp = initial_double_partition(inst)
    for s in trace.steps:
        dp, step = descent_step(inst, dp, 3)
        assert (step.block, step.mu_before, step.mu_after) == (
            s.block, s.mu_before, s.mu_after)
        assert step.mu_after == mu(dp)
    assert trace.steps and mu(dp) == 0


@pytest.mark.parametrize("n,steps,nodes",
                         [(12, 44, 1584), (16, 79, 3792), (20, 117, 7020)])
def test_large_descent_is_pinned(n, steps, nodes):
    # steps and subsolve nodes of large descents, fixed by their search order
    inst = random_rota_instance(n, seed=0)
    trace = rota_solve(inst)
    grid_inst = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
    assert validate_grid(grid_inst, trace.grid)
    assert len(trace.steps) == steps
    assert sum(s.report.nodes for s in trace.steps) == nodes


def reference_mu(dp):
    return sum(len(b & t) for i, b in enumerate(dp.beta)
               for j, t in enumerate(dp.tau) if i != j)


def reference_block(dp, k):
    # the lexicographically first off-diagonal pair by an n^2 scan, padded
    # with the smallest other indices
    n = len(dp.beta)
    first = next((i, j) for i in range(n) for j in range(n)
                 if i != j and dp.beta[i] & dp.tau[j])
    pad = [x for x in range(n) if x not in first][:k - 2]
    return tuple(sorted([*first, *pad]))


def test_every_intermediate_dp_is_valid():
    inst = random_rota_instance(5, seed=17)
    dp = initial_double_partition(inst)
    while mu(dp) > 0:
        outcome = descent_step(inst, dp, 3)
        assert not isinstance(outcome, CounterexampleCertificate)
        dp, _ = outcome
        check_double_partition(inst, dp)
        assert mu(dp) == reference_mu(dp)
        if mu(dp):
            for k in range(3, inst.n + 1):
                assert select_block(dp, k) == reference_block(dp, k)


@pytest.mark.parametrize("n,k,pins", [
    (5, 4, [(3, 65, "5c371711f7bce7362ae96844528d31fc"),
            (3, 60, "7bf270018337687f4d4f5d72ab6f080d"),
            (3, 60, "7bf270018337687f4d4f5d72ab6f080d")]),
    (6, 4, [(6, 144, "7a09665599ed8cef0b27e89546a9a44c")] * 3),
    (6, 5, [(3, 90, "1050e4a8bb6a687b6cfd5b9d26b5ff15"),
            (3, 90, "1050e4a8bb6a687b6cfd5b9d26b5ff15"),
            (3, 90, "4ec523e9865919a65dd9ca5855ebbe4f")]),
    (8, 4, [(14, 448, "c8fa4c6ddd5ac43d8902b4473be9ce0f")] * 3),
    (8, 5, [(10, 400, "dbf664094bdb0d81fd52fb8b21c9c745")] * 3),
])
def test_wide_block_descents_are_pinned(n, k, pins):
    # descents with blocks of k > 3 parts at seeds 0..2: steps, subsolve
    # nodes and a trace digest, fixed by the search order
    for seed, pin in enumerate(pins):
        inst = random_rota_instance(n, seed)
        trace = rota_solve(inst, k=k)
        grid_inst = GridInstance(inst.matroid, n, n, inst.bases, REQUIRED)
        assert validate_grid(grid_inst, trace.grid)
        assert all(len(s.block) == k for s in trace.steps)
        digest = hashlib.sha256()
        digest_trace(digest, trace)
        got = (len(trace.steps), sum(s.report.nodes for s in trace.steps),
               digest.hexdigest()[:32])
        assert got == pin, (n, k, seed)


def test_rota_block_size_above_n_rejected():
    inst = u39_rota()
    with pytest.raises(ValueError):
        rota_solve(inst, k=4)


def test_rota_rejects_bad_instance():
    m = uniform_matroid(3, 9)
    bad = RotaInstance(m, (frozenset({0, 1, 2}), frozenset({2, 3, 4}),
                           frozenset({6, 7, 8})))
    with pytest.raises(ValueError):
        rota_solve(bad)


def test_mu_zero_iff_beta_equals_tau():
    inst = u39_rota()
    dp = rainbow_dp()
    check_double_partition(inst, dp)
    assert mu(dp) == 0
    # and conversely: mu == 0 forces the parts to coincide
    trace = rota_solve(inst)
    assert trace.grid is not None
    cols = tuple(frozenset(row[j] for row in trace.grid) for j in range(3))
    final = DoublePartition(cols, cols)
    assert mu(final) == 0


def test_grid_from_double_partition_requires_mu_zero():
    inst = u39_rota()
    with pytest.raises(ValueError):
        grid_from_double_partition(inst, initial_double_partition(inst))


def test_trace_json_round_trips():
    inst = random_rota_instance(4, seed=21)
    trace = rota_solve(inst)
    steps = json.loads(json.dumps(trace.to_dict()))["steps"]
    assert len(steps) == len(trace.steps)
    for rec, step in zip(steps, trace.steps):
        assert rec["block"] == list(step.block)
        assert rec["mu_before"] > rec["mu_after"]
        assert "GRIDINSTANCE v1" in rec["subinstance"]
        assert "MATROID v1" in rec["submatroid"]
