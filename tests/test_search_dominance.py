"""The solver's floors only prune: they never change the improving leaves.

Each floor is held to the search without it. ``FloorlessSearchState``
keeps neither floor: S counts closed pairs with a gap and open pairs, and
exempts the last job's open pair whether or not a hard chain separates
it. ``NFloorlessSearchState`` adds the separated-pair floor back,
``ChargelessSearchState`` the soft-cycle N floor on top, and
``SwaplessSearchState`` the S charge for a pair opened while its partner
waits on a hard predecessor. Running ``solve`` with the weaker state in
place of ``SearchState`` gives the reference search. The weaker states
price through the solver's one-pass ``extend_candidates``;
``FloorlessSearchState`` is held to the pre-floor ``child_bound``, kept
unchanged in ``search_reference.FloorlessReferenceState``, on random
states.

All of these run without the swap rule, which drops children rather
than pricing them higher, so it may cut the path to an improving leaf
that a dominating prefix reaches later; ``tests/test_swap_rule.py``
holds it to the probe and the oracle instead.

The solver tries the child with the lowest bound first, so a stronger
bound also reorders the branches. The floors are therefore compared on
one fixed order, that of ``search_reference.id_tie_order`` (the unplaced
end of the newest open pair, then the most hard successors, then the
lower id), on both sides. There each floor is admissible, pruning stays
``>= incumbent`` and the candidate order does not depend on the bound,
so the stronger bound visits a subset of the reference's nodes in the
same order and reaches every improving leaf the reference reaches, at a
node count no higher. Under a node budget it may then go on to further
incumbents; run to proof, both searches end with the same trajectory and
state. The bound-first order itself is held to the same proven optimum
in fewer nodes, here on MAS and in ``tests/test_branch_order.py`` on
exact-shaped instances.
"""

import random

import pytest

import ctwkit.solver
from ctwkit import ResultState, SolverConfig, solve
from ctwkit.digraph import DiGraph
from ctwkit.generate import GenParams, generate_planted
from ctwkit.reduction import mas_to_ctw

from search_reference import (ChargelessSearchState, FloorlessReferenceState,
                              FloorlessSearchState, NFloorlessSearchState,
                              SwaplessSearchState, check_pricing_in_lockstep,
                              id_tie_order, presolved, replay)
from test_search_golden import (ANYTIME_NODE_LIMIT, anytime_cases,
                                exact_cases)
from test_solver import pricing_cases


def traced_solve(monkeypatch, state_cls, inst, node_limit):
    """Solve with ``state_cls``; return the result and the incumbent
    trajectory as (nodes so far, tour, objective) per improving leaf.

    Nodes are counted as ``extend_candidates`` calls, and ``solve`` prices
    a full tour with ``breakdown`` only at an improving leaf.
    """
    nodes = [0]
    trajectory = []

    class Counting(state_cls):
        def extend_candidates(self, cutoff=None):
            nodes[0] += 1
            return super().extend_candidates(cutoff)

    price = ctwkit.solver.breakdown

    def recording_breakdown(inst, perm):
        bd = price(inst, perm)
        trajectory.append((nodes[0], perm.tour, bd.objective))
        return bd

    with monkeypatch.context() as patch:
        patch.setattr(ctwkit.solver, "SearchState", Counting)
        patch.setattr(ctwkit.solver, "breakdown", recording_breakdown)
        res = solve(inst, SolverConfig(time_limit_ms=3_600_000, node_limit=node_limit))
    return res, trajectory


def dominance_cases():
    """The golden pins' instances, plus seeded ones of k = 14..40 over the
    benchmark's atomic densities, with and without a node budget."""
    cases = [(p, ANYTIME_NODE_LIMIT) for p in anytime_cases()]
    cases += [(p, None) for p in exact_cases()]
    rng = random.Random(2027)
    for idx in range(60):
        k = rng.randint(14, 40)
        b = rng.randint(k // 4, k // 2)
        cases.append((GenParams(b=b, n=k - 2 * b,
                                p_atomic=(0.08, 0.18, 0.3)[idx % 3],
                                p_soft=rng.choice((0.01, 0.02)),
                                p_disjunctive=rng.choice((0.05, 0.1)),
                                ds_count=rng.randint(0, b), seed=9_000 + idx),
                      ANYTIME_NODE_LIMIT))
    return [(generate_planted(p)[0], node_limit) for p, node_limit in cases]


def mas_cases():
    """MAS encodings of 10- and 11-vertex digraphs solved to proof: the
    exact workload's shape (a random orientation of half the vertex
    pairs), and every other one with some pairs joined both ways."""
    rng = random.Random(2029)
    cases = []
    for idx in range(16):
        n = 10 + idx % 2
        pairs = rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
                           n * (n - 1) // 4)
        edges = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs}
        if idx % 4 >= 2:
            edges |= {(v, u) for u, v in pairs if rng.random() < 0.2}
        cases.append((mas_to_ctw(DiGraph(n, frozenset(edges))), None))
    return cases


def check_dominance(monkeypatch, weaker, stronger, cases):
    """Solve each case with both states and hold the stronger one to the
    weaker one's trajectory. Returns (runs to proof, runs under a budget
    that found further incumbents, nodes to proof with the stronger state,
    with the weaker one)."""
    finished = 0
    further = 0
    nodes_floor = nodes_reference = 0
    for inst, node_limit in cases:
        ref, ref_traj = traced_solve(monkeypatch, weaker, inst, node_limit)
        new, new_traj = traced_solve(monkeypatch, stronger, inst, node_limit)
        assert [t[1:] for t in new_traj[:len(ref_traj)]] == [t[1:] for t in ref_traj], inst
        for (n_new, _, _), (n_ref, _, _) in zip(new_traj, ref_traj):
            assert n_new <= n_ref, inst
        if ref.state in (ResultState.OPTIMAL, ResultState.UNSATISFIABLE):
            finished += 1
            assert new.state is ref.state, inst
            assert [t[1:] for t in new_traj] == [t[1:] for t in ref_traj], inst
            assert new.stats.nodes_expanded <= ref.stats.nodes_expanded, inst
            nodes_floor += new.stats.nodes_expanded
            nodes_reference += ref.stats.nodes_expanded
        else:
            assert new.stats.proven_lower_bound >= ref.stats.proven_lower_bound, inst
        further += len(new_traj) > len(ref_traj)
    return finished, further, nodes_floor, nodes_reference


def test_floor_reaches_every_reference_incumbent_no_later(monkeypatch):
    # the separated-pair floor, both states without the N floor
    finished, further, nodes_floor, nodes_reference = check_dominance(
        monkeypatch, id_tie_order(FloorlessSearchState),
        id_tie_order(NFloorlessSearchState), dominance_cases())
    assert finished >= 20
    assert nodes_floor < nodes_reference
    # under the budget the saved nodes buy incumbents the reference misses
    assert further >= 1


def test_n_floor_reaches_every_reference_incumbent_no_later(monkeypatch):
    # both states without the S charge
    finished, further, nodes_floor, nodes_reference = check_dominance(
        monkeypatch, id_tie_order(NFloorlessSearchState),
        id_tie_order(ChargelessSearchState), dominance_cases())
    assert finished >= 20
    assert nodes_floor < nodes_reference
    assert further >= 1


def test_n_floor_on_mas_proves_the_same_optimum_in_fewer_nodes(monkeypatch):
    finished, _, nodes_floor, nodes_reference = check_dominance(
        monkeypatch, id_tie_order(NFloorlessSearchState),
        id_tie_order(ChargelessSearchState), mas_cases())
    assert finished == 16
    # the bound was the committed N alone: the floor cuts MAS proofs hard
    assert 2 * nodes_floor < nodes_reference


def test_charge_reaches_every_reference_incumbent_no_later(monkeypatch):
    # the S charge for a pair opened while its partner waits on a hard
    # predecessor, on top of both floors
    finished, further, nodes_charged, nodes_reference = check_dominance(
        monkeypatch, id_tie_order(ChargelessSearchState),
        id_tie_order(SwaplessSearchState), dominance_cases())
    assert finished >= 20
    assert nodes_charged < nodes_reference
    assert further >= 1


def test_bound_tie_break_on_mas_proves_the_same_optimum_in_fewer_nodes(monkeypatch):
    # no MAS job has a hard successor: every child ties on rank, and the
    # cheapest one first finds the optimum early
    nodes_id = nodes_bound = 0
    for inst, _ in mas_cases():
        ref, _ = traced_solve(monkeypatch, id_tie_order(SwaplessSearchState), inst, None)
        new, _ = traced_solve(monkeypatch, SwaplessSearchState, inst, None)
        assert new.state is ref.state is ResultState.OPTIMAL, inst
        assert new.best[1].objective == ref.best[1].objective, inst
        nodes_id += ref.stats.nodes_expanded
        nodes_bound += new.stats.nodes_expanded
    assert 2 * nodes_bound < nodes_id


@pytest.mark.parametrize("prefix, bound", [([], 0), ([3], 0), ([3, 5], 155)])
def test_floorless_reference_keeps_the_previous_bound(five_job, prefix, bound):
    # before the separated-pair floor, the pair (1, 3) cost nothing until
    # job 3 stopped being last
    assert replay(FloorlessSearchState, five_job, prefix).lower_bound() == bound


def test_floorless_state_prices_like_the_floorless_reference():
    rng = random.Random(139)
    compared = 0
    for inst in map(presolved, pricing_cases(rng)):
        compared += check_pricing_in_lockstep(FloorlessSearchState(inst),
                                              FloorlessReferenceState(inst),
                                              rng, moves=3 * inst.k)
    assert compared >= 2000
