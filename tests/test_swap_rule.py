"""The swap rule: at a node X·a with an incumbent, the solver drops a
child c when X·c·a does no worse than X·a·c.

The rule reads a static per-job mask, ``SearchState.swap``, and two facts
off the positions: c opens no pair, and a closed none. Each test here
holds it to something independent of that shortcut: the masks to their
definition over the instance's edges, every dropped child to the replay
probe ``search_reference.swap_probe``, and the optima to the oracle and
to the search without the rule (``SwaplessSearchState``).
"""

import random

import pytest

import ctwkit.solver
from ctwkit import Instance, ResultState, SolverConfig, enumerate_solutions, solve
from ctwkit.generate import GenParams, certification_suite, generate_planted

from conftest import (general_disjunction_instances, mas_instances, random_instance,
                      soft_heavy_instances)
from search_reference import SwaplessSearchState, check_swaps_in_lockstep, presolved
from test_search_golden import exact_cases
from test_solver import ALL_MODES, floyd_warshall, pricing_cases


def expected_masks(inst):
    """Per job a, the jobs c the rule lets X·c·a stand in for X·a·c: no
    hard chain a -> c, no disjunct joining a and c, and a soft c -> a
    without a soft a -> c, or the soft edges the same both ways and c < a.

    Also per job a, the jobs c that can follow it at all: a job with a
    hard chain c -> a never does, so its bit decides nothing."""
    k = inst.k
    reach = floyd_warshall(k, inst.atomic)
    soft = set(inst.soft_atomic)
    joined = {frozenset(d) for a, c, oa, oc in inst.disjunctive for d in ((a, c), (oa, oc))}
    masks = [0] * (k + 1)
    after = [0] * (k + 1)
    for a in range(1, k + 1):
        for c in range(1, k + 1):
            if c == a or reach[c][a]:
                continue
            after[a] |= 1 << c
            if reach[a][c] or frozenset((a, c)) in joined:
                continue
            into, out = (c, a) in soft, (a, c) in soft
            if into > out or into == out and c < a:
                masks[a] |= 1 << c
    return masks, after


def test_masks_follow_their_definition():
    rng = random.Random(157)
    cases = [random_instance(rng, mode, max_k=9)[0] for mode in ALL_MODES for _ in range(30)]
    cases += [inst for inst, _ in soft_heavy_instances(rng, 60, 9)]
    cases += general_disjunction_instances(rng, 30, 6, 12)
    cases += mas_instances(rng, 20, 4, 8)
    acyclic = 0
    for inst in cases:
        st = ctwkit.solver.SearchState(inst)
        if st.acyclic:
            acyclic += 1
            # the chains and disjuncts the state works from, after the presolve
            masks, after = expected_masks(presolved(inst))
            assert [m & f for m, f in zip(st.swap, after)] == masks, inst
        else:  # no order to swap in, and no reach to check chains against
            assert not any(st.swap), inst
    assert acyclic >= 150


def test_hand_masks():
    # with no edge between them, the lower id goes first; soft 4 -> 2
    # lets 4 go before 2 and not the reverse; the digon 1 <-> 3 breaks by
    # id; the hard edge 5 -> 1 and the disjuncts (3, 5) and (2, 5) rule
    # those pairs out
    inst = Instance(k=5, b=0, atomic=[(5, 1)], soft_atomic=[(4, 2), (1, 3), (3, 1)],
                    disjunctive=[(3, 5, 2, 5)])
    swap = ctwkit.solver.SearchState(inst).swap
    assert [[c for c in range(1, 6) if swap[a] >> c & 1] for a in range(1, 6)] == [
        [], [1, 4], [1, 2], [1, 3], [4]]


def test_dropped_children_match_the_probe():
    # every child the rule drops, with an incumbent on each side, is one
    # the replay probe confirms or one that closes a forced cycle, and
    # drop_dominated thins lists priced without an incumbent the same way
    rng = random.Random(163)
    cases = pricing_cases(rng)
    cases += [inst for inst, _ in soft_heavy_instances(rng, 40, 9)]
    cases += mas_instances(rng, 20, 5, 9)
    compared = dropped = probe_only = 0
    for inst in cases:
        c, d, p = check_swaps_in_lockstep(inst, rng, 3 * inst.k)
        compared += c
        dropped += d
        probe_only += p
    assert compared >= 4000
    assert dropped >= 3000
    # the probe also finds swaps the static masks cannot see
    assert probe_only >= 1


def oracle_cases():
    """``certification_suite`` seeds 0-7, four-job disjunctions, soft-heavy
    instances (digons, triangles) and MAS encodings, all k <= 8. Seeds 6-7
    came in with the root presolve, which leaves fewer swaps per instance."""
    rng = random.Random(167)
    cases = [generate_planted(p)[0] for seed in range(8)
             for _, p in certification_suite(seed=seed, count=130)]
    cases += general_disjunction_instances(rng, 100, 5, 8)
    cases += [inst for inst, _ in soft_heavy_instances(rng, 100, 8)]
    cases += mas_instances(rng, 150, 4, 8)
    return cases


def test_swap_rule_agrees_with_the_oracle():
    disagreements = swaps = 0
    for inst in oracle_cases():
        orc = enumerate_solutions(inst)
        res = solve(inst)
        swaps += res.stats.swap_prunes
        if orc.valid_count == 0:
            disagreements += res.state is not ResultState.UNSATISFIABLE
        elif res.state is not ResultState.OPTIMAL:
            disagreements += 1
        else:
            disagreements += res.best[1].objective != orc.optimal_objective
            disagreements += res.best[0].tour not in {p.tour for p in orc.optimal_solutions}
    assert disagreements == 0
    assert swaps >= 1000


def solve_with(monkeypatch, state_cls, inst, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(ctwkit.solver, "SearchState", state_cls)
        return solve(inst, cfg)


@pytest.mark.parametrize("k", [13, 15, 17])
def test_same_optimum_as_the_swapless_search(monkeypatch, k):
    # exact-shaped instances past the oracle's reach: every pair with a
    # direct successor and dense hard edges, solved to proof both ways
    cfg = SolverConfig(time_limit_ms=3_600_000)
    nodes = nodes_swapless = 0
    for idx in range(8):
        inst, _ = generate_planted(GenParams(b=k // 2, n=k % 2, p_atomic=0.30, p_soft=0.05,
                                             p_disjunctive=0.10, ds_count=k // 2,
                                             seed=910_000 + 100 * k + idx))
        res = solve(inst, cfg)
        ref = solve_with(monkeypatch, SwaplessSearchState, inst, cfg)
        assert res.state is ref.state is ResultState.OPTIMAL, inst
        assert res.best[1].objective == ref.best[1].objective, inst
        nodes += res.stats.nodes_expanded
        nodes_swapless += ref.stats.nodes_expanded
    assert nodes < nodes_swapless


def test_first_incumbent_thins_the_waiting_frames(monkeypatch):
    # before the first incumbent no child is dropped; when it lands, the
    # frames on the stack lose what the rule drops there, and the search
    # still proves the same optimum as the exact golden cases pin
    for params in exact_cases():
        inst, _ = generate_planted(params)
        drops = []

        class Watching(ctwkit.solver.SearchState):
            def drop_dominated(self, frames):
                before = self.swap_drops
                super().drop_dominated(frames)
                drops.append((before, self.swap_drops - before))

        res = solve_with(monkeypatch, Watching, inst, SolverConfig())
        ref = solve_with(monkeypatch, SwaplessSearchState, inst, SolverConfig())
        assert res.best[1].objective == ref.best[1].objective
        assert len(drops) == 1 and drops[0][0] == 0  # once, and nothing dropped before
