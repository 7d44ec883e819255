"""The root presolve: what the hard reach decides, found once per solve.

``SearchState`` decides disjunctions and direct successor implications
from the hard reach before the search, to a fixpoint, and the search works
from the rows that are left: a disjunction with a hard chain for one
disjunct is dropped, a disjunct against a hard chain turns its
alternative into a hard edge, a direct successor on end i with partner j
adds pred(j) - {i} -> i and j -> succ(i) - {j}, and a soft edge equal to
an added hard edge is dropped. Each rule keeps the set of valid orders
exactly. These tests check each rule by hand, the presolved rows against
the oracle (the same valid count and the same optimal set), that the
presolve finds nothing more on its own result, and a trap the depth-first
search fell into before.
"""

import random

from ctwkit import (Instance, ResultState, SearchState, SolverConfig, enumerate_solutions,
                    solve)
from ctwkit.generate import GenParams, anytime_suite, certification_suite, generate_planted

from search_reference import presolved


def rows(st):
    """The hard edges, soft edges and disjunctions a state works from."""
    edges = sorted((u, v) for u in range(1, st.k + 1) for v in st.succs[u])
    return edges, sorted(st.soft_atomic), list(st.disjunctive)


def test_a_disjunct_on_a_hard_chain_drops_its_disjunction():
    # 1 -> 2 -> 3 makes "1 before 3" hold in every valid order
    st = SearchState(Instance(k=4, b=0, atomic=[(1, 2), (2, 3)], disjunctive=[(1, 3, 4, 2)]))
    assert rows(st) == ([(1, 2), (2, 3)], [], [])
    assert (st.presolve_decided, st.presolve_edges) == (1, 0)


def test_a_disjunct_against_a_hard_chain_makes_its_alternative_hard():
    # 3 -> 2 -> 1 makes "1 before 3" fail in every valid order, so 4 -> 2
    # must hold; the soft 4 -> 2 then always holds and is dropped
    inst = Instance(k=4, b=0, atomic=[(3, 2), (2, 1)], soft_atomic=[(4, 2), (1, 4)],
                    disjunctive=[(1, 3, 4, 2)])
    st = SearchState(inst)
    assert rows(st) == ([(2, 1), (3, 2), (4, 2)], [(1, 4)], [])
    assert (st.presolve_decided, st.presolve_edges) == (1, 1)
    assert solve(inst).best[0].tour in ((3, 4, 2, 1), (4, 3, 2, 1))


def test_both_disjuncts_against_hard_chains_leave_no_order():
    inst = Instance(k=4, b=0, atomic=[(3, 1), (4, 2)], disjunctive=[(1, 3, 2, 4)])
    st = SearchState(inst)
    assert not st.acyclic
    # a failed presolve leaves the instance's own edges
    assert rows(st)[0] == [(3, 1), (4, 2)] and st.presolve_edges == 0
    res = solve(inst)
    assert res.state is ResultState.UNSATISFIABLE and res.stats.nodes_expanded == 0
    assert enumerate_solutions(inst).valid_count == 0


def test_a_direct_successor_orders_its_neighbours():
    # a direct successor on 1 puts 2 right after 1 or before it: 3, before
    # 2, comes before 1, and 4, after 1, comes after 2
    inst = Instance(k=4, b=1, atomic=[(3, 2), (1, 4)], direct_successors=[1])
    st = SearchState(inst)
    assert rows(st)[0] == [(1, 4), (2, 4), (3, 1), (3, 2)]
    assert (st.presolve_decided, st.presolve_edges) == (0, 2)
    orc = enumerate_solutions(inst)
    assert orc.valid_count == enumerate_solutions(presolved(inst)).valid_count == 2


def test_a_direct_successor_across_a_chain_leaves_no_order():
    # 1 -> 3 -> 2 keeps 2 from following 1 at once, and from coming first
    inst = Instance(k=3, b=1, atomic=[(1, 3), (3, 2)], direct_successors=[1])
    assert not SearchState(inst).acyclic
    assert solve(inst).state is ResultState.UNSATISFIABLE
    assert enumerate_solutions(inst).valid_count == 0


def test_rules_repeat_to_a_fixpoint():
    # round one: the disjunct (3, 5) dies against 5 -> 3, so 1 -> 4 is
    # hard; round two: that edge with 4 -> 2 decides (1, 2 | 2, 6)
    inst = Instance(k=6, b=0, atomic=[(5, 3), (4, 2)],
                    disjunctive=[(2, 6, 1, 2), (3, 5, 1, 4)])
    st = SearchState(inst)
    assert rows(st) == ([(1, 4), (4, 2), (5, 3)], [], [])
    assert (st.presolve_decided, st.presolve_edges) == (2, 1)


def test_counters_reach_solve_stats():
    inst = Instance(k=4, b=0, atomic=[(3, 2), (2, 1)], disjunctive=[(1, 3, 4, 2)])
    stats = solve(inst).stats
    assert (stats.presolve_decided, stats.presolve_edges) == (1, 1)
    assert solve(inst, SolverConfig(node_limit=1)).stats.presolve_edges == 1


def check_equivalence(seeds) -> tuple[int, int]:
    """Hold the presolved rows of every ``certification_suite(seed,
    count=200)`` instance (k <= 8) to the instance itself: the same valid
    count and the same optimal set from ``enumerate_solutions``, and a
    solve that proves one of those optima. An unsatisfiable instance must
    stop at the root. Returns (instances the presolve changed,
    unsatisfiable instances)."""
    changed = unsatisfiable = 0
    for seed in seeds:
        for _, params in certification_suite(seed=seed, count=200):
            inst, _ = generate_planted(params)
            orc = enumerate_solutions(inst)
            res = solve(inst)
            if not orc.valid_count:
                unsatisfiable += 1
                assert res.state is ResultState.UNSATISFIABLE, inst
                assert res.stats.nodes_expanded == 0, inst
                continue
            reduced = presolved(inst)
            changed += reduced != inst
            got = enumerate_solutions(reduced)
            optima = {p.tour for p in orc.optimal_solutions}
            assert got.valid_count == orc.valid_count, inst
            assert got.optimal_objective == orc.optimal_objective, inst
            assert {p.tour for p in got.optimal_solutions} == optima, inst
            assert res.state is ResultState.OPTIMAL, inst
            assert res.best[0].tour in optima, inst
    return changed, unsatisfiable


def test_presolved_rows_keep_every_valid_order_and_every_optimum():
    # seeds 0-3: 800 instances, 120 of them unsatisfiable by an injected
    # hard cycle; the presolve changes 199 of the other 680
    changed, unsatisfiable = check_equivalence(range(4))
    assert unsatisfiable == 120
    assert changed >= 180


def test_presolve_finds_nothing_more_on_its_own_rows():
    # the reach kept in place is the one a fresh chain_reach builds on the
    # presolved rows: the same separated pairs, swap masks and floors
    rng = random.Random(211)
    moved = 0
    for idx in range(60):
        k = rng.randint(12, 40)
        b = rng.randint(k // 4, k // 2)
        inst, _ = generate_planted(GenParams(
            b=b, n=k - 2 * b, p_atomic=rng.choice((0.08, 0.18, 0.3)),
            p_soft=rng.choice((0.02, 0.1)), p_disjunctive=rng.choice((0.05, 0.1)),
            ds_count=rng.randint(0, b), seed=rng.randrange(2 ** 30)))
        st, again = SearchState(inst), SearchState(presolved(inst))
        assert (again.presolve_decided, again.presolve_edges) == (0, 0), inst
        for name in ("separated", "swap", "may_wait", "triangles_of", "soft_pending",
                     "n_committed", "waiting", "ready"):
            assert getattr(again, name) == getattr(st, name), (inst, name)
        assert sorted(map(sorted, again.succs)) == sorted(map(sorted, st.succs))
        moved += st.presolve_edges > 0
    assert moved >= 40


def test_depth_first_trap_finds_an_incumbent():
    # without the presolve, the dive on this instance (perfbench/NOTES.md)
    # found no valid leaf within 100,000 nodes
    inst, _ = generate_planted(GenParams(b=13, n=19, p_atomic=0.18, p_soft=0.01,
                                         p_disjunctive=0.1, ds_count=11, seed=100077))
    res = solve(inst, SolverConfig(node_limit=2_000))
    assert res.state is ResultState.SUBOPTIMAL and res.best is not None


def trap_set_misses(seeds=range(4), node_limit=2_000) -> list[tuple[int, str]]:
    """The (seed, name) of each ``anytime_suite(seed, count=50,
    k_range=(40, 60))`` instance that finds no incumbent within
    ``node_limit`` nodes."""
    misses = []
    for seed in seeds:
        for name, params in anytime_suite(seed, count=50, k_range=(40, 60)):
            inst, _ = generate_planted(params)
            if solve(inst, SolverConfig(node_limit=node_limit)).best is None:
                misses.append((seed, name))
    return misses
