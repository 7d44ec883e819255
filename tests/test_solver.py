import dataclasses
import itertools
import random

import pytest

import ctwkit.solver
from ctwkit import (
    Instance,
    Permutation,
    ResultState,
    SearchState,
    SolverConfig,
    breakdown,
    enumerate_solutions,
    solve,
    unsat_precheck,
    validate,
)
from ctwkit.generate import GenMode, GenParams, generate, generate_planted
from ctwkit.solver import chain_reach

from ctwkit.bench import run_engine

from conftest import (general_disjunction_instances, mas_instances, random_instance,
                      soft_heavy_instances)
from test_search_golden import ANYTIME_NODE_LIMIT, anytime_cases, digest_cases, exact_cases
from search_reference import (NFloorlessSearchState, ReferenceSearchState,
                              SwaplessSearchState, check_pricing_in_lockstep,
                              mandatory_disjuncts, presolved, replay, scan_candidates)

ALL_MODES = (GenMode.SATISFIABLE, GenMode.UNSATISFIABLE, GenMode.ATOMIC_ONLY,
             GenMode.DS_ONLY)


def best_completion_objective(inst, prefix):
    """Exhaustive minimum objective over valid completions of a prefix."""
    remaining = [j for j in range(1, inst.k + 1) if j not in set(prefix)]
    best = None
    for tail in itertools.permutations(remaining):
        perm = Permutation(tuple(prefix) + tail)
        if validate(inst, perm):
            continue
        obj = breakdown(inst, perm).objective
        if best is None or obj < best:
            best = obj
    return best


def test_reference_instance_solved_to_optimality(five_job):
    result = solve(five_job)
    assert result.state is ResultState.OPTIMAL
    perm, bd = result.best
    assert bd.objective == 160
    assert validate(five_job, perm) == []
    assert result.stats.proven_lower_bound == 160


def test_contradiction_is_unsatisfiable_via_precheck():
    result = solve(Instance(k=2, b=0, atomic=[(1, 2), (2, 1)]))
    assert result.state is ResultState.UNSATISFIABLE
    assert result.best is None
    assert result.stats.nodes_expanded == 0


def test_disjunctive_only_unsat_needs_exhaustion():
    inst = Instance(k=2, b=1, disjunctive=[(1, 2, 1, 2), (2, 1, 2, 1)])
    result = solve(inst)
    assert result.state is ResultState.UNSATISFIABLE
    assert result.stats.nodes_expanded > 0


def test_degenerate_sizes():
    result = solve(Instance(k=0, b=0))
    assert result.state is ResultState.OPTIMAL
    assert result.best[0] == Permutation(())
    assert result.best[1].objective == 0

    result = solve(Instance(k=1, b=0))
    assert result.state is ResultState.OPTIMAL
    assert result.best[0] == Permutation((1,))
    assert result.best[1].objective == 0


def test_extend_candidates_reference_cases(five_job):
    st = replay(SearchState, five_job, [])
    cands = st.extend_candidates()
    # 4 and 1 wait for predecessors; urgency order: most unplaced
    # successors first; every child pays the separated pair (1, 3), and 2
    # also its own pair: it opens (2, 4) while 4 waits on 3 and 5
    assert cands == [(125, 3), (125, 5), (250, 2)]
    assert st.extend_candidates(125) == []  # none beats an incumbent of 125

    st = replay(SwaplessSearchState, five_job, [5, 3, 4])
    # successor constraint forces the partner, which closes (2, 4)
    # adjacently while (1, 3) stays open from position 2: S, M, L = 1, 1, 2
    assert st.extend_candidates() == [(160, 2)]
    assert st.extend_candidates(161) == [(160, 2)]
    assert st.extend_candidates(160) == []

    # with an incumbent the swap rule drops it: 5 3 2 4 commits as much,
    # and 2 < 4 breaks the tie
    st = replay(SearchState, five_job, [5, 3, 4])
    assert st.extend_candidates() == [(160, 2)]
    assert st.extend_candidates(161) == []
    assert (st.bound_drops, st.swap_drops) == (0, 1)

    st = replay(SearchState, five_job, [5, 3, 4, 2, 1])
    assert st.extend_candidates() == []


def test_branch_order_is_bound_then_id():
    # soft predecessors alone set the bounds, so 4 (one soft predecessor)
    # comes before 3 (two), 1 before 2 by id
    st = SearchState(Instance(k=4, b=0, soft_atomic=[(1, 3), (2, 3), (1, 4)]))
    assert st.extend_candidates() == [(0, 1), (0, 2), (1, 4), (2, 3)]
    # a lower bound goes first, over more hard successors
    st = SearchState(Instance(k=5, b=0, atomic=[(3, 5)],
                              soft_atomic=[(1, 3), (2, 3), (1, 4)]))
    assert st.extend_candidates() == [(0, 1), (0, 2), (1, 4), (2, 3)]
    # equal bounds: the lower id, whatever the hard successors
    st = SearchState(Instance(k=4, b=0, atomic=[(3, 4), (3, 2)]))
    assert st.extend_candidates() == [(0, 1), (0, 3)]
    # pairs (1, 3) and (2, 4) open at positions 1 and 2, then job 5:
    # closing the older pair shortens L by one (k = 6 cheaper), so 3 comes
    # before 4, the unplaced end of the newer pair
    st = replay(SearchState, Instance(k=6, b=2), [1, 2, 5])
    assert st.extend_candidates() == [(516, 3), (522, 4), (522, 6)]


def test_lower_bound_reference_cases(five_job):
    # pair (1, 3) is separated by the hard chain 3 -> 4 -> 1: it is broken
    # in every valid order, so S = 1 (k^3 = 125) from the root on, and its
    # placed end being last exempts nothing
    assert replay(SearchState, five_job, []).lower_bound() == 125
    assert replay(SearchState, five_job, [3]).lower_bound() == 125
    # job 3's partner can no longer be adjacent: S and L and M committed
    st = replay(SearchState, five_job, [3, 5])
    assert st.lower_bound() == 155
    assert st.lower_bound() >= 130
    # a direct edge 1 -> 2 separates nothing: the open pair whose placed
    # end is still last is exempt, so nothing is committed
    adjacent = Instance(k=3, b=1, atomic=[(1, 2)])
    assert replay(SearchState, adjacent, []).lower_bound() == 0
    assert replay(SearchState, adjacent, [1]).lower_bound() == 0


def chain_dense_instances(rng, count, max_k):
    """Satisfiable planted instances with pairs, a one-sided job and dense
    hard chains, so many pairs are separated."""
    for _ in range(count):
        b = rng.randint(1, (max_k - 1) // 2)
        yield generate_planted(GenParams(
            b=b, n=rng.randint(1, max_k - 2 * b), p_atomic=0.6,
            p_soft=rng.choice((0.0, 0.1)), p_disjunctive=rng.choice((0.0, 0.15)),
            ds_count=rng.randint(0, b), seed=rng.randrange(2 ** 30)))


def test_lower_bound_admissible_against_exhaustive_completion():
    rng = random.Random(73)
    cases = [random_instance(rng, max_k=6) for _ in range(50)]
    cases += chain_dense_instances(rng, 40, max_k=7)
    # forced soft edges, soft digons and triangles: the N floor; every
    # order is valid on the MAS reduction
    soft_rng = random.Random(173)
    cases += soft_heavy_instances(soft_rng, 60, max_k=7)
    cases += [(inst, Permutation(tuple(range(1, inst.k + 1))))
              for inst in mas_instances(soft_rng, 30, 4, 7)]
    checked = 0
    separated = 0
    for inst, plant in cases:
        if plant is None or inst.k == 0:
            continue
        # prefixes of a valid permutation are consistent search states
        depth = rng.randint(0, inst.k - 1)
        prefix = list(plant.tour[:depth])
        st = replay(SearchState, inst, prefix)
        lb = st.lower_bound()
        best = best_completion_objective(inst, prefix)
        assert best is not None  # the plant itself completes it
        assert lb <= best
        checked += 1
        separated += any(st.separated)
    assert checked >= 140
    assert separated >= 20  # the separated-pair floor is exercised


def floyd_warshall(k, edges):
    """Reference closure: reach[v][w] when a path of one or more edges
    leads from v to w."""
    reach = [[False] * (k + 1) for _ in range(k + 1)]
    for u, w in edges:
        reach[u][w] = True
    for x in range(1, k + 1):
        for v in range(1, k + 1):
            if reach[v][x]:
                for w in range(1, k + 1):
                    if reach[x][w]:
                        reach[v][w] = True
    return reach


def adjacency(k, edges):
    """Successor lists and in-degrees of an edge list over jobs 1..k."""
    succs = [[] for _ in range(k + 1)]
    indeg = [0] * (k + 1)
    for u, w in edges:
        succs[u].append(w)
        indeg[w] += 1
    return succs, indeg


def test_chain_reach_matches_floyd_warshall():
    rng = random.Random(107)
    for _ in range(200):
        k = rng.randint(0, 12)
        rank = list(range(1, k + 1))
        rng.shuffle(rank)  # a DAG over a random vertex order
        density = rng.choice((0.1, 0.3, 0.6))
        edges = [(rank[i], rank[j]) for i in range(k) for j in range(i + 1, k)
                 if rng.random() < density]
        reach = floyd_warshall(k, edges)
        full = chain_reach(*adjacency(k, edges))
        for v in range(1, k + 1):
            assert full[v] == sum(1 << w for w in range(1, k + 1) if reach[v][w]), \
                (k, edges, v)
    # a cycle leaves no topological order
    assert chain_reach(*adjacency(3, [(1, 2), (2, 3), (3, 1)])) is None
    assert chain_reach(*adjacency(4, [(1, 2), (3, 4), (4, 3)])) is None
    assert chain_reach(*adjacency(0, [])) == [0]


def test_acyclic_agrees_with_the_precheck():
    # the state's one topological pass stands in for unsat_precheck in solve
    rng = random.Random(167)
    cyclic = 0
    for trial in range(200):
        inst, _ = random_instance(rng, ALL_MODES[trial % 4], max_k=9)
        has_cycle = unsat_precheck(inst) is not None
        assert SearchState(inst).acyclic is not has_cycle, inst
        if has_cycle:
            cyclic += 1
            res = solve(inst)
            assert res.state is ResultState.UNSATISFIABLE and res.best is None
            assert res.stats.nodes_expanded == 0 and res.stats.proven_lower_bound is None
    assert cyclic >= 20


def test_separated_pairs_match_chains_and_are_never_adjacent():
    rng = random.Random(109)
    cases = [random_instance(rng, ALL_MODES[t % 4], max_k=7) for t in range(80)]
    cases += chain_dense_instances(rng, 60, max_k=7)
    cases += chain_dense_instances(rng, 60, max_k=12)
    marked = 0
    exhausted = 0
    apart = 0
    for inst, _ in cases:
        if not SearchState(inst).acyclic:
            continue  # no valid order; the floor is not built for cycles
        sep = SearchState(inst).separated
        # the chains are those of the edges the presolve adds too
        inst = presolved(inst)
        k, b = inst.k, inst.b
        reach = floyd_warshall(k, inst.atomic)
        for p in range(1, b + 1):
            chained = any(reach[u][x] and reach[x][w]
                          for u, w in ((p, p + b), (p + b, p))
                          for x in range(1, k + 1))
            assert sep[p] == sep[p + b] == chained, (inst, p)
            marked += sep[p]
        if k > 7 or not any(sep):
            continue
        # every order that keeps the hard atomic constraints (the valid
        # ones among them) keeps a separated pair's ends apart; pos[j - 1]
        # is job j's position
        exhausted += 1
        for pos in itertools.permutations(range(1, k + 1)):
            if any(pos[i - 1] > pos[j - 1] for i, j in inst.atomic):
                continue
            for p in range(1, b + 1):
                if sep[p]:
                    assert abs(pos[p - 1] - pos[p + b - 1]) > 1, (inst, pos, p)
                    apart += 1
    assert marked >= 100 and exhausted >= 30 and apart >= 200


def test_leaf_bound_equals_objective():
    rng = random.Random(79)
    for _ in range(40):
        inst, plant = random_instance(rng, max_k=6)
        if plant is None:
            continue
        st = replay(SearchState, inst, list(plant.tour))
        assert st.lower_bound() == breakdown(inst, plant).objective


def full_scan_forced_cycle(st):
    """Reference: topological sort of every atomic edge and mandatory
    disjunct over the unplaced jobs, both read off the positions alone."""
    pos = st.pos
    indeg = {}
    out = {}
    edges = 0
    for a, b in list(st.inst.atomic) + sorted(mandatory_disjuncts(st)):
        if pos[a] == 0 and pos[b] == 0:
            out.setdefault(a, []).append(b)
            indeg[b] = indeg.get(b, 0) + 1
            edges += 1
    if not edges:
        return False
    ready = [v for v in out if v not in indeg]
    involved = set(out)
    involved.update(indeg)
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done < len(involved)


def random_instances(seed, count, max_k=9):
    rng = random.Random(seed)
    for trial in range(count):
        inst, _ = random_instance(rng, ALL_MODES[trial % 4], max_k=max_k)
        yield rng, inst


def test_child_bound_equals_bound_after_place():
    soft_rng = random.Random(163)
    cases = itertools.chain(
        random_instances(97, 120),
        # soft-heavy and MAS states, where the N floor moves
        ((soft_rng, inst) for inst, _ in soft_heavy_instances(soft_rng, 100, max_k=12)),
        ((soft_rng, inst) for inst in mas_instances(soft_rng, 50, 6, 12)))
    priced = 0
    for rng, inst in cases:
        st = SearchState(inst)
        while True:
            cands = st.extend_candidates()
            if not cands:
                break
            for bound, c in cands:
                st.place(c)
                assert bound == st.lower_bound(), (inst, st.prefix)
                st.unplace()
                priced += 1
            # a walk that does not follow the branch order
            st.place(rng.choice(sorted(c for _, c in cands)))
        if len(st.prefix) == inst.k:
            perm = Permutation(tuple(st.prefix))
            assert st.lower_bound() == breakdown(inst, perm).objective, inst
    assert priced >= 5000


def pricing_cases(rng):
    """Small instances of every mode, exact- and anytime-shaped planted
    ones as the benchmark builds them, and ones whose disjunctions join four
    distinct jobs."""
    cases = [random_instance(rng, ALL_MODES[t % 4], max_k=9)[0] for t in range(60)]
    for idx in range(30):
        k = rng.randint(10, 13)
        cases.append(generate_planted(GenParams(
            b=k // 2, n=k % 2, p_atomic=0.3, p_soft=0.02,
            p_disjunctive=rng.choice((0.1, 0.3)), ds_count=rng.randint(0, k // 2),
            seed=rng.randrange(2 ** 30)))[0])
    for idx in range(12):
        k = rng.randint(30, 60)
        b = rng.randint(k // 4, k // 2)
        cases.append(generate_planted(GenParams(
            b=b, n=k - 2 * b, p_atomic=rng.choice((0.08, 0.18)),
            p_soft=rng.choice((0.01, 0.1)), p_disjunctive=rng.choice((0.05, 0.1)),
            ds_count=rng.randint(0, b), seed=rng.randrange(2 ** 30)))[0])
    cases += general_disjunction_instances(rng, 30, 6, 13)
    return cases


def test_extend_candidates_prices_like_the_reference():
    # one pass with a shared base bound, filtered by the cutoff before
    # legality, gives the reference's order and child_bound exactly; the
    # reference predates the N floor, so the state runs with it zeroed
    rng = random.Random(131)
    compared = 0
    for inst in map(presolved, pricing_cases(rng)):
        compared += check_pricing_in_lockstep(NFloorlessSearchState(inst),
                                              ReferenceSearchState(inst),
                                              rng, moves=3 * inst.k)
    assert compared >= 2000


def test_open_list_tracks_open_positions():
    rng = random.Random(137)
    checked = 0
    for inst in map(presolved, pricing_cases(rng)):
        st = SearchState(inst)
        ref = ReferenceSearchState(inst)
        for _ in range(4 * inst.k):
            assert st.open_list == sorted(ref.open_pos.values()), (inst, st.prefix)
            assert st.sep_unplaced == ref.sep_unplaced
            checked += 1
            unplaced = [c for c in range(1, inst.k + 1) if st.pos[c] == 0]
            if st.prefix and (rng.random() < 0.4 or not unplaced):
                st.unplace()
                ref.unplace()
            elif unplaced:
                c = rng.choice(unplaced)  # any job, as replay allows
                st.place(c)
                ref.place(c)
    assert checked >= 3000


def test_unplace_restores_every_field():
    # after any mix of placements, legal or not, and undos, the state is
    # the one a fresh replay of its prefix builds, mandatory disjuncts too
    rng = random.Random(139)
    checked = forced = 0
    for inst in pricing_cases(rng)[::3]:
        st = SearchState(inst)
        for _ in range(3 * inst.k):
            unplaced = [c for c in range(1, inst.k + 1) if st.pos[c] == 0]
            children = st.extend_candidates()
            if st.prefix and (rng.random() < 0.35 or not unplaced):
                st.unplace()
            elif children and rng.random() < 0.7:
                st.place(rng.choice(children)[1])
            else:
                st.place(rng.choice(unplaced))
            assert vars(st) == vars(replay(SearchState, inst, st.prefix)), (inst, st.prefix)
            checked += 1
            forced += bool(mandatory_disjuncts(st))
    assert checked >= 1500 and forced >= 200


def forced_cycle_walk(inst, max_visits):
    """Depth-first over the cycle-free states of ``inst``, as the search
    walks them, for at most ``max_visits`` placements. Each placement that
    makes a disjunct mandatory has ``forced_cycle`` checked against
    ``full_scan_forced_cycle``, which reads the hard edges and mandatory
    disjuncts off the presolved rows. Returns (checks, cycles found)."""
    st = SearchState(presolved(inst))
    checks = hits = visited = 0
    stack = [iter(st.extend_candidates())]
    while stack and visited < max_visits:
        _, c = next(stack[-1], (None, None))
        if c is None:
            stack.pop()
            if st.prefix:
                st.unplace()
            continue
        visited += 1
        if st.place(c):
            found = st.forced_cycle()
            assert found == full_scan_forced_cycle(st), (inst, st.prefix)
            checks += 1
            hits += found
        if full_scan_forced_cycle(st):
            st.unplace()
        else:
            stack.append(iter(st.extend_candidates()))
    return checks, hits


def test_forced_cycle_matches_full_scan():
    checks = 0
    hits = 0
    rng = random.Random(101)
    # the presolve turns many disjunctions into hard edges, so fewer
    # placements make a disjunct mandatory than the trial count suggests
    for trial in range(120):
        # disjunctions only come with pairs; dense ones force many survivors
        b = rng.randint(1, 4)
        inst = generate(GenParams(b=b, n=rng.randint(0, 9 - 2 * b),
                                  p_atomic=rng.choice((0.1, 0.25)),
                                  p_disjunctive=rng.choice((0.3, 0.6)),
                                  ds_count=rng.randint(0, b), seed=trial,
                                  mode=ALL_MODES[trial % 2]))
        if not SearchState(inst).acyclic:
            continue  # no valid order: solve stops such instances at the root
        found = forced_cycle_walk(inst, 400)
        checks += found[0]
        hits += found[1]
    assert checks >= 500 and 0 < hits < checks


def test_ready_set_candidates_match_full_scan():
    for rng, inst in random_instances(103, 120):
        st = SearchState(inst)
        for _ in range(4 * inst.k):
            assert [c for _, c in st.extend_candidates()] == scan_candidates(st)
            assert st.ready == {c for c in range(1, inst.k + 1)
                                if st.pos[c] == 0 and not st.waiting[c]}
            unplaced = [c for c in range(1, inst.k + 1) if st.pos[c] == 0]
            roll = rng.random()
            if st.prefix and (roll < 0.3 or not unplaced):
                st.unplace()
            elif roll < 0.85 and st.extend_candidates():
                st.place(rng.choice(st.extend_candidates())[1])
            elif unplaced:
                st.place(rng.choice(unplaced))  # an illegal move, as replay allows


def test_ready_jobs_have_no_placed_successor(monkeypatch):
    # on each state the search reaches, a ready job's hard successors are
    # unplaced, so a static count of them (the rank-first order of
    # search_reference.RankFirstSearchState) is the count of unplaced ones
    states = 0

    class CheckedState(SearchState):
        def extend_candidates(self, cutoff=None):
            nonlocal states
            states += 1
            for c in self.ready:
                assert not any(self.pos[s] for s in self.succs[c]), (self.inst, self.prefix, c)
            return super().extend_candidates(cutoff)

    monkeypatch.setattr(ctwkit.solver, "SearchState", CheckedState)
    for inst, cfg in counter_cases():
        solve(inst, cfg)
    assert states > 10_000


def test_matches_oracle_on_mixed_instances():
    rng = random.Random(83)
    mismatches = 0
    cases = [random_instance(rng, rng.choice(ALL_MODES), max_k=7)[0] for _ in range(60)]
    # disjunctions over four distinct jobs, which the generator never draws
    cases += general_disjunction_instances(rng, 30, 6, 8)
    for inst in cases:
        oracle_result = enumerate_solutions(inst)
        bb = solve(inst)
        if oracle_result.valid_count == 0:
            if bb.state is not ResultState.UNSATISFIABLE:
                mismatches += 1
        else:
            if bb.state is not ResultState.OPTIMAL:
                mismatches += 1
            elif bb.best[1].objective != oracle_result.optimal_objective:
                mismatches += 1
    assert mismatches == 0


def test_determinism():
    inst = generate(GenParams(b=4, n=2, p_atomic=0.2, p_soft=0.1,
                              p_disjunctive=0.2, ds_count=2, seed=123))
    first = solve(inst, SolverConfig(time_limit_ms=60_000))
    second = solve(inst, SolverConfig(time_limit_ms=60_000))
    assert first.state == second.state
    assert first.best[0] == second.best[0]
    assert first.best[1] == second.best[1]
    assert first.stats.nodes_expanded == second.stats.nodes_expanded
    assert first.stats.proven_lower_bound == second.stats.proven_lower_bound


def test_node_limit_never_claims_unsatisfiable():
    # satisfiable but large: a tiny node budget must stop, not conclude
    inst = generate(GenParams(b=8, n=4, p_atomic=0.15, p_disjunctive=0.1, seed=7))
    result = solve(inst, SolverConfig(node_limit=3))
    assert result.state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED)
    assert result.state is not ResultState.UNSATISFIABLE
    if result.best is not None:
        assert validate(inst, result.best[0]) == []


def test_incumbent_improves_with_budget():
    inst = generate(GenParams(b=10, n=2, p_atomic=0.1, p_soft=0.05,
                              p_disjunctive=0.05, seed=11))
    objectives = []
    for budget in (50, 500, 5000, 50000):
        result = solve(inst, SolverConfig(node_limit=budget))
        if result.best is not None:
            objectives.append(result.best[1].objective)
            assert validate(inst, result.best[0]) == []
    assert objectives, "no budget produced an incumbent"
    assert objectives == sorted(objectives, reverse=True) or len(set(objectives)) == 1
    # larger budgets never worsen the incumbent
    for earlier, later in zip(objectives, objectives[1:]):
        assert later <= earlier


def test_suboptimal_incumbent_validates_under_time_limit():
    inst = generate(GenParams(b=14, n=4, p_atomic=0.12, p_soft=0.02,
                              p_disjunctive=0.08, ds_count=3, seed=31))
    result = solve(inst, SolverConfig(time_limit_ms=300))
    assert result.state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED)
    if result.best is not None:
        perm, bd = result.best
        assert validate(inst, perm) == []
        assert breakdown(inst, perm) == bd
        assert result.stats.proven_lower_bound <= bd.objective


def test_proven_bound_is_sound():
    rng = random.Random(89)
    for trial in range(20):
        inst, _ = random_instance(rng, GenMode.SATISFIABLE, max_k=7)
        truth = enumerate_solutions(inst).optimal_objective
        limited = solve(inst, SolverConfig(node_limit=4))
        if limited.stats.proven_lower_bound is not None and truth is not None:
            assert limited.stats.proven_lower_bound <= truth


class MonotoneSearchState(ctwkit.solver.SearchState):
    """Asserts that no child is priced below the bound of its node."""

    def extend_candidates(self, cutoff=None):
        priced = super().extend_candidates(cutoff)
        node = self.lower_bound()
        assert all(bound >= node for bound, _ in priced), self.prefix
        return priced


def test_interrupted_runs_report_the_root_bound(monkeypatch):
    # no child's bound is below its node's, so the least bound of any node
    # left open on the stack is the root's
    cases = anytime_cases() + [params for params, _ in digest_cases(0, 21, 0)]
    stopped = {ResultState.SUBOPTIMAL: 0, ResultState.UNSOLVED: 0}
    for params in cases:
        inst, _ = generate_planted(params)
        root = SearchState(inst).lower_bound()
        for limit in (50, ANYTIME_NODE_LIMIT):
            with monkeypatch.context() as patch:
                patch.setattr(ctwkit.solver, "SearchState", MonotoneSearchState)
                res = solve(inst, SolverConfig(node_limit=limit))
            if res.state in stopped:
                stopped[res.state] += 1
                assert res.stats.proven_lower_bound == root, (params, limit)
    assert min(stopped.values()) >= 5, stopped


def counters(stats):
    return (stats.nodes_expanded, stats.children_priced, stats.bound_prunes,
            stats.swap_prunes, stats.cycle_prunes, stats.leaves, stats.max_depth)


def counter_cases():
    """Small instances of every mode to proof, the golden exact-shaped
    ones, the anytime-shaped ones under their budget and under 50 nodes,
    and a run a 1 ms time limit stops."""
    rng = random.Random(149)
    cases = [(random_instance(rng, ALL_MODES[t % 4], max_k=8)[0], SolverConfig())
             for t in range(40)]
    cases += [(generate_planted(p)[0], SolverConfig(node_limit=None)) for p in exact_cases()]
    cases += [(generate_planted(p)[0], SolverConfig(node_limit=limit))
              for p in anytime_cases() for limit in (50, ANYTIME_NODE_LIMIT)]
    cases.append((generate(GenParams(b=14, n=4, p_atomic=0.12, p_soft=0.02,
                                     p_disjunctive=0.08, ds_count=3, seed=31)),
                  SolverConfig(time_limit_ms=1)))
    return cases


def test_search_counters_repeat_exactly():
    for inst, cfg in counter_cases():
        if cfg.time_limit_ms == 1:
            continue  # where a time limit stops is not deterministic
        assert counters(solve(inst, cfg).stats) == counters(solve(inst, cfg).stats)


def test_search_counters_account_for_every_child_priced(monkeypatch):
    stops = swaps = 0
    for inst, cfg in counter_cases():
        leaves = []
        price = ctwkit.solver.breakdown
        with monkeypatch.context() as patch:
            patch.setattr(ctwkit.solver, "breakdown",
                          lambda inst, perm: leaves.append(perm) or price(inst, perm))
            res = solve(inst, cfg)
        st = res.stats
        stopped = int(res.state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED))
        stops += stopped
        # each child priced was bound-pruned, dropped by the swap rule,
        # cycle-pruned, a leaf, a new node (all but the root) or the one a
        # limit stopped at
        assert st.children_priced == (st.bound_prunes + st.swap_prunes + st.cycle_prunes
                                      + st.leaves + max(st.nodes_expanded - 1, 0)
                                      + stopped), inst
        swaps += st.swap_prunes
        assert st.leaves == (len(leaves) if inst.k else 0)  # every leaf improves
        if st.leaves:
            assert st.max_depth == inst.k
        else:
            assert st.max_depth < max(inst.k, 1)
    assert stops >= 20
    assert swaps >= 1000
    # no other engine runs a search: their counters stay 0
    topo = run_engine(Instance(k=3, b=0, atomic=[(1, 2)]), "topo", SolverConfig())
    assert counters(topo.stats)[1:] == (0, 0, 0, 0, 0, 0)


def mispriced_breakdown(inst, perm):
    bd = breakdown(inst, perm)
    return dataclasses.replace(bd, objective=bd.objective + 1)


@pytest.mark.parametrize("name, fake, message", [
    ("breakdown", mispriced_breakdown, "committed cost disagrees with recomputation"),
    ("validate", lambda inst, perm: ["injected violation"],
     "propagation admitted an invalid leaf"),
])
def test_leaf_checks_raise(monkeypatch, five_job, name, fake, message):
    # the checks raise, rather than assert, so that they also run under -O
    monkeypatch.setattr(ctwkit.solver, name, fake)
    with pytest.raises(AssertionError, match=message):
        solve(five_job)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="time_limit_ms must be positive"):
        SolverConfig(time_limit_ms=0)
    with pytest.raises(ValueError, match="node_limit must be positive when given"):
        SolverConfig(node_limit=0)


@pytest.mark.parametrize("field, value", [
    # nan compares false both ways: it passed the old check and the
    # deadline never came
    ("time_limit_ms", float("nan")),
    ("time_limit_ms", None),
    ("time_limit_ms", 5.0),
    ("time_limit_ms", "100"),
    ("node_limit", 2.5),
    ("node_limit", float("inf")),
])
def test_solver_config_rejects_non_integer_limits(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


def test_solver_config_stores_limits_as_ints(five_job):
    class Count:
        def __index__(self):
            return 2

    cfg = SolverConfig(time_limit_ms=Count(), node_limit=Count())
    assert (type(cfg.time_limit_ms), type(cfg.node_limit)) == (int, int)
    assert solve(five_job, SolverConfig(node_limit=Count())).stats.nodes_expanded == 2
