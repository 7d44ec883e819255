"""The S charge for a pair opened while its partner cannot come next.

A pair that is not separated is exempt from S while the job that opened it
is last, since its partner may come next. The partner cannot when it still
waits on an unplaced hard predecessor other than that job, or when placing
it right after that job would kill a disjunction: the pair is then
interrupted in every completion and counts at once. A direct successor
end whose partner cannot follow it is no child at all. These tests check
hand cases, each charged child's price against ``lower_bound`` after
``place`` and against the oracle on pair-heavy instances;
``tests/test_search_dominance.py`` holds the search to the one without the
charge.
"""

import random

import ctwkit.solver
from ctwkit import (Instance, Permutation, ResultState, SearchState, breakdown,
                    enumerate_solutions, solve)
from ctwkit.generate import GenMode, GenParams, generate_planted

from search_reference import replay

K3 = 27  # one interrupted pair at k = 3


def test_an_unplaced_other_predecessor_is_charged():
    # pair (1, 2); 2 waits on 3, so 1 opening the pair leaves it interrupted
    inst = Instance(k=3, b=1, atomic=[(3, 2)])
    assert SearchState(inst).extend_candidates() == [(0, 3), (K3, 1)]
    assert replay(SearchState, inst, [1]).lower_bound() == K3
    # with 3 placed, either end may open the pair with the other behind it
    st = replay(SearchState, inst, [3])
    assert st.extend_candidates() == [(0, 1), (0, 2)]
    assert replay(SearchState, inst, [3, 1]).lower_bound() == 0
    assert solve(inst).best[1].objective == 0


def test_the_opener_as_the_last_predecessor_is_not_charged():
    # 2 waits on both 1 and 3: 1 is charged while 3 is unplaced, and not
    # once 3 is placed, as 1 itself is then 2's last hard predecessor
    inst = Instance(k=3, b=1, atomic=[(1, 2), (3, 2)])
    assert SearchState(inst).may_wait == [0, 1, 0, 0]
    assert SearchState(inst).extend_candidates() == [(0, 3), (K3, 1)]
    assert replay(SearchState, inst, [3]).extend_candidates() == [(0, 1)]
    assert replay(SearchState, inst, [3, 1]).lower_bound() == 0
    # the partner waits on nothing but the opener
    adjacent = Instance(k=2, b=1, atomic=[(1, 2)])
    assert SearchState(adjacent).extend_candidates() == [(0, 1)]
    assert replay(SearchState, adjacent, [1]).lower_bound() == 0


def test_a_separated_pair_is_not_counted_twice():
    # the chain 1 -> 3 -> 2 separates pair (1, 2): S counts it from the
    # root, and opening it while 2 waits on 3 adds nothing
    inst = Instance(k=3, b=1, atomic=[(1, 3), (3, 2)])
    st = SearchState(inst)
    assert st.separated == [0, 1, 1, 0] and st.may_wait == [0, 3, 3, 0]
    assert st.lower_bound() == K3
    assert st.extend_candidates() == [(K3, 1)]
    assert replay(SearchState, inst, [1]).lower_bound() == K3
    assert solve(inst).best[1].objective == K3 + 9 + 3  # S = M = L = 1


def test_a_direct_successor_end_waits_for_its_partners_predecessors():
    # 1 carries a direct successor constraint, so 2 must follow it at once,
    # or come before it: either way 3 comes before 1, and the presolve adds
    # that edge, so 1 is no child before 3
    inst = Instance(k=3, b=1, atomic=[(3, 2)], direct_successors=[1])
    st = SearchState(inst)
    assert st.presolve_edges == 1 and st.preds[1] == [3]
    assert st.extend_candidates() == [(0, 3)]
    st = replay(SearchState, inst, [1])  # out of order, as replay allows
    assert st.lower_bound() == K3
    assert st.extend_candidates() == []  # the forced partner is not ready
    res = solve(inst)
    assert res.best[0] == Permutation((3, 1, 2)) and res.best[1].objective == 0


def test_a_partner_that_would_kill_a_disjunction_is_charged():
    # "3 before 1 or 3 before 2": with 3 unplaced, whichever end opens the
    # pair, its partner cannot come next, so either opener is charged
    inst = Instance(k=3, b=1, disjunctive=[(3, 1, 3, 2)])
    assert SearchState(inst).extend_candidates() == [(0, 3), (K3, 1), (K3, 2)]
    assert replay(SearchState, inst, [1]).lower_bound() == K3
    # once 3 is placed the disjunction holds, and the pair may close adjacently
    assert replay(SearchState, inst, [3]).extend_candidates() == [(0, 1), (0, 2)]
    assert replay(SearchState, inst, [3, 1]).lower_bound() == 0
    res = solve(inst)
    assert res.best[0] == Permutation((3, 1, 2)) and res.best[1].objective == 0


def test_a_direct_successor_end_is_charged():
    # 1 carries a direct successor constraint, so 2 must follow it at once;
    # while 3 is unplaced that would kill "3 before 1 or 3 before 2", which
    # the presolve leaves open, so the opener 1 is a dead end: priced at the
    # charge, it is a bound drop at or below K3 and illegal above
    direct = Instance(k=3, b=1, disjunctive=[(3, 1, 3, 2)], direct_successors=[1])
    st = SearchState(direct)
    assert st.presolve_edges == 0 and st.disjunctive == [(3, 1, 3, 2)]
    assert st.extend_candidates() == [(0, 3), (K3, 2)]
    assert st.extend_candidates(K3) == [(0, 3)] and st.bound_drops == 2
    assert st.extend_candidates(K3 + 1) == [(0, 3), (K3, 2)] and st.bound_drops == 2
    st = replay(SearchState, direct, [1])  # out of order, as replay allows
    assert st.lower_bound() == K3
    assert st.extend_candidates() == []  # the forced partner is not ready
    res = solve(direct)
    assert res.best[0] == Permutation((3, 1, 2)) and res.best[1].objective == 0


def test_a_forced_partner_not_ready_counts_its_drops():
    # the forced partner prices at 0 after the opener, ready or not: at a
    # cutoff of 0 it is a bound drop, above that a swap drop when the swap
    # rule covers it (2 opened, 1 < 2) and no drop at all when not (1
    # opened); it is never a child while it waits on 3. The prefixes are
    # replayed: in a search the presolve makes the opener wait on 3 too
    for inst, opener, swaps in ((Instance(k=3, b=1, atomic=[(3, 2)], direct_successors=[1]), 1, 0),
                                (Instance(k=3, b=1, atomic=[(3, 1)], direct_successors=[2]), 2, 1)):
        st = replay(SearchState, inst, [opener])
        for cutoff, drops in ((None, (0, 0)), (0, (1, 0)), (1, (0, swaps)), (K3, (0, swaps))):
            before = st.bound_drops, st.swap_drops
            assert st.extend_candidates(cutoff) == []
            assert (st.bound_drops - before[0], st.swap_drops - before[1]) == drops, (inst, cutoff)


def pair_heavy_instances(rng, count, max_k):
    """Planted instances with every job but at most one in a pair and a
    direct successor on 0..b of them, of every mode that has pairs."""
    for t in range(count):
        k = rng.randint(4, max_k)
        b = k // 2
        yield generate_planted(GenParams(
            b=b, n=k - 2 * b, p_atomic=rng.choice((0.2, 0.3, 0.45)),
            p_soft=rng.choice((0.0, 0.05)), p_disjunctive=rng.choice((0.0, 0.1)),
            ds_count=rng.randint(0, b), seed=rng.randrange(2 ** 30),
            mode=(GenMode.SATISFIABLE, GenMode.UNSATISFIABLE, GenMode.DS_ONLY)[t % 3]))[0]


def charged(st, c):
    """True when c opens a pair whose partner could not come right after
    it, read from the instance's rows themselves: the partner still waits
    on an unplaced hard predecessor other than c, or a disjunction has
    both disjuncts false once c and then the partner are placed."""
    w = st.partner[c]
    if not w or st.pos[w] or st.separated[c]:
        return False
    if any(not st.pos[i] and i != c for i, j in st.inst.atomic if j == w):
        return True
    t = len(st.prefix)
    pos = {**{j: st.pos[j] for j in st.prefix}, c: t + 1, w: t + 2}

    def false(before, after):  # the disjunct fails once 'after' is placed
        return after in pos and not pos.get(before, t + 3) < pos[after]

    return any(false(*row[:2]) and false(*row[2:]) and w in row
               for row in st.inst.disjunctive)


def test_charged_child_bound_equals_bound_after_place():
    rng = random.Random(181)
    priced = fired = 0
    for inst in pair_heavy_instances(rng, 150, max_k=12):
        st = SearchState(inst)
        while True:
            cands = st.extend_candidates()
            if not cands:
                break
            for bound, c in cands:
                fired += charged(st, c)
                st.place(c)
                assert bound == st.lower_bound(), (inst, st.prefix)
                st.unplace()
                priced += 1
            st.place(rng.choice(cands)[1])
        if len(st.prefix) == inst.k:
            perm = Permutation(tuple(st.prefix))
            assert st.lower_bound() == breakdown(inst, perm).objective, inst
    assert priced >= 2500 and fired >= 250


def test_matches_oracle_where_the_charge_fires(monkeypatch):
    fired = 0

    class Watched(SearchState):
        def extend_candidates(self, cutoff=None):
            nonlocal fired
            fired += sum(charged(self, c) for c in self.ready)
            return super().extend_candidates(cutoff)

    monkeypatch.setattr(ctwkit.solver, "SearchState", Watched)
    rng = random.Random(191)
    optimal = 0
    # 300 instances fired the charge 239 times once the presolve and the
    # charge cut the nodes searched; 20 more keep the floor below
    for inst in pair_heavy_instances(rng, 320, max_k=8):
        orc = enumerate_solutions(inst)
        res = solve(inst)
        if orc.valid_count == 0:
            assert res.state is ResultState.UNSATISFIABLE, inst
            continue
        optimal += 1
        assert res.state is ResultState.OPTIMAL, inst
        assert res.best[1].objective == orc.optimal_objective, inst
        assert res.best[0].tour in {p.tour for p in orc.optimal_solutions}, inst
    assert optimal >= 180 and fired >= 250
