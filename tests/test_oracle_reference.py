"""Differential test of the exhaustive oracle against the one it replaced.

The reference below is the earlier ``enumerate_solutions`` and
``brute_mas``, copied unchanged: each drawn tour is copied into a
job -> position list before it is checked, every valid permutation is
priced in full through ``costs.objective``, and maximum acyclic subgraph is
found by counting forward edges under all n! vertex orders (the oracle now
uses a subset recurrence instead). The functions under test are always
called as ``oracle.enumerate_solutions`` and ``oracle.brute_mas``. They
must agree on the census, the optimum and the optimal set in order, and on
the maximum acyclic subgraph size. Each census runs under the counting
stand-in for ``itertools``, so the oracle must also pull all k! vectors,
including those of the blocks it skips unchecked.
"""

import itertools
import math
import random
from typing import Sequence

import pytest

from ctwkit import oracle
from ctwkit.costs import breakdown, objective
from ctwkit.digraph import DiGraph
from ctwkit.generate import GenMode, GenParams, certification_suite, generate_planted
from ctwkit.model import Instance, Permutation
from ctwkit.oracle import DEFAULT_LIMIT_K, DEFAULT_LIMIT_V, OracleResult

from conftest import CountingItertools

# ---------------------------------------------------------------------------
# Reference oracle

# the storage-peak pricer the reference called, from ``ctwkit.costs`` before
# ``breakdown`` priced the four criteria in one walk
def _m_from_pos(inst: Instance, pos: Sequence[int]) -> int:
    # Sweep over positions with a difference array: pair (lo, hi) holds one
    # end in storage at every position strictly between lo and hi. The max
    # over positions equals the max over jobs of the defining count, because
    # positions and jobs are in bijection.
    b = inst.b
    if b == 0:
        return 0
    k = inst.k
    diff = [0] * (k + 2)
    for i in range(1, b + 1):
        lo, hi = pos[i], pos[i + b]
        if lo > hi:
            lo, hi = hi, lo
        if hi - lo > 1:
            diff[lo + 1] += 1
            diff[hi] -= 1
    peak = 0
    load = 0
    for x in range(1, k + 1):
        load += diff[x]
        if load > peak:
            peak = load
    return peak


def enumerate_solutions(inst: Instance, limit_k: int = DEFAULT_LIMIT_K) -> OracleResult:
    """Exact census and optimum by enumerating all k! permutations.

    Permutations are visited in lexicographic tour order, so the reported
    optimal set is deterministic. Raises ValueError when k exceeds the
    guard.
    """
    k = inst.k
    if k > limit_k:
        raise ValueError(
            f"instance has k={k} jobs; exhaustive enumeration is limited to k<={limit_k}"
        )
    b = inst.b
    atomic = inst.atomic
    disjunctive = inst.disjunctive
    soft = inst.soft_atomic
    ds = tuple((i, i + b if i <= b else i - b) for i in inst.direct_successors)
    pairs = tuple((i, i + b) for i in range(1, b + 1))

    pos = [0] * (k + 1)
    enumerated = 0
    valid_count = 0
    best: int | None = None
    best_tours: list[tuple[int, ...]] = []

    for tour in itertools.permutations(range(1, k + 1)):
        enumerated += 1
        for x, job in enumerate(tour, start=1):
            pos[job] = x

        ok = True
        for i, j in atomic:
            if pos[i] >= pos[j]:
                ok = False
                break
        if ok:
            for a1, b1, a2, b2 in disjunctive:
                if pos[a1] >= pos[b1] and pos[a2] >= pos[b2]:
                    ok = False
                    break
        if ok:
            for i, j in ds:
                pj = pos[j]
                pi = pos[i]
                if pj != pi + 1 and pj >= pi:
                    ok = False
                    break
        if not ok:
            continue
        valid_count += 1

        s = 0
        l = 0
        for i, j in pairs:
            gap = pos[i] - pos[j]
            if gap < 0:
                gap = -gap
            if gap > 1:
                s += 1
            if gap - 1 > l:
                l = gap - 1
        m = _m_from_pos(inst, pos) if b else 0
        n = 0
        for i, j in soft:
            if pos[i] > pos[j]:
                n += 1
        obj = objective(s, m, l, n, k)
        if best is None or obj < best:
            best = obj
            best_tours = [tour]
        elif obj == best:
            best_tours.append(tour)

    return OracleResult(
        valid_count=valid_count,
        enumerated=enumerated,
        optimal_objective=best,
        optimal_solutions=tuple(Permutation(t) for t in best_tours),
    )


def brute_mas(g: DiGraph, limit_v: int = DEFAULT_LIMIT_V) -> int:
    """Maximum number of edges of ``g`` that fit an acyclic subgraph.

    Every maximal acyclic edge set is consistent with some linear order of
    the vertices, so trying all n! orders and counting forward edges is
    exact (and far smaller than trying all edge subsets).
    """
    n = g.vertex_count
    if n > limit_v:
        raise ValueError(f"graph has {n} vertices; brute force is limited to {limit_v}")
    edges = tuple(g.edges)
    if not edges:
        return 0
    total = len(edges)
    best = 0
    pos = [0] * (n + 1)
    for order in itertools.permutations(range(1, n + 1)):
        for x, v in enumerate(order):
            pos[v] = x
        kept = 0
        for u, v in edges:
            if pos[u] < pos[v]:
                kept += 1
        if kept > best:
            best = kept
            if best == total:
                break
    return best


# ---------------------------------------------------------------------------
# Differential checks


class SkipRecorder(CountingItertools):
    """The counting stand-in, also recording each block of vectors the
    oracle skips (the count it passes to ``islice``)."""

    def __init__(self):
        super().__init__()
        self.skips = []

    def islice(self, iterable, start, stop):
        assert start == stop, "the oracle only skips vectors"
        self.skips.append(start)
        return itertools.islice(iterable, start, stop)


def _census(inst: Instance) -> tuple[OracleResult, list[int]]:
    """The oracle's result under the counting stand-in, checked against the
    reference, with the sizes of the blocks it skipped."""
    counting = SkipRecorder()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "itertools", counting)
        got = oracle.enumerate_solutions(inst)
    assert counting.pulled() == got.enumerated == math.factorial(inst.k), inst
    want = enumerate_solutions(inst)
    assert got.valid_count == want.valid_count, inst
    assert got.enumerated == want.enumerated, inst
    assert got.optimal_objective == want.optimal_objective, inst
    assert [p.tour for p in got.optimal_solutions] == [
        p.tour for p in want.optimal_solutions
    ], inst
    return got, counting.skips


def _assert_same(inst: Instance) -> OracleResult:
    return _census(inst)[0]


def test_certification_suite_matches_reference():
    modes = set()
    for seed in range(6):
        for _, params in certification_suite(seed=seed, count=40):
            inst, _ = generate_planted(params)
            _assert_same(inst)
            modes.add(params.mode)
    assert len(modes) == 4


def test_trivial_sizes_match_reference():
    for k in (0, 1):
        result, skips = _census(Instance(k=k, b=0))
        assert result.valid_count == 1
        assert skips == []  # no job or one free job: a block of one vector
        assert [p.tour for p in result.optimal_solutions] == [tuple(range(1, k + 1))]


def test_unconstrained_instance_ties_everywhere():
    result = _assert_same(Instance(k=7, b=0))
    assert result.valid_count == result.enumerated == 5040
    assert len(result.optimal_solutions) == 5040
    assert result.optimal_objective == 0


def _soft_heavy(rng: random.Random, k: int) -> Instance:
    b = rng.randint(0, k // 2)
    pool = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    rng.shuffle(pool)
    hard = pool[: rng.randint(0, k // 2)]
    soft = pool[len(hard):][: rng.randint(k, 3 * k)]
    ends = list(range(1, 2 * b + 1))
    ds = rng.sample(ends, rng.randint(0, min(2, len(ends))))
    disjunctive = []
    for _ in range(rng.randint(0, 2)):
        a1, b1, a2, b2 = rng.sample(range(1, k + 1), 4)
        disjunctive.append((a1, b1, a2, b2))
    return Instance(k=k, b=b, atomic=hard, soft_atomic=soft,
                    disjunctive=disjunctive, direct_successors=ds)


def test_soft_heavy_instances_match_reference():
    # N >= k lets N overflow into the L band: the S-band skip must only
    # drop permutations whose objective is strictly worse anyway
    rng = random.Random(4111)
    heavy = 0
    for _ in range(60):
        inst = _soft_heavy(rng, rng.randint(4, 7))
        result = _assert_same(inst)
        if result.optimal_solutions:
            heavy += breakdown(inst, result.optimal_solutions[0]).N >= inst.k
    assert heavy > 0


def test_pairs_heavy_instances_match_reference():
    # b = k/2 gives the most open spans, so M sees overlapping spans
    rng = random.Random(877)
    for _ in range(30):
        k = rng.choice((4, 6, 8))
        pool = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        rng.shuffle(pool)
        hard = pool[: rng.randint(0, 2)]
        soft = pool[2: 2 + rng.randint(0, k)]
        _assert_same(Instance(k=k, b=k // 2, atomic=hard, soft_atomic=soft))


def _random_instance(rng: random.Random, mode: GenMode, k: int) -> Instance:
    b = 0 if mode is GenMode.ATOMIC_ONLY else rng.randint(0, k // 2)
    params = GenParams(
        b=b,
        n=k - 2 * b,
        p_atomic=rng.choice((0.1, 0.25, 0.4)),
        p_soft=rng.choice((0.0, 0.1, 0.25)),
        p_disjunctive=rng.choice((0.0, 0.15, 0.3)),
        ds_count=rng.randint(0, 2 * b),
        seed=rng.randrange(2 ** 30),
        mode=mode,
    )
    return generate_planted(params)[0]


def test_random_instances_of_every_mode_and_size_match_reference():
    rng = random.Random(3301)
    seen = set()
    skipped = 0
    for case in range(320):
        mode = list(GenMode)[case % 4]
        k = (case // 4) % 9
        if mode is GenMode.UNSATISFIABLE and k < 2:
            k += 2  # a cycle needs two jobs
        result, skips = _census(_random_instance(rng, mode, k))
        seen.add((mode, k))
        skipped += sum(skips)
        assert len(skips) + sum(skips) <= result.enumerated  # each after a vector examined
    assert len(seen) == 4 * 9 - 2
    assert skipped > 0


def test_check_at_the_last_level_skips_nothing():
    # job 2 is drawn first, then 1 and 3: (3, 2) reads the last entry, so
    # it is the only vector of its block; (1, 2) at level 1 with k = 3 has
    # a block of 1! = 1 vector too
    result, skips = _census(Instance(k=3, b=0, atomic=[(1, 2), (3, 2)]))
    assert result.valid_count == 2
    assert skips == []


def test_check_on_the_first_two_entries_skips_the_largest_blocks():
    # jobs 1 and 2 are drawn first and 3..8 are free: a vector with job 2
    # before job 1 skips the rest of its broken block of 6! vectors, one
    # with job 1 first the rest of its valid block, once per such prefix
    result, skips = _census(Instance(k=8, b=0, atomic=[(1, 2)]))
    assert result.valid_count == math.factorial(8) // 2
    assert skips == [math.factorial(6) - 1] * 56


def test_disjunction_is_checked_at_its_later_disjunct():
    # the disjuncts read entries 0-1 and 2-3: the disjunction is broken only
    # once entry 3 is known, so its blocks hold 3! vectors, not 5!; jobs
    # 5..7 are free, so each valid prefix is a block of 3! as well
    inst = Instance(k=7, b=0, disjunctive=[(1, 2, 3, 4)])
    result, skips = _census(inst)
    assert result.valid_count == math.factorial(7) * 3 // 4
    assert skips == [math.factorial(3) - 1] * (7 * 6 * 5 * 4)
    # a disjunct sharing its 'before' job with the other
    result, _ = _census(Instance(k=6, b=2, atomic=[(3, 4)], disjunctive=[(2, 5, 2, 1)]))
    assert 0 < result.valid_count < math.factorial(6)


def test_free_jobs_beside_pair_ends_and_soft_jobs():
    # pair ends 1..4 and the soft-only jobs 5 and 6 are priced, so only 7
    # and 8 are free: each of the 8!/2! prefixes is one valid block
    result, skips = _census(Instance(k=8, b=2, soft_atomic=[(6, 5)]))
    assert skips == [1] * (math.factorial(8) // 2)
    # the free jobs 3..5 come before the soft-only 6 and 7 by id and are
    # drawn after them
    result, skips = _census(Instance(k=7, b=1, soft_atomic=[(7, 6)]))
    assert skips == [math.factorial(3) - 1] * (math.factorial(7) // 6)
    # optimal: 1 and 2 adjacent (2 * 6! tours), 7 before 6 in half of them
    assert result.optimal_objective == 0
    assert len(result.optimal_solutions) == math.factorial(6)
    # a hard check on 1 and 5, drawn first: 28 broken blocks of 6!, and
    # the valid prefixes are blocks of 2! for the free 7 and 8
    result, skips = _census(
        Instance(k=8, b=2, atomic=[(1, 5)], soft_atomic=[(6, 5), (2, 6)]))
    assert sorted(skips) == [1] * (math.factorial(8) // 4) + [719] * 28
    # 7 and 8 read by a hard check are not free, and no other job is:
    # every valid vector is examined alone
    result, skips = _census(Instance(k=8, b=2, atomic=[(7, 8)], soft_atomic=[(6, 5)],
                                     direct_successors=[3]))
    assert 0 < result.valid_count <= result.enumerated - sum(skips) - len(skips)


def test_all_jobs_free_make_one_block():
    result, skips = _census(Instance(k=6, b=0))
    assert skips == [math.factorial(6) - 1]
    assert result.valid_count == result.enumerated == 720
    assert [p.tour for p in result.optimal_solutions] == list(
        itertools.permutations(range(1, 7)))


def test_one_direct_successor_and_six_free_jobs():
    # the heaviest certify shape: the pair (1, 2) with end 1 constrained is
    # drawn first, and each of its 56 prefixes is a block of 6! vectors,
    # 21 broken and 35 valid ones: 28 with 2 before 1 and 7 with 2 right
    # after 1
    result, skips = _census(Instance(k=8, b=1, direct_successors=[1]))
    assert skips == [math.factorial(6) - 1] * 56
    assert result.enumerated - sum(skips) == 56  # vectors examined
    assert result.valid_count == 35 * math.factorial(6) == 25_200


def test_direct_successor_with_its_partner_first_is_valid():
    # end 3 carries the constraint, its partner is end 1: 1 may come
    # anywhere before 3 or right after it
    inst = Instance(k=4, b=2, direct_successors=[3])
    result, _ = _census(inst)
    # 12 tours with 1 before 3, 6 with 1 right after 3
    assert result.valid_count == 12 + 6


def test_atomic_cycle_has_no_valid_vector():
    result, skips = _census(Instance(k=6, b=0, atomic=[(1, 2), (2, 3), (3, 1)]))
    assert result.valid_count == 0
    assert result.optimal_objective is None
    assert skips


def test_brute_mas_matches_reference():
    rng = random.Random(2203)
    sizes = {0: 0, 1: 0}
    for case in range(320):
        n = rng.randint(0, 8)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        if case % 4 == 0:
            count = rng.randint(0, min(1, len(pool)))
        else:
            count = rng.randint(0, len(pool))
        g = DiGraph(n, frozenset(rng.sample(pool, count)))
        if len(g.edges) in sizes:
            sizes[len(g.edges)] += 1
        assert oracle.brute_mas(g) == brute_mas(g), g
    assert sizes[0] and sizes[1]


def test_brute_mas_matches_reference_on_nine_vertices():
    # the reference walks all 9! orders, about a second per graph
    rng = random.Random(2207)
    n = 9
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    for density in (0.25, 0.5, 0.75):
        g = DiGraph(n, frozenset(e for e in pool if rng.random() < density))
        assert oracle.brute_mas(g) == brute_mas(g), g
