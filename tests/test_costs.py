import itertools
import random
from typing import Sequence

import pytest

from ctwkit import (
    CostBreakdown,
    Instance,
    Permutation,
    breakdown,
    edge_cost_s,
    objective,
)
from conftest import random_instance
from test_formats import audit_shaped


def naive_storage_peak(inst, perm):
    """The defining double loop for M: max over jobs of pairs spanning them."""
    if inst.b == 0:
        return 0
    pos = [0] + list(perm.positions_by_job())
    best = 0
    for l in range(1, inst.k + 1):
        here = 0
        for j in range(1, inst.b + 1):
            lo = min(pos[j], pos[j + inst.b])
            hi = max(pos[j], pos[j + inst.b])
            if lo < pos[l] < hi:
                here += 1
        best = max(best, here)
    return best


def test_reference_solution_costs(five_job):
    perm = Permutation((5, 3, 4, 2, 1))
    bd = breakdown(five_job, perm)
    assert (bd.S, bd.M, bd.L) == (1, 1, 2)
    assert bd.N == 0  # no soft constraints in the fixture
    assert bd.objective == 160


def test_costs_zero_without_pairs():
    inst = Instance(k=3, b=0)
    perm = Permutation((2, 3, 1))
    bd = breakdown(inst, perm)
    assert (bd.S, bd.M, bd.L) == (0, 0, 0)


def test_adjacent_pairs_cost_nothing():
    inst = Instance(k=4, b=2)
    perm = Permutation((1, 3, 2, 4))  # pairs (1,3) and (2,4) back to back
    bd = breakdown(inst, perm)
    assert (bd.S, bd.L) == (0, 0)
    assert edge_cost_s(inst, perm) == 0


def test_storage_peak_interleaved_pairs():
    # pairs (1,3), (2,4); tour 1,2,3,4 holds one pair open at positions 2 and 3
    inst = Instance(k=4, b=2)
    perm = Permutation((1, 2, 3, 4))
    assert breakdown(inst, perm).M == naive_storage_peak(inst, perm) == 1


def test_storage_peak_seen_at_one_sided_job():
    # the peak can occur at a one-sided job's position; restricting the max
    # to pair ends would miss it
    inst = Instance(k=3, b=1)
    perm = Permutation((1, 3, 2))  # pair (1,2) split around one-sided job 3
    assert breakdown(inst, perm).M == 1
    pos = perm.positions_by_job()
    pair_end_loads = []
    for l in (1, 2):
        lo, hi = sorted((pos[0], pos[1]))
        pair_end_loads.append(1 if lo < pos[l - 1] < hi else 0)
    assert max(pair_end_loads) == 0  # the peak is only visible at job 3


def test_storage_peak_matches_definition_randomised():
    rng = random.Random(23)
    for _ in range(300):
        b = rng.randint(0, 5)
        n = rng.randint(0, 6)
        inst = Instance(k=2 * b + n, b=b)
        tour = list(range(1, inst.k + 1))
        rng.shuffle(tour)
        perm = Permutation(tuple(tour))
        assert breakdown(inst, perm).M == naive_storage_peak(inst, perm)


def test_soft_violations():
    inst = Instance(k=2, b=0, soft_atomic=[(1, 2)])
    assert breakdown(inst, Permutation((2, 1))).N == 1
    assert breakdown(inst, Permutation((1, 2))).N == 0
    both = Instance(k=2, b=0, soft_atomic=[(1, 2), (2, 1)])
    # exactly one direction is violated under either order
    for tour in ((1, 2), (2, 1)):
        assert breakdown(both, Permutation(tour)).N == 1


def test_objective_values():
    assert objective(1, 1, 2, 1, 5) == 161
    assert objective(1, 1, 2, 0, 5) == 160
    assert objective(0, 0, 0, 0, 9) == 0
    with pytest.raises(ValueError, match="^criteria must be non-negative$"):
        objective(-1, 0, 0, 0, 5)
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        objective(0, 0, 0, 0, -1)


def test_objective_exact_at_scale():
    # k = 1000 with maximal criteria stays exact (no silent wrap-around)
    k = 1000
    value = objective(k, k, k, k * k, k)
    assert value == k ** 4 + k ** 3 + k ** 2 + k * k


def test_edge_cost_reference(five_job):
    assert edge_cost_s(five_job, Permutation((5, 3, 4, 2, 1))) == 1


def test_edge_cost_equals_interrupted_pairs_exhaustive():
    rng = random.Random(29)
    for b, n in ((0, 4), (1, 2), (2, 1), (2, 2), (3, 0)):
        inst = Instance(k=2 * b + n, b=b)
        for tour in itertools.permutations(range(1, inst.k + 1)):
            perm = Permutation(tour)
            assert edge_cost_s(inst, perm) == breakdown(inst, perm).S


def test_edge_cost_equals_interrupted_pairs_randomised():
    rng = random.Random(31)
    for _ in range(1000):
        b = rng.randint(0, 15)
        n = rng.randint(0, 10)
        inst = Instance(k=2 * b + n, b=b)
        tour = list(range(1, inst.k + 1))
        rng.shuffle(tour)
        perm = Permutation(tuple(tour))
        assert edge_cost_s(inst, perm) == breakdown(inst, perm).S


def test_criteria_bounds_on_valid_solutions():
    rng = random.Random(37)
    for _ in range(300):
        inst, plant = random_instance(rng)
        assert plant is not None
        bd = breakdown(inst, plant)
        assert 0 <= bd.S <= inst.b
        assert 0 <= bd.M <= inst.b
        assert 0 <= bd.L <= max(inst.k - 1, 0)
        assert 0 <= bd.N <= inst.k * (inst.k - 1) // 2


def test_weighting_is_lexicographic_when_n_below_k():
    rng = random.Random(41)
    for _ in range(5000):
        k = rng.randint(3, 60)
        b = k // 2

        def tuple_():
            return (rng.randint(0, b), rng.randint(0, b),
                    rng.randint(0, k - 1), rng.randint(0, k - 1))

        s1, m1, l1, n1 = tuple_()
        s2, m2, l2, n2 = tuple_()
        o1 = objective(s1, m1, l1, n1, k)
        o2 = objective(s2, m2, l2, n2, k)
        lex1, lex2 = (s1, m1, l1, n1), (s2, m2, l2, n2)
        assert (o1 < o2) == (lex1 < lex2)
        assert (o1 == o2) == (lex1 == lex2)


def test_breakdown_is_consistent():
    rng = random.Random(43)
    for _ in range(100):
        inst, plant = random_instance(rng)
        bd = breakdown(inst, plant)
        assert bd.objective == objective(bd.S, bd.M, bd.L, bd.N, inst.k)


# ---------------------------------------------------------------------------
# Reference: the per-criterion pricers that ``breakdown`` replaced, copied
# unchanged. Each walks the pairs or the soft edges on its own.


def _s_from_pos(inst: Instance, pos: Sequence[int]) -> int:
    b = inst.b
    if b == 0:
        return 0
    count = 0
    for i in range(1, b + 1):
        if abs(pos[i] - pos[i + b]) > 1:
            count += 1
    return count


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


def _l_from_pos(inst: Instance, pos: Sequence[int]) -> int:
    b = inst.b
    if b == 0:
        return 0
    return max(abs(pos[i] - pos[i + b]) - 1 for i in range(1, b + 1))


def _n_from_pos(inst: Instance, pos: Sequence[int]) -> int:
    count = 0
    for i, j in inst.soft_atomic:
        if pos[i] > pos[j]:
            count += 1
    return count


def reference_breakdown(inst, perm):
    pos = perm._pos
    s, m = _s_from_pos(inst, pos), _m_from_pos(inst, pos)
    l, n = _l_from_pos(inst, pos), _n_from_pos(inst, pos)
    return CostBreakdown(s, m, l, n, objective(s, m, l, n, inst.k))


def test_breakdown_matches_reference_randomised():
    rng = random.Random(53)
    for trial in range(3000):
        k = trial if trial < 2 else rng.randint(0, 14)  # k = 0 and k = 1 first
        b = 0 if trial % 4 == 0 else rng.randint(0, k // 2)
        arcs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        soft = rng.sample(arcs, rng.randint(0, min(len(arcs), 2 * k)))
        inst = Instance(k=k, b=b, soft_atomic=soft)
        tour = list(range(1, k + 1))
        rng.shuffle(tour)
        perm = Permutation(tuple(tour))
        assert breakdown(inst, perm) == reference_breakdown(inst, perm), (inst, tour)


def assert_breakdown_matches_reference(seed: int) -> int:
    """``breakdown`` equals the reference on the audit benchmark instances
    of ``seed`` (k = 2000..3000), on each plant and on one shuffled tour.
    Returns the number of tours priced."""
    rng = random.Random(seed)
    count = 0
    for inst, plant in audit_shaped(seed):
        tour = list(plant.tour)
        rng.shuffle(tour)
        for perm in (plant, Permutation(tuple(tour))):
            assert breakdown(inst, perm) == reference_breakdown(inst, perm), (seed, inst.k)
            count += 1
    return count


def test_breakdown_matches_reference_on_audit_shapes():
    assert assert_breakdown_matches_reference(0) == 16


PRICED = (breakdown, edge_cost_s)


def test_non_bijective_tour_is_refused():
    inst = Instance(k=4, b=2, atomic=[(1, 3)])
    for fn in PRICED:
        with pytest.raises(ValueError, match="not a bijection"):
            fn(inst, Permutation((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="not a bijection"):
            fn(inst, Permutation((0, 1, 2, 3)))


def test_wrong_length_tour_is_refused():
    inst = Instance(k=4, b=2)
    for fn in PRICED:
        with pytest.raises(ValueError, match="length 3"):
            fn(inst, Permutation((1, 2, 3)))
        with pytest.raises(ValueError, match="length 5"):
            fn(inst, Permutation((1, 2, 3, 4, 5)))


def test_is_bijection_matches_sorting():
    rng = random.Random(47)
    for _ in range(3000):
        k = rng.randint(0, 9)
        tour = list(range(1, k + 1))
        rng.shuffle(tour)
        for _ in range(rng.choice((0, 0, 1, 2))):
            if tour:
                # a repeat, 0, k+1 or a negative id
                tour[rng.randrange(k)] = rng.choice((rng.randint(1, k), 0, k + 1, -rng.randint(1, 5)))
        perm = Permutation(tuple(tour))
        assert perm.is_bijection() == (sorted(tour) == list(range(1, k + 1)))
        # asking again, or after the positions were read, gives the same answer
        perm.positions_by_job()
        assert perm.is_bijection() == (sorted(tour) == list(range(1, k + 1)))
