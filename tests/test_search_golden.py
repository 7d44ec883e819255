"""Pinned search outcomes: any change to node order or pruning shows here.

Each case records ``(state, nodes_expanded, objective,
proven_lower_bound, tour)`` of one solve. Anytime-shaped cases are
planted instances of k = 20..40 with the benchmark's densities and a
500-node budget; exact-shaped cases are k = 10..12 instances solved to
proof. An optimisation of the solver kernel that keeps the search the
same leaves every row unchanged. A stronger admissible bound may lower
node counts, raise interrupted runs' proven bounds and lower anytime
objectives, and only next to a dominance check against the previous
bound (``tests/test_search_dominance.py``). A new branch order moves node
counts and anytime tours; exact rows must then keep their state and
objective, and a k = 10 row's tour must be in ``enumerate_solutions``'
optimal set. Ties in the branch order break by child bound, so a stronger
bound is also a new branch order, under which an anytime objective may
move either way. A rule that drops a child for a prefix that does no
worse (the swap rule) moves node counts and tours the same way, next to
its probe and oracle checks (``tests/test_swap_rule.py``).
"""

import random

import pytest

from ctwkit import SolverConfig, enumerate_solutions, solve
from ctwkit.generate import GenParams, generate_planted

ANYTIME_NODE_LIMIT = 500


def anytime_cases() -> list[GenParams]:
    rng = random.Random(2011)
    out = []
    for idx in range(20):
        k = 20 + idx * 20 // 19
        b = rng.randint(k // 4, k // 2)
        out.append(GenParams(b=b, n=k - 2 * b, p_atomic=0.18,
                             p_soft=rng.choice((0.01, 0.02)),
                             p_disjunctive=rng.choice((0.05, 0.1)),
                             ds_count=rng.randint(0, b), seed=7_000 + idx))
    return out


def exact_cases() -> list[GenParams]:
    out = []
    for idx in range(20):
        k = 10 + idx % 3
        b = k // 2
        out.append(GenParams(b=b, n=k - 2 * b, p_atomic=0.30, p_soft=0.02,
                             p_disjunctive=0.10, ds_count=b, seed=8_000 + idx))
    return out


def outcome(params: GenParams, node_limit: int | None) -> tuple:
    inst, _ = generate_planted(params)
    res = solve(inst, SolverConfig(time_limit_ms=3_600_000, node_limit=node_limit))
    if res.best is None:
        objective, tour = None, None
    else:
        objective = res.best[1].objective
        tour = " ".join(map(str, res.best[0].tour))
    return (res.state.value, res.stats.nodes_expanded, objective,
            res.stats.proven_lower_bound, tour)


# fmt: off
ANYTIME_GOLDEN = [
    ('optimal', 491, 16901, 16901, '19 4 7 16 18 3 12 13 6 15 9 1 10 8 17 20 5 14 2 11'),
    ('optimal', 114, 9828, 9828, '15 1 9 2 17 18 3 10 8 20 7 14 6 13 21 5 12 4 11 16 19'),
    ('suboptimal', 500, 21891, 10648, '16 22 4 11 13 5 12 2 9 8 6 7 14 20 19 1 21 15 3 10 17 18'),
    ('suboptimal', 500, 25578, 24335, '12 1 21 23 8 18 7 2 11 19 6 5 10 3 4 9 14 20 13 15 16 17 22'),
    ('suboptimal', 500, 72412, 27649, '13 14 2 15 17 24 19 9 21 16 6 18 8 22 3 1 11 10 20 4 12 5 7 23'),
    ('suboptimal', 500, 113478, 78127, '15 22 11 12 13 21 6 18 7 3 5 16 25 10 4 2 23 20 1 9 24 17 8 19 14'),
    ('suboptimal', 500, 54500, 52731, '24 19 16 2 23 11 3 10 4 26 20 7 15 6 14 18 21 1 9 8 17 22 25 5 13 12'),
    ('suboptimal', 500, 40260, 19683, '6 15 7 2 11 10 1 24 17 16 19 27 4 13 8 23 5 14 9 18 26 3 12 20 21 22 25'),
    ('suboptimal', 500, 112478, 43905, '1 27 14 8 23 19 26 11 3 16 21 13 18 20 9 6 5 2 4 12 22 7 15 10 17 24 25 28'),
    ('suboptimal', 500, 250333, 219504, '22 2 16 8 21 17 24 12 25 18 6 10 15 28 7 20 3 5 4 1 9 26 19 27 29 23 11 13 14'),
    ('suboptimal', 500, 332790, 108000, '24 25 14 19 28 17 6 8 30 16 21 23 7 2 10 5 29 9 1 12 27 13 22 3 18 11 26 4 20 15'),
    ('suboptimal', 500, 185010, 119164, '16 4 15 5 10 3 13 22 9 2 11 23 25 8 18 20 26 6 14 19 29 7 17 27 30 1 12 24 21 28 31'),
    ('suboptimal', 500, 267749, 196610, '3 16 7 22 9 20 2 26 13 15 10 21 1 12 17 14 5 18 19 11 24 28 6 31 8 4 23 25 27 32 29 30'),
    ('suboptimal', 500, 186026, 107814, '30 12 16 11 2 13 31 18 9 23 27 17 22 20 15 26 24 33 1 10 5 14 8 29 7 32 4 19 25 3 6 21 28'),
    ('suboptimal', 500, 362647, 235826, '30 12 32 17 22 16 8 7 27 1 29 31 23 11 26 5 24 6 33 18 10 14 19 15 3 2 20 28 21 9 4 13 25 34'),
    ('suboptimal', 500, 479958, 257251, '34 7 10 24 32 27 26 15 5 31 13 22 8 6 9 1 2 33 35 23 14 20 25 4 11 28 19 3 17 18 21 12 16 29 30'),
    ('suboptimal', 500, 712370, 419904, '20 30 16 31 22 21 5 25 26 12 2 18 15 33 6 10 24 28 7 4 19 14 17 35 34 3 11 13 1 32 23 27 9 8 29 36'),
    ('suboptimal', 500, 360792, 303920, '4 3 22 1 14 27 16 29 33 35 15 20 25 12 19 6 7 8 24 2 21 17 34 9 36 10 23 18 5 13 26 28 11 30 31 32 37'),
    ('suboptimal', 500, 616286, 493850, '11 14 18 24 30 7 29 17 5 15 1 13 34 35 3 28 32 38 16 31 8 25 9 23 27 26 33 6 20 19 2 22 4 37 10 21 36 12'),
    ('suboptimal', 500, 391247, 256006, '2 4 14 30 40 26 16 3 9 19 1 35 10 20 18 11 32 27 24 13 7 12 23 39 36 28 38 37 6 31 21 25 29 34 5 15 8 17 22 33'),
]

EXACT_GOLDEN = [
    ('optimal', 21, 1120, 1120, '9 4 2 8 3 7 5 10 1 6'),
    ('optimal', 13, 1474, 1474, '2 7 1 8 3 6 4 9 11 5 10'),
    ('optimal', 103, 5544, 5544, '6 12 1 10 11 5 2 8 3 7 4 9'),
    ('optimal', 50, 1120, 1120, '1 6 10 5 2 7 9 3 8 4'),
    ('optimal', 50, 1497, 1497, '11 10 2 7 1 6 5 4 9 3 8'),
    ('optimal', 12, 0, 0, '2 8 10 4 1 7 5 11 6 12 9 3'),
    ('optimal', 27, 3241, 3241, '6 10 2 7 3 1 5 4 9 8'),
    ('optimal', 13, 0, 0, '6 1 4 9 11 10 5 7 2 3 8'),
    ('optimal', 62, 5521, 5521, '1 8 2 5 6 7 4 10 11 12 3 9'),
    ('optimal', 28, 1140, 1140, '5 10 6 3 8 2 7 1 4 9'),
    ('optimal', 74, 2937, 2937, '11 6 1 5 10 7 9 3 8 2 4'),
    ('optimal', 33, 1945, 1945, '2 8 9 4 10 6 12 11 5 3 1 7'),
    ('optimal', 18, 3241, 3241, '4 6 1 10 8 9 7 2 5 3'),
    ('optimal', 27, 4290, 4290, '7 10 3 5 11 2 9 4 8 1 6'),
    ('optimal', 19, 1896, 1896, '9 3 10 1 7 4 5 11 6 12 2 8'),
    ('optimal', 70, 2251, 2251, '8 5 10 4 7 2 3 1 6 9'),
    ('optimal', 247, 4433, 4433, '7 9 6 1 8 11 2 5 10 4 3'),
    ('optimal', 157, 5688, 5688, '12 7 3 9 11 2 8 6 1 4 10 5'),
    ('optimal', 26, 3231, 3231, '3 2 7 8 9 6 10 5 4 1'),
    ('optimal', 22, 1475, 1475, '4 1 6 9 5 10 2 7 3 8 11'),
]
# fmt: on


@pytest.mark.parametrize("idx", range(len(ANYTIME_GOLDEN)))
def test_anytime_search_is_pinned(idx):
    assert outcome(anytime_cases()[idx], ANYTIME_NODE_LIMIT) == ANYTIME_GOLDEN[idx]


@pytest.mark.parametrize("idx", range(len(EXACT_GOLDEN)))
def test_exact_search_is_pinned(idx):
    assert outcome(exact_cases()[idx], None) == EXACT_GOLDEN[idx]


@pytest.mark.parametrize("idx", [i for i, p in enumerate(exact_cases()) if p.b * 2 + p.n <= 10])
def test_exact_pins_are_oracle_optima(idx):
    inst, _ = generate_planted(exact_cases()[idx])
    _, _, objective, _, tour = EXACT_GOLDEN[idx]
    orc = enumerate_solutions(inst, limit_k=10)
    assert objective == orc.optimal_objective
    assert tuple(map(int, tour.split())) in {p.tour for p in orc.optimal_solutions}
