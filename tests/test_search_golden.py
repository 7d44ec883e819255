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
optimal set. The branch order leads with the child bound, so a stronger
bound is also a new branch order, under which an anytime objective may
move either way. A rule that drops a child for a prefix that does no
worse (the swap rule) moves node counts and tours the same way, next to
its probe and oracle checks (``tests/test_swap_rule.py``).

``search_digest`` pins more of the search than the rows do: one SHA-256
over every counter of ``SolveStats`` but ``time_ms``, with the state,
objective and tour, of many more solves. A kernel change that keeps the
search the same leaves ``SEARCH_DIGESTS`` unchanged.
"""

import dataclasses
import hashlib
import random

import pytest

from ctwkit import SolveStats, SolverConfig, enumerate_solutions, solve
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


def digest_cases(seed: int, anytime: int, exact: int) -> list[tuple[GenParams, int | None]]:
    """(params, node limit) of ``anytime`` instances shaped like the
    anytime benchmark's (k = 40..60, a 500-node budget) and ``exact`` ones
    shaped like the exact benchmark's planted ones (k = 11..13, to proof)."""
    rng = random.Random(seed)
    out = []
    for idx in range(anytime):
        k = 40 + idx % 21
        b = rng.randint(k // 4, k // 2)
        out.append((GenParams(b=b, n=k - 2 * b, p_atomic=0.18, p_soft=rng.choice((0.01, 0.02)),
                              p_disjunctive=rng.choice((0.05, 0.1)), ds_count=rng.randint(0, b),
                              seed=rng.randrange(2 ** 30)), ANYTIME_NODE_LIMIT))
    for idx in range(exact):
        k = 11 + idx % 3
        b = k // 2
        out.append((GenParams(b=b, n=k - 2 * b, p_atomic=0.30, p_soft=0.02, p_disjunctive=0.10,
                              ds_count=b, seed=rng.randrange(2 ** 30)), None))
    return out


def search_digest(seed: int, anytime: int = 60, exact: int = 120) -> str:
    """SHA-256 over (state, each ``SolveStats`` field but ``time_ms``,
    objective, tour) of every solve of ``digest_cases``."""
    counters = [f.name for f in dataclasses.fields(SolveStats) if f.name != "time_ms"]
    h = hashlib.sha256()
    for params, node_limit in digest_cases(seed, anytime, exact):
        inst, _ = generate_planted(params)
        res = solve(inst, SolverConfig(time_limit_ms=3_600_000, node_limit=node_limit))
        best = (None, None) if res.best is None else (res.best[1].objective, res.best[0].tour)
        row = (res.state.value, *(getattr(res.stats, name) for name in counters), *best)
        h.update(repr(row).encode())
    return h.hexdigest()


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
    ('optimal', 263, 16901, 16901, '19 4 7 16 18 3 12 13 6 15 9 1 10 5 14 8 17 20 2 11'),
    ('optimal', 224, 9828, 9828, '15 1 2 9 17 18 3 10 8 7 14 16 20 6 13 19 21 5 12 4 11'),
    ('suboptimal', 500, 21891, 10648, '4 11 2 9 16 22 13 5 12 8 6 7 14 20 19 1 21 15 3 10 17 18'),
    ('suboptimal', 500, 25646, 24335, '1 12 8 7 2 11 15 18 21 23 19 6 5 10 3 4 9 14 17 20 13 16 22'),
    ('suboptimal', 500, 58035, 27649, '2 14 15 17 24 19 9 21 6 16 22 13 3 12 1 11 8 18 4 10 20 5 7 23'),
    ('suboptimal', 500, 96628, 78127, '11 22 12 15 21 6 7 18 5 16 23 24 25 2 13 3 10 20 1 4 9 17 8 19 14'),
    ('suboptimal', 500, 55202, 52731, '2 22 24 19 16 20 23 4 7 15 26 11 3 10 6 14 18 21 1 9 8 17 25 5 13 12'),
    ('suboptimal', 500, 20631, 19683, '6 15 2 11 7 10 1 24 27 4 13 8 17 16 5 14 19 21 22 23 9 18 25 26 3 12 20'),
    ('suboptimal', 500, 90526, 43905, '1 21 23 27 3 11 13 14 18 19 20 26 8 16 9 6 5 22 2 4 12 7 15 10 17 24 25 28'),
    ('suboptimal', 500, 224290, 219504, '2 17 22 16 8 21 7 20 12 25 18 15 6 28 26 19 11 24 10 3 5 4 1 9 27 13 14 29 23'),
    ('suboptimal', 500, 304110, 108000, '19 24 28 16 8 17 21 23 15 7 2 10 25 6 14 5 9 1 13 22 30 29 12 27 3 18 11 26 4 20'),
    ('suboptimal', 500, 184235, 119164, '2 4 15 5 16 22 3 24 8 10 20 13 23 25 26 9 19 11 18 14 29 7 17 12 6 21 27 28 30 1 31'),
    ('suboptimal', 500, 233955, 196610, '2 7 3 26 13 16 10 21 15 4 22 9 20 1 12 17 14 18 5 19 11 24 25 27 28 6 31 8 23 30 32 29'),
    ('suboptimal', 500, 223116, 107814, '12 16 2 11 20 23 15 26 30 9 18 10 5 14 13 17 24 27 31 22 8 6 32 33 1 29 7 4 19 25 3 21 28'),
    ('suboptimal', 500, 322255, 235826, '12 17 30 22 16 8 29 31 28 32 27 1 34 26 7 5 23 11 24 33 6 18 10 14 19 3 15 2 20 21 9 4 13 25'),
    ('suboptimal', 500, 395537, 257251, '2 5 34 7 10 24 32 26 31 13 27 8 22 25 6 9 15 1 33 20 29 35 23 14 4 11 28 19 3 17 18 12 16 21 30'),
    ('suboptimal', 500, 665749, 419904, '16 20 21 18 5 31 22 2 15 25 26 30 12 10 33 6 24 7 19 14 28 4 34 3 13 1 36 17 35 11 23 29 32 27 9 8'),
    ('suboptimal', 500, 414182, 303920, '3 4 22 1 14 35 15 12 20 27 16 6 19 25 29 33 34 8 24 2 7 21 17 9 10 23 13 26 18 5 30 36 28 11 31 32 37'),
    ('suboptimal', 500, 616172, 493850, '11 14 18 5 24 7 29 30 15 1 3 17 13 9 32 34 25 28 35 37 38 16 23 4 31 8 27 26 33 6 20 19 10 21 2 22 36 12'),
    ('suboptimal', 500, 263488, 256006, '2 4 14 9 19 16 30 40 18 1 11 26 10 20 27 13 3 7 24 23 32 35 12 38 37 39 31 34 36 21 25 28 6 29 5 15 8 17 22 33'),
]

EXACT_GOLDEN = [
    ('optimal', 15, 1120, 1120, '4 9 2 3 8 7 5 10 1 6'),
    ('optimal', 13, 1474, 1474, '2 7 1 3 8 6 4 9 11 5 10'),
    ('optimal', 113, 5544, 5544, '6 12 1 10 11 5 2 8 3 7 4 9'),
    ('optimal', 43, 1120, 1120, '1 6 2 7 10 5 9 3 8 4'),
    ('optimal', 35, 1497, 1497, '11 1 10 5 2 7 6 4 9 3 8'),
    ('optimal', 12, 0, 0, '2 8 4 10 1 7 5 11 6 12 9 3'),
    ('optimal', 27, 3241, 3241, '6 10 2 7 3 1 5 4 9 8'),
    ('optimal', 11, 0, 0, '1 6 4 9 11 10 5 2 7 3 8'),
    ('optimal', 47, 5521, 5521, '1 2 8 5 6 7 4 10 11 12 3 9'),
    ('optimal', 13, 1140, 1140, '5 10 6 3 8 2 7 1 4 9'),
    ('optimal', 50, 2937, 2937, '11 1 6 5 10 7 9 3 8 2 4'),
    ('optimal', 14, 1945, 1945, '2 8 9 4 10 6 12 11 5 3 1 7'),
    ('optimal', 10, 3241, 3241, '4 6 1 10 8 9 5 7 2 3'),
    ('optimal', 19, 4290, 4290, '7 10 3 5 11 2 9 4 8 1 6'),
    ('optimal', 19, 1896, 1896, '9 3 10 1 7 4 5 11 6 12 2 8'),
    ('optimal', 68, 2251, 2251, '8 5 10 4 7 2 3 1 6 9'),
    ('optimal', 247, 4433, 4433, '7 9 6 1 8 11 2 5 10 4 3'),
    ('optimal', 133, 5688, 5688, '12 7 3 9 11 2 8 6 1 4 10 5'),
    ('optimal', 26, 3231, 3231, '3 2 7 8 9 6 10 5 4 1'),
    ('optimal', 22, 1475, 1475, '4 1 6 9 5 10 2 7 3 8 11'),
]
# fmt: on

# search_digest(seed) for tier-1 (seed 0, default sizes), and
# search_digest(seed, 200, 400) for seeds 1-3, which CI runs
SEARCH_DIGESTS = {
    (0, 60, 120): "71825ca84251c924d1093ebc7c193022dfe25ed785565f8d78752c8c7b774922",
    (1, 200, 400): "ddfd24db3ed4501f1d960043b34c4739edbcc8289f8bb7b0d6d2f9c15af799af",
    (2, 200, 400): "be461ead1e9a1c4314ed5d16a5b3ded1bc1a008c78bd26590d717886d8b06ca4",
    (3, 200, 400): "5d8b66822538eebb1ac56501e1cdfcbad9b40eea937afef62094479017f28577",
}


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


def test_search_digest_is_pinned():
    assert search_digest(0) == SEARCH_DIGESTS[0, 60, 120]
