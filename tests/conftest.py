import dataclasses
import itertools
import operator
import random

import pytest

from ctwkit import Instance
from ctwkit.digraph import DiGraph
from ctwkit.generate import GenMode, GenParams, generate_planted
from ctwkit.reduction import mas_to_ctw


@pytest.fixture
def five_job() -> Instance:
    """k=5, b=2 reference instance: pairs (1,3) and (2,4), one-sided job 5.

    Hard order 3<4, 4<1, 5<4; one disjunction (2<5 or 2<1); pair end 4
    carries a direct successor constraint. Exactly 8 of the 120
    permutations are valid; the optimum is 160.
    """
    return Instance(
        k=5,
        b=2,
        atomic=[(3, 4), (4, 1), (5, 4)],
        disjunctive=[(2, 5, 2, 1)],
        direct_successors=[4],
    )


def random_params(rng: random.Random, mode: GenMode, max_k: int = 7,
                  seed: int | None = None) -> GenParams:
    """Feasible parameters for a small instance of the given mode."""
    if mode is GenMode.ATOMIC_ONLY:
        b, n = 0, rng.randint(1, max_k)
    elif mode is GenMode.DS_ONLY:
        b = rng.randint(1, max_k // 2)
        n = rng.randint(0, max_k - 2 * b)
    else:
        b = rng.randint(0, max_k // 2)
        lo = 2 if (mode is GenMode.UNSATISFIABLE and b == 0) else (1 if b == 0 else 0)
        n = rng.randint(lo, max(lo, max_k - 2 * b))
    return GenParams(
        b=b,
        n=n,
        p_atomic=rng.choice((0.1, 0.25, 0.4)),
        p_soft=rng.choice((0.0, 0.1, 0.25)),
        p_disjunctive=rng.choice((0.0, 0.15, 0.3)),
        ds_count=rng.randint(0, 2 * b),
        seed=rng.randrange(2 ** 30) if seed is None else seed,
        mode=mode,
    )


def random_instance(rng: random.Random, mode: GenMode = GenMode.SATISFIABLE,
                    max_k: int = 7):
    return generate_planted(random_params(rng, mode, max_k))


def soft_heavy_instances(rng: random.Random, count: int, max_k: int):
    """Planted instances with dense soft edges, about a third of them also
    joined the other way (soft digons) and a fifth of the hard edges
    reversed as soft ones, so many run against hard chains and close
    cycles with them. Yields (instance, plant); the plant is None for the
    unsatisfiable half."""
    for t in range(count):
        mode = (GenMode.SATISFIABLE, GenMode.UNSATISFIABLE)[t % 2]
        params = dataclasses.replace(random_params(rng, mode, max_k),
                                     p_soft=rng.choice((0.3, 0.5)))
        inst, plant = generate_planted(params)
        hard = set(inst.atomic)
        back = {(j, i) for i, j in inst.soft_atomic
                if (j, i) not in hard and rng.random() < 0.3}
        back |= {(j, i) for i, j in inst.atomic
                 if (j, i) not in hard and rng.random() < 0.2}
        back -= set(inst.soft_atomic)
        yield dataclasses.replace(inst, soft_atomic=inst.soft_atomic + tuple(sorted(back))), plant


def general_disjunction_instances(rng: random.Random, count: int, lo: int, hi: int):
    """Planted instances on lo..hi jobs whose disjunctions each join four
    distinct jobs, (a < c) or (x < y), a shape ``generate_planted`` never
    draws: its disjunctions share a job between the two disjuncts. Only
    here can a disjunct die while both jobs of the other one are placed,
    the other in the wrong order. Most disjunctions hold on the plant; a
    few need not, which may move the optimum or leave no valid order."""
    for _ in range(count):
        k = rng.randint(lo, hi)
        b = rng.randint(0, k // 2)
        inst, plant = generate_planted(GenParams(
            b=b, n=k - 2 * b, p_atomic=rng.choice((0.1, 0.25)),
            p_soft=rng.choice((0.0, 0.1)), p_disjunctive=0.0,
            ds_count=rng.randint(0, b), seed=rng.randrange(2 ** 30)))
        pos = plant._pos
        disjunctive = set()
        for _ in range(rng.randint(1, k)):
            a, c, x, y = rng.sample(range(1, k + 1), 4)
            if pos[a] < pos[c] or pos[x] < pos[y] or rng.random() < 0.15:
                disjunctive.add((a, c, x, y))
        yield dataclasses.replace(inst, disjunctive=tuple(sorted(disjunctive)))


def mas_instances(rng: random.Random, count: int, lo: int, hi: int):
    """MAS encodings of random digraphs on lo..hi vertices whose arcs are
    drawn independently, so some vertex pairs are joined both ways."""
    for _ in range(count):
        n = rng.randint(lo, hi)
        p = rng.choice((0.2, 0.35, 0.5))
        edges = {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if u != v and rng.random() < p}
        yield mas_to_ctw(DiGraph(n, frozenset(edges)))


class CountingItertools:
    """Counts the orders pulled from ``itertools.permutations``; the same
    ``zip``-with-counter stand-in the traced benchmark swaps in for the
    oracle's ``itertools``."""

    def __init__(self):
        self.counters = []

    def __getattr__(self, name):
        return getattr(itertools, name)

    def permutations(self, *args):
        counter = itertools.count()
        self.counters.append(counter)
        return map(operator.itemgetter(0), zip(itertools.permutations(*args), counter))

    def pulled(self) -> int:
        return sum(next(c) for c in self.counters)
