"""Seeded random instance generator.

Satisfiable instances are built around a hidden planted permutation: hard
constraints are only sampled when the plant satisfies them, so at least one
valid solution exists by construction. Soft constraints skip that filter on
purpose -- violated soft precedences are what make the cost side of the
problem hard. Unsatisfiable instances additionally inject a directed cycle
into the hard atomic set, which the precheck (and any exhaustive method)
must recognise.

All sampling is count-based: a density p over a domain of size D yields
round(p * D) distinct draws, each mapped to its constraint by a
closed-form index bijection, so generation costs O(k + sample size), plus
sorting the output, even for k in the tens of thousands.

Distinct draws under a bijection give distinct rows, so every constraint
set is built without duplicates and only sorted. The one exception is the
injected cycle of an unsatisfiable instance, which may repeat a sampled
atomic pair; it is merged into the atomic set through a set. ``Instance``
still rejects any duplicate.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .model import Instance, Permutation
from .polycases import ds_only_solve


class GenMode(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    DS_ONLY = "ds-only"
    ATOMIC_ONLY = "atomic-only"


@dataclass(frozen=True)
class GenParams:
    """Knobs for one generated instance.

    Densities are fractions of the respective sampling domains: unordered
    job pairs for atomic/soft constraints, (pair, third job) combinations
    for disjunctive ones. ``ds_count`` asks for that many constrained cable
    ends; in SATISFIABLE mode fewer may be emitted when the plant leaves
    fewer consistent choices. ATOMIC_ONLY requires b = 0. A density must
    be a real number and ``mode`` a ``GenMode``; anything else raises
    ValueError.
    """

    b: int = 0
    n: int = 0
    p_atomic: float = 0.15
    p_soft: float = 0.05
    p_disjunctive: float = 0.10
    ds_count: int = 0
    seed: int = 0
    mode: GenMode = GenMode.SATISFIABLE

    def __post_init__(self):
        for name in ("b", "n", "ds_count", "seed"):
            # stored as the int ``operator.index`` reads: a float or None
            # (which would seed from the OS) is no count or seed
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError as exc:
                raise ValueError(f"{name} must be an integer: {exc}") from None
        if self.b < 0 or self.n < 0:
            raise ValueError("b and n must be non-negative")
        if not isinstance(self.mode, GenMode):
            # compared by identity below: a string would match no mode
            raise ValueError(f"mode must be a GenMode, got {self.mode!r}")
        for name in ("p_atomic", "p_soft", "p_disjunctive"):
            p = getattr(self, name)
            if not isinstance(p, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.ds_count < 0 or self.ds_count > 2 * self.b:
            raise ValueError(f"ds_count must lie in 0..2b = 0..{2 * self.b}")
        if self.mode is GenMode.ATOMIC_ONLY and self.b != 0:
            raise ValueError("ATOMIC_ONLY requires b = 0")
        if self.mode is GenMode.UNSATISFIABLE and self.b * 2 + self.n < 2:
            raise ValueError("UNSATISFIABLE needs at least two jobs for a cycle")

    @property
    def k(self) -> int:
        return 2 * self.b + self.n


def _pairs_from_indices(indices, k: int):
    """Yield the unordered pair (u, v), u < v, of each index in ``indices``.

    A bijection from 0..k(k-1)/2-1 onto the pairs in row order: row u
    holds (u, u+1) .. (u, k). Counted from the last pair, the rows hold 1,
    2, 3, ... pairs, so the row is the triangular root of that count, and
    v is k less what is left of the count after the row's start. Pairs
    are yielded one at a time, so no list of them outlives its use.
    """
    last = k * (k - 1) // 2 - 1
    isqrt = math.isqrt
    for idx in indices:
        back = last - idx
        row = (isqrt(8 * back + 1) - 1) // 2  # rows after u
        yield k - 1 - row, k - back + row * (row + 1) // 2


def generate_planted(params: GenParams) -> tuple[Instance, Permutation | None]:
    """Generate an instance together with its planted solution.

    The plant is a valid solution for SATISFIABLE, ATOMIC_ONLY and DS_ONLY
    modes and None for UNSATISFIABLE. Deterministic per seed.
    """
    rng = random.Random(params.seed)
    k, b = params.k, params.b
    mode = params.mode

    jobs = list(range(1, k + 1))
    if mode is GenMode.DS_ONLY:
        plant = ds_only_solve(Instance(k=k, b=b))
    else:
        shuffled = jobs[:]
        rng.shuffle(shuffled)
        plant = Permutation(tuple(shuffled))
    pos = plant._pos

    atomic: list[tuple[int, int]] = []
    soft: list[tuple[int, int]] = []
    disjunctive: list[tuple[int, int, int, int]] = []
    ds: list[int] = []

    if mode is not GenMode.DS_ONLY:
        total_pairs = k * (k - 1) // 2
        m_atomic = round(params.p_atomic * total_pairs)
        m_soft = 0 if mode is GenMode.ATOMIC_ONLY else round(params.p_soft * total_pairs)
        chosen = rng.sample(range(total_pairs), min(m_atomic + m_soft, total_pairs))
        pairs = _pairs_from_indices(chosen, k)
        # the first m_atomic pairs are hard, the rest soft
        atomic = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in islice(pairs, m_atomic)]
        soft = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]

    if mode in (GenMode.SATISFIABLE, GenMode.UNSATISFIABLE) and b > 0 and k > 2:
        total_combos = b * (k - 2)
        m_disj = round(params.p_disjunctive * total_combos)
        for idx in rng.sample(range(total_combos), m_disj):
            i = idx // (k - 2) + 1
            off = idx % (k - 2)
            # off-th job when both pair ends are skipped (i < i+b always)
            l = off + 1
            if l >= i:
                l += 1
            if l >= i + b:
                l += 1
            j = i + b
            shape = rng.random()
            if shape < 0.5:
                d = (l, i, l, j)
            elif shape < 0.75:
                d = (l, i, j, l)
            else:
                d = (l, j, i, l)
            if pos[d[0]] < pos[d[1]] or pos[d[2]] < pos[d[3]]:
                disjunctive.append(d)

        if params.ds_count:
            consistent = [
                i
                for i in range(1, 2 * b + 1)
                if pos[i + b if i <= b else i - b] == pos[i] + 1
                or pos[i + b if i <= b else i - b] < pos[i]
            ]
            rng.shuffle(consistent)
            ds = consistent[: params.ds_count]
    elif mode is GenMode.DS_ONLY and params.ds_count:
        ds = rng.sample(range(1, 2 * b + 1), params.ds_count)

    if mode is GenMode.UNSATISFIABLE:
        length = rng.randint(2, min(4, k))
        cycle = rng.sample(jobs, length)
        injected = {
            (cycle[x], cycle[(x + 1) % length]) for x in range(length)
        }
        atomic = list(set(atomic) | injected)  # the cycle may repeat a sampled pair
        soft = [c for c in soft if c not in injected]
        plant = None

    inst = Instance(
        k=k,
        b=b,
        atomic=tuple(sorted(atomic)),
        soft_atomic=tuple(sorted(soft)),
        disjunctive=tuple(sorted(disjunctive)),
        direct_successors=tuple(sorted(ds)),
    )
    return inst, plant


def generate(params: GenParams) -> Instance:
    return generate_planted(params)[0]


# ---------------------------------------------------------------------------
# Desk-scale benchmark suites


def certification_suite(seed: int = 0, count: int = 200) -> list[tuple[str, GenParams]]:
    """Small instances (k <= 8) across all modes for exhaustive certification.

    Roughly 60% satisfiable mixed, 15% unsatisfiable, 15% atomic-only and
    10% successor-only; at least 20 unsatisfiable at the default count.
    """
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        roll = idx % 20
        if roll < 12:
            mode = GenMode.SATISFIABLE
            b = rng.randint(0, 3)
            n = rng.randint(0 if b else 1, 8 - 2 * b)
            params = GenParams(
                b=b,
                n=n,
                p_atomic=rng.choice((0.1, 0.2, 0.35)),
                p_soft=rng.choice((0.0, 0.1, 0.2)),
                p_disjunctive=rng.choice((0.0, 0.15, 0.3)),
                ds_count=rng.randint(0, 2 * b) if b else 0,
                seed=seed * 100_003 + idx,
                mode=mode,
            )
        elif roll < 15:
            b = rng.randint(0, 3)
            n = rng.randint(max(0, 2 - 2 * b), 8 - 2 * b)
            params = GenParams(
                b=b,
                n=n,
                p_atomic=rng.choice((0.1, 0.25)),
                p_soft=0.1,
                p_disjunctive=0.15,
                ds_count=rng.randint(0, 2 * b) if b else 0,
                seed=seed * 100_003 + idx,
                mode=GenMode.UNSATISFIABLE,
            )
        elif roll < 18:
            params = GenParams(
                b=0,
                n=rng.randint(1, 8),
                p_atomic=rng.choice((0.15, 0.3, 0.5)),
                seed=seed * 100_003 + idx,
                mode=GenMode.ATOMIC_ONLY,
            )
        else:
            b = rng.randint(1, 4)
            n = rng.randint(0, 8 - 2 * b)
            params = GenParams(
                b=b,
                n=n,
                ds_count=rng.randint(1, 2 * b),
                seed=seed * 100_003 + idx,
                mode=GenMode.DS_ONLY,
            )
        out.append((f"C{idx:03d}", params))
    return out


def anytime_suite(seed: int = 0, count: int = 50,
                  k_range: tuple[int, int] = (20, 50)) -> list[tuple[str, GenParams]]:
    """Mid-size satisfiable instances for time-limited runs."""
    rng = random.Random(seed ^ 0x5EED)
    lo, hi = k_range
    out = []
    for idx in range(count):
        k = rng.randint(lo, hi)
        b = rng.randint(k // 4, k // 2)
        n = k - 2 * b
        params = GenParams(
            b=b,
            n=n,
            p_atomic=rng.choice((0.08, 0.12, 0.18)),
            p_soft=rng.choice((0.01, 0.02)),
            p_disjunctive=rng.choice((0.05, 0.1)),
            ds_count=rng.randint(0, b),
            seed=seed * 99_991 + idx,
            mode=GenMode.SATISFIABLE,
        )
        out.append((f"T{idx:03d}", params))
    return out
