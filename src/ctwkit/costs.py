"""The four optimisation criteria and the weighted objective.

For a bijective permutation of k = 2b + n jobs (the functions that take a
Permutation raise ValueError for any other):

* S - number of interrupted job pairs: pairs whose two ends sit more than
  one position apart, so one end waits in storage.
* M - peak storage load: the largest number of pairs that are "open" at any
  single position (one end plugged strictly before it, the other strictly
  after).
* L - longest storage residence, in jobs: max over pairs of (gap between the
  two ends) - 1.
* N - number of violated soft atomic precedences.

The weighted objective k^3*S + k^2*M + k*L + N separates the criteria into
non-overlapping value bands whenever N < k, so minimising it optimises
(S, M, L, N) lexicographically. All arithmetic is exact: Python integers do
not overflow, which covers the k <= 1000 operating range and beyond.

``breakdown`` is the one pricing of a tour: a walk over the pairs gives S,
L and the storage load at each position, whose peak is M, and a walk over
the soft edges gives N. ``edge_cost_s`` is the second formulation, the
paper's: S as the sum of the tour's edge costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .model import Instance, Permutation


@dataclass(frozen=True)
class CostBreakdown:
    S: int
    M: int
    L: int
    N: int
    objective: int


def objective(S: int, M: int, L: int, N: int, k: int) -> int:
    """k^3*S + k^2*M + k*L + N, exactly."""
    if min(S, M, L, N) < 0:
        raise ValueError("criteria must be non-negative")
    if k < 0:
        raise ValueError("k must be non-negative")
    return k ** 3 * S + k ** 2 * M + k * L + N


def _checked_pos(inst: Instance, perm: Permutation) -> tuple[int, ...]:
    """``perm``'s position array; ValueError unless it is a bijection of 1..k."""
    if len(perm) != inst.k:
        raise ValueError(f"permutation has length {len(perm)}, instance has k={inst.k}")
    if not perm.is_bijection():
        raise ValueError(f"permutation is not a bijection of 1..{inst.k}")
    return perm._pos


def breakdown(inst: Instance, perm: Permutation) -> CostBreakdown:
    """All four criteria plus the weighted objective, in one walk over the
    pairs and one over the soft edges."""
    pos = _checked_pos(inst, perm)
    b = inst.b
    s = l = 0
    # pair (lo, hi) holds one end in storage at every position strictly
    # between its ends: +1 at lo + 1, -1 at hi, and the running sum is the
    # load at each position
    diff = [0] * (inst.k + 1)
    for lo, hi in zip(pos[1:b + 1], pos[b + 1:2 * b + 1]):
        if lo > hi:
            lo, hi = hi, lo
        if hi - lo > 1:
            s += 1
            if hi - lo - 1 > l:
                l = hi - lo - 1
            diff[lo + 1] += 1
            diff[hi] -= 1
    m = max(accumulate(diff)) if s else 0  # no interrupted pair, nothing stored
    n = 0
    for i, j in inst.soft_atomic:
        if pos[i] > pos[j]:
            n += 1
    return CostBreakdown(s, m, l, n, objective(s, m, l, n, inst.k))


def edge_cost_s(inst: Instance, perm: Permutation) -> int:
    """S recomputed as a sum of tour edge costs.

    The edge leaving position x costs 1 exactly when the job at x is a
    two-sided end whose partner is neither already plugged nor plugged at
    x + 1; each interrupted pair contributes that cost once, at its earlier
    end, so the sum equals ``breakdown(inst, perm).S`` on every bijection.
    """
    pos = _checked_pos(inst, perm)
    tour = perm.tour
    b = inst.b
    two_sided = 2 * b
    total = 0
    for x in range(1, inst.k):  # the final position has no outgoing edge
        u = tour[x - 1]
        if u <= two_sided:
            p = pos[u + b if u <= b else u - b]
            if p > x + 1:
                total += 1
    return total
