"""Exact ground truth for small inputs.

``enumerate_solutions`` walks every permutation of an instance's jobs,
counts the valid ones and reports the exact optimum together with *all*
optimal permutations. It draws each permutation from
``itertools.permutations`` as a position vector (entry j - 1 is the
position of job j), which is the same set of orders as drawing tours but
needs no copy into a position map before checking; the optimal set is
inverted into tours and reported in lexicographic tour order.

``brute_mas`` solves maximum acyclic subgraph exactly by the subset
recurrence over vertex sets, in O(2^n * n) steps; it draws no
permutations, so only ``enumerate_solutions`` walks position vectors.

Both refuse inputs beyond a small size guard; they exist to certify other
components, not to scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .digraph import DiGraph
from .model import Instance, Permutation

DEFAULT_LIMIT_K = 10
DEFAULT_LIMIT_V = 10


@dataclass(frozen=True)
class OracleResult:
    valid_count: int
    enumerated: int
    optimal_objective: int | None
    optimal_solutions: tuple[Permutation, ...]


def enumerate_solutions(inst: Instance, limit_k: int = DEFAULT_LIMIT_K) -> OracleResult:
    """Exact census and optimum by enumerating all k! permutations.

    Permutations are drawn as position vectors (entry j - 1 is job j's
    position), which covers the same k! orders as drawing tours. A valid
    permutation is priced criterion by criterion and dropped as soon as its
    S band alone exceeds the best objective so far. The optimal set is
    reported in lexicographic tour order, so it is deterministic. Raises
    ValueError when k exceeds the guard.
    """
    k = inst.k
    if k > limit_k:
        raise ValueError(
            f"instance has k={k} jobs; exhaustive enumeration is limited to k<={limit_k}"
        )
    b = inst.b
    # every job index below is 0-based, to index a drawn position vector
    atomic = tuple((i - 1, j - 1) for i, j in inst.atomic)
    disjunctive = tuple(
        (a1 - 1, b1 - 1, a2 - 1, b2 - 1) for a1, b1, a2, b2 in inst.disjunctive
    )
    ds = tuple((i - 1, (i + b if i <= b else i - b) - 1) for i in inst.direct_successors)
    pairs = tuple((i, i + b) for i in range(b))
    soft = tuple((i - 1, j - 1) for i, j in inst.soft_atomic)
    k2 = k * k
    k3 = k2 * k

    enumerated = 0
    valid_count = 0
    best = math.inf
    best_pos: list[tuple[int, ...]] = []

    for p in itertools.permutations(range(1, k + 1)):
        enumerated += 1
        for i, j in atomic:
            if p[i] >= p[j]:
                break
        else:
            for a1, b1, a2, b2 in disjunctive:
                if p[a1] >= p[b1] and p[a2] >= p[b2]:
                    break
            else:
                for i, j in ds:
                    if p[j] > p[i] + 1:
                        break
                else:
                    valid_count += 1
                    # S counts the open spans; M, L and N cannot lower an
                    # objective whose S band is already above the best
                    spans = []
                    for i, j in pairs:
                        lo = p[i]
                        hi = p[j]
                        if lo > hi:
                            lo, hi = hi, lo
                        if hi - lo > 1:
                            spans.append((lo, hi))
                    obj = k3 * len(spans)
                    if obj > best:
                        continue
                    if spans:
                        # the peak load is reached at the first stored
                        # position of some span
                        m = 0
                        widest = 0
                        for lo, hi in spans:
                            load = 0
                            for lo2, hi2 in spans:
                                if lo2 <= lo and lo + 1 < hi2:
                                    load += 1
                            if load > m:
                                m = load
                            if hi - lo > widest:
                                widest = hi - lo
                        obj += k2 * m + k * (widest - 1)
                    for i, j in soft:
                        if p[i] > p[j]:
                            obj += 1
                    if obj < best:
                        best = obj
                        best_pos = [p]
                    elif obj == best:
                        best_pos.append(p)

    # invert each optimal position vector into its tour, in place
    tour = [0] * k
    for idx, p in enumerate(best_pos):
        for job, x in enumerate(p, start=1):
            tour[x - 1] = job
        best_pos[idx] = tuple(tour)
    best_pos.sort()
    return OracleResult(
        valid_count=valid_count,
        enumerated=enumerated,
        optimal_objective=best if valid_count else None,
        optimal_solutions=tuple(map(Permutation, best_pos)),
    )


def brute_mas(g: DiGraph, limit_v: int = DEFAULT_LIMIT_V) -> int:
    """Maximum number of edges of ``g`` that fit an acyclic subgraph.

    Every maximal acyclic edge set is the forward edges of some linear order
    of the vertices, so the answer is the best order's forward-edge count.
    It is found by the subset recurrence: with ``into[v]`` the bitmask of
    v's in-neighbours and S the set of vertices placed first,
    ``f[S] = max over v in S of f[S - v] + popcount(into[v] & (S - v))``
    (v placed last keeps its edges from the rest of S), and the answer is
    ``f`` of the full set. Subsets are walked in increasing integer order,
    so each ``f[S - v]`` is ready before it is read.
    """
    n = g.vertex_count
    if n > limit_v:
        raise ValueError(f"graph has {n} vertices; brute force is limited to {limit_v}")
    if not g.edges:
        return 0
    into = [0] * n
    for u, v in g.edges:
        into[v - 1] |= 1 << (u - 1)
    full = (1 << n) - 1
    f = [0] * (full + 1)
    for s in range(1, full + 1):
        best = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            prev = s ^ low
            kept = f[prev] + (into[low.bit_length() - 1] & prev).bit_count()
            if kept > best:
                best = kept
        f[s] = best
    return f[full]
