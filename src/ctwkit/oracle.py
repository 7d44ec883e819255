"""Exact ground truth for small inputs.

``enumerate_solutions`` walks every permutation of an instance's jobs,
counts the valid ones and reports the exact optimum together with *all*
optimal permutations. It draws each permutation from
``itertools.permutations`` as a position vector over a draw order of the
jobs, most constrained first (entry n is the position of the n-th job
drawn), which is the same set of orders as drawing tours but needs no copy
into a position map before checking. Each hard check is tagged with the
last entry it reads; the first broken check of a vector condemns every
vector that shares its entries up to that one, and in lexicographic
drawing order those follow it as one block, so the block is pulled from
the iterator unchecked. Jobs that no check reads and no criterion prices
(free jobs) are drawn last, so a valid vector stands for the block of
vectors that differ only in their free entries: the block is counted,
priced and kept once, and pulled unchecked like a broken one. The optimal
blocks are expanded into tours and reported in lexicographic tour order.

``brute_mas`` solves maximum acyclic subgraph exactly by the subset
recurrence over vertex sets, in O(2^n * n) steps; it draws no
permutations, so only ``enumerate_solutions`` walks position vectors.

Both refuse inputs beyond a small size guard; they exist to certify other
components, not to scale.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
# the orders of the free jobs within a block; vectors are drawn through
# ``itertools.permutations`` alone, so a stand-in for the module counts draws
from itertools import permutations as arrangements

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

    Permutations are drawn from ``itertools.permutations`` as position
    vectors over a draw order of the jobs: entry n of a vector is the
    position of job ``order[n]``. A job is free when no hard check reads it
    (it has no atomic, disjunctive or direct-successor entry) and no
    criterion prices it (it is no pair end 1..2b and on no soft edge). The
    order puts the most constrained jobs first, by their count of hard
    atomic, disjunctive and direct-successor entries (both ends of a direct
    successor count), ties by job id, and the f free jobs last. The k!
    vectors cover the same k! orders as drawing tours.

    Each hard check (an atomic precedence, a disjunction, a direct
    successor) has a level: the last vector entry it reads. The checks run
    sorted by level. When the first broken check has level L, every vector
    that shares entries 0..L with this one breaks it too; in the drawing
    order they are this vector and the next (k-L-1)! - 1, so those are
    pulled from the iterator unchecked and counted as enumerated and
    invalid. A valid vector has level L = k-f-1: the f! vectors that share
    its entries 0..k-f-1 differ only in where the free jobs go, so all are
    valid at the same cost. The next f! - 1 are pulled unchecked, the block
    adds f! to the valid count and is priced once. Every vector is still
    pulled, so ``enumerated`` is k!.

    The skips are exact because every vector the loop examines is the
    first of its level-L block, where L is the level of its first broken
    check, or k-f-1 when it is valid (its entries after L ascend). The
    first vector drawn ascends throughout. Any other v examined comes after
    w, the vector examined last, as the first vector after w's level-L_w
    block. So v first differs from w at some entry d <= L_w, and v's
    entries after d ascend. If v breaks a check, let L be the level of the
    first one. If L < d, v shares entries 0..L with w, so w breaks v's
    level-L check too: then w is not valid, and w's first broken level is
    at most L < d, which contradicts d <= L_w. So L >= d, and v's entries
    after L ascend. If v is valid, d <= L_w <= k-f-1, since no check reads
    a free entry, so v's entries after k-f-1 ascend.

    A valid block is priced criterion by criterion and dropped as soon as
    its S band alone exceeds the best objective so far. Each optimal block
    becomes f! tours: the non-free jobs in draw order followed by one
    arrangement of the free jobs, put in tour order by one itemgetter per
    block (the free jobs fill the block's free positions in ascending
    order). The tours are reported in lexicographic order, so the set is
    deterministic. Raises ValueError when k exceeds the guard.
    """
    k = inst.k
    if k > limit_k:
        raise ValueError(
            f"instance has k={k} jobs; exhaustive enumeration is limited to k<={limit_k}"
        )
    b = inst.b
    ds = tuple((i, i + b if i <= b else i - b) for i in inst.direct_successors)
    entries = [0] * (k + 1)
    for d in itertools.chain(inst.atomic, inst.disjunctive, ds):
        for job in d:
            entries[job] += 1
    priced = set(range(1, 2 * b + 1)).union(*inst.soft_atomic)
    free = [job for job in range(1, k + 1) if not entries[job] and job not in priced]
    order = sorted(range(1, k + 1), key=lambda job: (-entries[job], job in free))
    at = [0] * (k + 1)  # job -> its entry in a drawn vector
    for n, job in enumerate(order):
        at[job] = n

    # a check (x1, y1, e1, x2, y2, e2) is broken when p[x1] >= p[y1] + e1
    # and p[x2] >= p[y2] + e2; an atomic precedence or a direct successor
    # repeats its one condition
    checks = [(at[i], at[j], 0) * 2 for i, j in inst.atomic]
    checks += [(at[a1], at[b1], 0, at[a2], at[b2], 0)
               for a1, b1, a2, b2 in inst.disjunctive]
    checks += [(at[j], at[i], 2) * 2 for i, j in ds]  # broken: p[j] > p[i] + 1
    # sorted by level, each with the vectors its level-L block holds after
    # the one examined: (k-L-1)! - 1
    checks = [c + (math.factorial(k - 1 - level) - 1,) for level, c in
              sorted((max(c[0], c[1], c[3], c[4]), c) for c in checks)]
    block = math.factorial(len(free))  # the vectors a valid one stands for
    rest = block - 1
    pairs = tuple((at[i], at[i + b]) for i in range(1, b + 1))
    soft = tuple((at[i], at[j]) for i, j in inst.soft_atomic)
    k2 = k * k
    k3 = k2 * k

    enumerated = 0
    valid_count = 0
    best = math.inf
    best_pos: list[tuple[int, ...]] = []

    drawn = itertools.permutations(range(1, k + 1))
    islice = itertools.islice
    for p in drawn:
        enumerated += 1
        for x1, y1, e1, x2, y2, e2, skip in checks:
            if p[x1] >= p[y1] + e1 and p[x2] >= p[y2] + e2:
                if skip:
                    next(islice(drawn, skip, skip), None)
                    enumerated += skip
                break
        else:
            if rest:
                next(islice(drawn, rest, rest), None)
                enumerated += rest
            valid_count += block
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

    # each optimal block's first vector has its free entries ascending, so
    # its inverse is the block's slot order: position x holds entry
    # slots[x-1] of a row, the non-free jobs followed by an arrangement of
    # the free ones
    rows = list(map(tuple(order[:k - len(free)]).__add__, arrangements(free)))
    slots = [0] * k
    tours: list[tuple[int, ...]] = []
    for p in best_pos:
        for n, x in enumerate(p):
            slots[x - 1] = n
        # one index makes an itemgetter return an item; with k < 2 the
        # one row is the tour already
        tours += map(operator.itemgetter(*slots) if k > 1 else tuple, rows)
    tours.sort()
    return OracleResult(
        valid_count=valid_count,
        enumerated=enumerated,
        optimal_objective=best if valid_count else None,
        optimal_solutions=tuple(map(Permutation, tours)),
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
