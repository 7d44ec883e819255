"""Deterministic anytime exact solver.

Depth-first branch-and-bound over prefix extensions of the tour. A search
node is a prefix that breaks no hard constraint so far; children are the
jobs that may legally take the next position. Pruning uses a committed-cost
lower bound: the part of each criterion that every completion of the prefix
must already pay. Its S part includes a floor worked out once per solve: a
pair whose ends a hard chain links through a third job (i -> x -> i+b, or
the reverse) is interrupted in every valid order, so it counts before
either end is placed. Any other pair counts once one end is placed and
its partner cannot come next: the partner is placed later, or still waits
on a hard predecessor other than that end. Its N part starts from a floor
worked out the same way: every valid order violates a soft precedence
against a hard chain, one edge of each soft digon, and one soft edge of
each triangle in a packing of triangles that share no soft edge.
Edge-disjoint cycles bound a minimum feedback arc set from below, which
is what N is on the MAS reduction.

Propagation baked into candidate generation:

* a job is placeable only once all of its hard atomic predecessors are
  placed;
* placing a job must not falsify both sides of any disjunction (a disjunct
  dies the moment its 'after' job is placed while its 'before' job is not);
* when the job just placed carries a direct successor constraint and its
  partner is still open, the partner is the only legal next job.

The per-node work is incremental. ``SearchState.extend_candidates`` prices
every child of a node in one loop: a base bound shared by the children
that close no pair, plus each child's own soft, opening or closing delta.
A child whose bound reaches the incumbent's objective is dropped before
its legality is checked, and no child is placed to be priced. Candidates
come from a ready set of unplaced jobs whose hard predecessors are all
placed, and the open pairs' positions from an ascending list, both kept
by ``place``/``unplace``; the loop prices a partner forced by a direct
successor constraint as any other child. The forced-edge cycle check
searches back, by reachability, only from the disjuncts the last
placement made mandatory, instead of rescanning every atomic edge.

Once an incumbent exists, a dominance rule drops children too: the
adjacent-interchange rule of sequencing branch-and-bound. At a node X·a,
a child c that opens no pair, after an a that closed none, is dropped
when X·c·a does no worse than X·a·c for every completion: no hard chain
a -> c and no disjunct joining a and c, so both orders leave the same
mandatory disjuncts; swapping them commits no more S, M or L (a pair a
opened opens one place later); and the soft edges between them favour
c first, or tie with c < a. That strict order means two prefixes never
drop each other, so an optimum survives. The test reads a static
per-job mask and the positions. Children priced before the first
incumbent are thinned once, when it lands.

Children are tried in a fixed order: a partner forced by a direct
successor constraint alone, else the lowest child bound first, ties
broken by the lower id. The cheapest child leads to a good incumbent
early, and an early incumbent prunes more of the proof. The search is
deterministic for a fixed instance and configuration; wall clock only
decides when a limited run stops, never which branch comes first.
"""

from __future__ import annotations

import operator
import sys
import time
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .costs import CostBreakdown, breakdown
from .model import Instance, Permutation, validate

_TIME_CHECK_MASK = 1023  # timer polled every 1024 children tried


class ResultState(Enum):
    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    UNSATISFIABLE = "unsatisfiable"
    UNSOLVED = "unsolved"
    UNDEFINED = "undefined"  # never produced by a solve; audits of external solutions only


@dataclass(frozen=True)
class SolverConfig:
    """Limits for one solve call."""

    time_limit_ms: int = 300_000
    node_limit: int | None = None

    def __post_init__(self):
        _set_limit(self, "time_limit_ms")
        if self.time_limit_ms <= 0:
            raise ValueError("time_limit_ms must be positive")
        if self.node_limit is not None:
            _set_limit(self, "node_limit")
            if self.node_limit <= 0:
                raise ValueError("node_limit must be positive when given")


def _set_limit(cfg: SolverConfig, name: str):
    """Store the limit ``name`` as the int ``operator.index`` reads: a float
    such as nan or 2.5, or None, is no count a search could stop at."""
    try:
        object.__setattr__(cfg, name, operator.index(getattr(cfg, name)))
    except TypeError as exc:
        raise ValueError(f"{name} must be an integer: {exc}") from None


@dataclass(frozen=True)
class SolveStats:
    """``proven_lower_bound`` is the strongest bound established for the
    whole instance: the optimum on completed runs, None when unsatisfiable,
    and for interrupted runs the weakest open subtree bound, which is at
    least the root floor (the S charge of the separated pairs, and the N
    charge of the forced soft edges, soft digons and packed triangles);
    depth-first search proves little more globally until it exhausts.

    The search counters are deterministic; engines other than the
    branch-and-bound leave them 0. ``children_priced`` counts the children
    given a bound and not then found illegal. Each is one of:
    ``bound_prunes`` (bound at or above the incumbent's objective),
    ``swap_prunes`` (dropped by the swap rule: swapping the child with the
    last job does no worse), ``cycle_prunes`` (placed, then a
    forced-precedence cycle), ``leaves``
    (complete tours, each an improving incumbent), a new node
    (``nodes_expanded`` minus the root), or the one child a node or time
    limit stopped at. ``max_depth`` is the longest prefix expanded or
    completed.
    """

    nodes_expanded: int
    time_ms: int
    proven_lower_bound: int | None
    children_priced: int = 0
    bound_prunes: int = 0
    swap_prunes: int = 0
    cycle_prunes: int = 0
    leaves: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class SolveResult:
    state: ResultState
    best: tuple[Permutation, CostBreakdown] | None
    stats: SolveStats


class SearchState:
    """Incremental prefix state with do/undo placement.

    Tracks, per prefix, the committed part of each criterion:

    * S: pairs already closed with a gap, open pairs (a pair whose placed
      end is last is exempt while its partner may still come next: the
      pair is not separated and the partner waits on no unplaced hard
      predecessor), and separated pairs with no end placed yet (a hard
      chain through a third job keeps their ends apart in every valid
      order);
    * M: the storage load at each placed position is already final, so the
      running maximum is exact on the prefix;
    * L: gaps of closed pairs, and for open pairs the distance from their
      placed end to the current last position;
    * N: soft constraints violated for sure (the 'after' job placed while
      the 'before' job is not, or both placed in the wrong order), plus a
      floor for those not yet decided. Two kinds of soft edges count from
      the root on, and never again: a soft (i, j) against a hard chain
      j -> ... -> i is violated in every valid order, and a digon of soft
      (i, j) and (j, i) exactly once. A greedy packing of triangles, each
      side a soft edge or a hard chain, that share no soft edge with each
      other or with those, adds one violation per live triangle, one whose
      jobs are all unplaced: its first placed job commits its soft in-edge
      from the triangle.

    At a full prefix the committed values equal the exact criteria, so the
    bound of a leaf is its objective. ``extend_candidates`` prices every
    child in one loop from these values without placing anything.

    ``swap[a]`` is a static bitset per job a of the jobs c for which
    X·c·a does no worse than X·a·c, whenever c opens no pair and a closed
    none: no hard chain a -> c, no disjunct joining a and c, and a soft
    c -> a without a soft a -> c, or the soft edges the same both ways and
    c < a. It is built once from ``chain_reach`` and one pass over the
    soft and disjunctive constraints; an instance with a hard cycle gets
    none.

    The positions are the only record of what a placement decided. A
    disjunct holds once its 'before' job is placed first, dies once its
    'after' job is placed first, is undecided while both are unplaced,
    and is mandatory once its alternative died, all read off ``pos``. The
    undo stack keeps just the four committed totals before each placement;
    ``unplace`` finds the rest from the positions, since placements undo
    last in, first out.

    ``place``/``unplace`` keep, alongside:

    * ``open_list``, the positions of the placed ends of open pairs in
      ascending order: its first entry sets the open pairs' L stretch, its
      last one is the most recently opened pair;
    * per job, ``waiting``, the number of its hard predecessors still
      unplaced, and the ready set, the unplaced jobs with none, so
      candidate generation never scans all k jobs;
    * per job, the N that placing it next commits: its soft predecessors
      still unplaced, except those counted from the root, less the live
      triangles through it, which die with its placement. For a ready job
      this is never negative: each live triangle through it enters it by
      a distinct soft edge from an unplaced job (a hard chain into it
      starts at a placed job).

    ``forced_cycle`` relies on an invariant of the search: over the
    unplaced jobs, atomic edges plus the disjuncts made mandatory before
    the last placement form an acyclic graph (``acyclic`` covers
    the atomic edges, earlier checks the disjuncts, and placing a job only
    removes edges). It therefore holds for states reached by search, not
    for an arbitrary replay of placements.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        k = inst.k
        b = inst.b
        self.k = k
        self.b = b
        self.pos = [0] * (k + 1)  # entry 0 stays 0: the partner of a one-sided job
        self.prefix: list[int] = []
        # per job: its pair (numbered by the lower end) and the pair's other
        # end; 0 for one-sided jobs
        ends = range(1, 2 * b + 1)
        self.pair_of = [0] + [c if c <= b else c - b for c in ends] + [0] * (k - 2 * b)
        self.partner = [0] + [c + b if c <= b else c - b for c in ends] + [0] * (k - 2 * b)
        # above every bound: S, M <= b and L < k, so the objective is below
        # k^4 + k^3 + k^2 + the number of soft constraints
        self.unbounded = (k + 1) ** 4 + len(inst.soft_atomic)

        self.preds = preds = [[] for _ in range(k + 1)]
        self.succs = succs = [[] for _ in range(k + 1)]
        for i, j in inst.atomic:
            preds[j].append(i)
            succs[i].append(j)
        self.waiting = waiting = list(map(len, preds))  # hard predecessors unplaced
        self.ready = {c for c in range(1, k + 1) if not waiting[c]}
        direct = set(inst.direct_successors)
        self.direct = [i in direct for i in range(k + 1)]

        # per pair, indexed by its lower end: 1 when a hard chain runs
        # through a third job between its ends, so they are never adjacent.
        # A hard cycle leaves no valid order: ``solve`` stops on ``acyclic``
        # before the search, and the floors are built over empty reach.
        reaches = chain_reach(succs, waiting)
        self.acyclic = reaches is not None
        reach, deep = reaches or ([0] * (k + 1), [0] * (k + 1))
        # the swap masks (see the class docstring): c < a and no hard chain
        # a -> c; below, a lone soft edge between a and c moves the bit, and
        # a disjunct joining them clears it
        swap = [0] + [(1 << a) - 2 & ~reach[a] for a in range(1, k + 1)]
        self.separated = [0] + [
            (deep[p] >> (p + b) | deep[p + b] >> p) & 1 for p in range(1, b + 1)
        ]
        self.sep_unplaced = sum(self.separated)  # separated pairs, no end placed
        # per job c: how many hard predecessors its partner w may still
        # wait on when c opens the pair, for w to follow c directly: 1 when
        # c is one of them, else 0. A child that opens its pair with w
        # waiting on more leaves the pair interrupted in every completion.
        # k, no charge, for the ends of separated pairs, which S counts from
        # the root; one-sided jobs have w = 0, which waits on nothing.
        self.may_wait = may_wait = [0] * (k + 1)
        for p in range(1, b + 1):
            for c, w in ((p, p + b), (p + b, p)):
                may_wait[c] = k if self.separated[p] else int(w in succs[c])

        # soft edges that every valid order violates a fixed number of times
        # count from the root on: one against a hard chain (j -> ... -> i
        # for a soft (i, j)) always, and a digon of soft (i, j) and (j, i)
        # once. The rest are counted as they fall.
        soft_after_of: list[list[int]] = [[] for _ in range(k + 1)]
        soft_pending = [0] * (k + 1)
        free = [0] * (k + 1)  # per job: bitset of its soft successors left unpacked
        n_floor = 0
        for i, j in inst.soft_atomic:
            if reach[j] >> i & 1:
                n_floor += 1
            else:
                free[i] |= 1 << j
        for i, j in inst.soft_atomic:
            if free[i] >> j & 1:
                if free[j] >> i & 1:
                    free[i] ^= 1 << j
                    free[j] ^= 1 << i
                    n_floor += 1
                else:
                    soft_after_of[i].append(j)
                    soft_pending[j] += 1
                    if j < i:
                        swap[j] |= 1 << i
                        swap[i] &= ~(1 << j)

        # a greedy packing of triangles that share no soft edge: each closes
        # a soft edge (i, j) by a job w with j -> w -> i, each side a soft
        # edge left unpacked or a hard chain. Per job, the other two jobs
        # of each triangle through it.
        triangles_of: list[list[tuple[int, int]]] = [[] for _ in range(k + 1)]
        for i, j in inst.soft_atomic:
            if free[i] >> j & 1:
                for w in succs[j] + soft_after_of[j]:
                    if (reach[j] | free[j]) >> w & (reach[w] | free[w]) >> i & 1:
                        free[i] ^= 1 << j
                        free[j] &= ~(1 << w)
                        free[w] &= ~(1 << i)
                        triangles_of[i].append((j, w))
                        triangles_of[j].append((w, i))
                        triangles_of[w].append((i, j))
                        soft_pending[i] -= 1
                        soft_pending[j] -= 1
                        soft_pending[w] -= 1
                        n_floor += 1
                        break
        self.soft_after_of = soft_after_of
        self.soft_pending = soft_pending  # per job: the N placing it commits
        self.triangles_of = triangles_of

        # per job c: each disjunct (before, c) it ends, with the other
        # disjunct (oa, oc) of its disjunction
        by_after: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        for a, c, oa, oc in inst.disjunctive:
            by_after[c].append((a, oa, oc))
            by_after[oc].append((oa, a, c))
            swap[a] &= ~(1 << c)
            swap[c] &= ~(1 << a)
            swap[oa] &= ~(1 << oc)
            swap[oc] &= ~(1 << oa)
        self.by_after = by_after
        # without a reach there is no ruling out a hard chain a -> c
        self.swap = swap if self.acyclic else [0] * (k + 1)
        # per job, all that place/unplace read of it in one tuple: partner,
        # soft successors, triangles, hard successors and disjuncts it ends
        self.links = list(zip(self.partner, soft_after_of, triangles_of, succs, by_after))

        self.open_list: list[int] = []  # placed-end positions of open pairs, ascending
        self.closed_s = self.closed_l = self.m_committed = 0
        self.n_committed = n_floor
        self._undo: list[tuple] = []  # per placement: the committed S, L, M, N before it
        # children extend_candidates dropped for a bound at or above the
        # cutoff, and by the swap rule
        self.bound_drops = self.swap_drops = 0

    # -- placement ---------------------------------------------------------

    def place(self, c: int) -> bool:
        """Put c next; True as soon as it finds that c kills a disjunct
        whose alternative becomes mandatory: the killed disjunct's 'before'
        job and both jobs of the alternative are all unplaced."""
        other_end, soft_after, triangles, succs, by_after = self.links[c]
        pos = self.pos
        prefix = self.prefix
        t1 = len(prefix) + 1
        open_list = self.open_list
        spans_here = len(open_list)  # pairs open across c's position
        self._undo.append((self.closed_s, self.closed_l, self.m_committed, self.n_committed))
        q = pos[other_end]  # c closes the pair opened at q; 0: it does not
        if q:
            open_list.remove(q)
            spans_here -= 1
            if t1 - q > 1:
                self.closed_s += 1
            if t1 - q - 1 > self.closed_l:
                self.closed_l = t1 - q - 1
        elif other_end:
            open_list.append(t1)
            self.sep_unplaced -= self.separated[self.pair_of[c]]
        if spans_here > self.m_committed:
            self.m_committed = spans_here
        soft_pending = self.soft_pending
        self.n_committed += soft_pending[c]
        for s in soft_after:
            soft_pending[s] -= 1
        for u, w in triangles:
            if not (pos[u] or pos[w]):  # a live triangle dies with c's placement
                soft_pending[u] += 1
                soft_pending[w] += 1

        pos[c] = t1
        prefix.append(c)
        ready = self.ready
        ready.discard(c)
        waiting = self.waiting
        for s in succs:
            waiting[s] -= 1
            if not (waiting[s] or pos[s]):
                ready.add(s)

        for before, oa, oc in by_after:
            if not (pos[before] or pos[oa] or pos[oc]):
                return True
        return False

    def unplace(self):
        """Take back the last placement. Placements undo last in, first
        out, so every other job sits where it was when c was placed."""
        c = self.prefix.pop()
        other_end, soft_after, triangles, succs, _ = self.links[c]
        pos = self.pos
        ready = self.ready
        waiting = self.waiting
        for s in succs:
            if not waiting[s]:
                ready.discard(s)
            waiting[s] += 1
        if not waiting[c]:
            ready.add(c)
        pos[c] = 0
        soft_pending = self.soft_pending
        for s in soft_after:
            soft_pending[s] += 1
        for u, w in triangles:
            if not (pos[u] or pos[w]):
                soft_pending[u] -= 1
                soft_pending[w] -= 1
        self.closed_s, self.closed_l, self.m_committed, self.n_committed = self._undo.pop()
        q = pos[other_end]
        if q:
            insort(self.open_list, q)
        elif other_end:
            self.open_list.pop()
            self.sep_unplaced += self.separated[self.pair_of[c]]

    def forced_cycle(self) -> bool:
        """True when mandatory precedences over the unplaced jobs conflict.

        Atomic edges plus the mandatory disjuncts, restricted to unplaced
        jobs; a cycle there means no completion of this prefix can be
        valid. Called after placements that made a disjunct mandatory.

        By the invariant in the class docstring, a new cycle must run
        through a disjunct (a, b) that the last placement made mandatory,
        and it exists exactly when a is reachable from b over unplaced
        jobs. ``place``'s test finds those disjuncts again among the ones
        the last job ends. Each gets one depth-first search back from a
        for b, over each job's hard predecessors and the disjuncts into it
        (``by_after``) whose alternative died.
        """
        if not self.prefix:
            return False
        pos = self.pos
        preds = self.preds
        by_after = self.by_after
        for before, a, b in by_after[self.prefix[-1]]:
            if pos[before] or pos[a] or pos[b]:
                continue
            seen = {a}
            stack = [a]
            while stack:
                v = stack.pop()
                for w in preds[v]:
                    if not pos[w] and w not in seen:
                        if w == b:
                            return True
                        seen.add(w)
                        stack.append(w)
                # then the disjuncts into v whose alternative died
                for w, oa, oc in by_after[v]:
                    if pos[oc] and not 0 < pos[oa] < pos[oc] and not pos[w] and w not in seen:
                        if w == b:
                            return True
                        seen.add(w)
                        stack.append(w)
        return False

    # -- candidate generation and pricing ----------------------------------

    def extend_candidates(self, cutoff: int | None = None) -> list[tuple[int, int]]:
        """Legal next jobs whose bound is below ``cutoff``, strongest branch
        first, each as (``lower_bound()`` after placing it, job); empty at
        leaves and dead ends. ``cutoff`` None keeps every legal job.

        Order: a partner forced by a direct successor constraint, the only
        legal child; else the lower child bound first, which finds a good
        incumbent early, ties by the lower id.

        One loop prices every child. The base bound is that of a child
        that closes no pair: after it every open pair counts in S (a pair
        the child opens is exempt while the child is last, and a separated
        one only moves from the unplaced to the open pairs), the storage
        load at its position is the open pair count, and the oldest open
        pair stretches L. Such a child adds its ``soft_pending`` entry,
        which is never negative for a ready job, and k^3 when it opens a
        pair that is not separated while its partner still waits on an
        unplaced hard predecessor other than the child: the partner cannot
        come next, so that pair is interrupted in every completion. A child
        that closes a pair may lower the base: S when the pair was opened
        by the last job (adjacent ends), M when the open pairs set the
        load, L when it closes the oldest pair. A child at or above
        ``cutoff`` is dropped before its legality is checked. A forced
        partner is the one child, and is dropped after the bound and swap
        tests while it still waits on a hard predecessor.

        A ``cutoff`` below ``unbounded`` stands for an incumbent, and then
        the swap rule drops a child c below it, also before legality, when
        the last job a closed no pair (its partner is unplaced, or it is
        one-sided), c opens none (its partner is placed, or it is
        one-sided) and bit c of ``swap[a]`` is set. Such a P = X·a·c has a
        P' = X·c·a that commits the same mandatory disjuncts, no more S, M
        or L, and N lower by [soft c -> a] - [soft a -> c], with ties
        going to the lower id. Without an incumbent the rule waits, and
        ``drop_dominated`` applies it once one lands.

        A ready job c is illegal when it kills a disjunct (before, c),
        'before' unplaced, whose alternative (oa, oc) is dead or dies with
        it: oc is placed or is c, and oa was not placed before oc.
        """
        prefix = self.prefix
        t = len(prefix)
        k = self.k
        if t == k:
            return []
        if cutoff is None:
            cutoff = self.unbounded
        pos = self.pos
        partner = self.partner
        soft = self.soft_pending
        open_list = self.open_list
        n_open = len(open_list)
        t1 = t + 1
        k2 = k * k
        m = self.m_committed
        l = self.closed_l
        if n_open:
            lowest = open_list[0]
            if n_open > m:
                m = n_open
            if t1 - lowest > l:
                l = t1 - lowest
        s = self.closed_s + self.sep_unplaced + n_open
        base = k * (k * (k * s + m) + l) + self.n_committed
        k3 = k2 * k
        if n_open:
            close = base - k2 if n_open > self.m_committed else base
            # closing the oldest pair shortens its stretch by one
            close_low = close - k if t1 - lowest > self.closed_l else close
        children = self.ready
        swap = 0  # the jobs c with X·c·a no worse than X·a·c, a the last job
        if t:
            a = prefix[-1]
            p = partner[a]
            if not pos[p]:  # a closed no pair
                if cutoff < self.unbounded:  # an incumbent exists
                    swap = self.swap[a]
                if self.direct[a]:  # a opened this pair: p must come next
                    children = (p,)

        by_after = self.by_after
        waiting = self.waiting
        may_wait = self.may_wait
        drops = 0
        priced = []  # bound, c
        for c in children:
            w = partner[c]
            q = pos[w]
            if q:
                bound = close_low if q == lowest else close
                if q == t:
                    bound -= k3
                bound += soft[c]
            else:
                bound = base + soft[c]
                if waiting[w] > may_wait[c]:  # w cannot follow c
                    bound += k3
            if bound >= cutoff:
                drops += 1
            elif swap >> c & 1 and (q or not w):  # c opens no pair
                self.swap_drops += 1
            elif not waiting[c]:  # a forced partner may still wait on a hard predecessor
                for before, oa, oc in by_after[c]:
                    if not pos[before] and (pos[oc] or oc == c) and (
                            not pos[oa] or pos[oc] and pos[oc] < pos[oa]):
                        break  # placing c kills this disjunction
                else:
                    priced.append((bound, c))
        if drops:
            self.bound_drops += drops
        priced.sort()
        return priced

    def drop_dominated(self, frames: list[tuple]) -> None:
        """Apply the swap rule of ``extend_candidates`` to children priced
        before an incumbent existed, as if it had.

        ``frames[d]`` is (bound, iterator over the (bound, job) children
        still waiting) of the node at the prefix's first d jobs. Each
        iterator the rule thins is replaced by one over the children it
        keeps there; the drops count in ``swap_drops``.
        """
        pos = self.pos
        partner = self.partner
        prefix = self.prefix
        for depth in range(1, len(frames)):
            a = prefix[depth - 1]
            swap = self.swap[a]
            if swap and not 0 < pos[partner[a]] < depth:  # a closed no pair
                bound, children = frames[depth]
                children = list(children)
                kept = [(cb, c) for cb, c in children if not (
                    swap >> c & 1 and (0 < pos[partner[c]] <= depth or not partner[c]))]
                self.swap_drops += len(children) - len(kept)
                frames[depth] = (bound, iter(kept))

    # -- bounding ------------------------------------------------------------

    def lower_bound(self) -> int:
        """Objective that every valid completion of this prefix must reach.

        S counts closed pairs with a gap, open pairs, and separated pairs
        with no end placed yet. The last job's open pair is exempt only
        while its partner may still come next: the pair is not separated,
        and the partner waits on no unplaced hard predecessor. N counts
        the soft edges violated so far, the forced ones from the root on,
        and one future violation per live packed triangle.
        """
        t = len(self.prefix)
        open_list = self.open_list
        s_c = self.closed_s + len(open_list) + self.sep_unplaced
        l_c = self.closed_l
        if open_list:
            # the last job opened a pair exactly when it sits at the newest
            # open position
            if open_list[-1] == t:
                last = self.prefix[-1]
                if not (self.separated[self.pair_of[last]] or self.waiting[self.partner[last]]):
                    s_c -= 1  # the last job's pair can still close adjacently
            if t - open_list[0] > l_c:
                l_c = t - open_list[0]
        k = self.k
        return k * (k * (k * s_c + self.m_committed) + l_c) + self.n_committed


def chain_reach(succs: Sequence[Sequence[int]],
                indeg: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """Per job v, the jobs at the end of a path from v: ``(reach, deep)``,
    or None when the graph has a cycle.

    ``succs[v]`` lists the heads of v's edges and ``indeg[v]`` counts the
    edges into v, for jobs 1..k (index 0 unused, as in ``SearchState``).
    Entries are bitsets over jobs 1..k. Bit w of ``reach[v]`` is set when
    some path v -> ... -> w of one or more edges exists, so every order
    that keeps the edges puts v before w. Bit w of ``deep[v]`` is set when
    some such path has two or more edges, v -> x -> ... -> w, so such an
    order also puts a third job x between them. Built over a topological
    order, found by a Kahn stack and walked backwards, so ``reach[w]`` (the
    jobs strictly after w) is complete before any predecessor of w is
    visited. A graph with a cycle has no such order, and an instance with
    a hard cycle has no valid order.
    """
    n = len(indeg)
    waiting = list(indeg)  # per job: its predecessors not yet in the order
    stack = [v for v in range(1, n) if not waiting[v]]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in succs[v]:
            waiting[w] -= 1
            if not waiting[w]:
                stack.append(w)
    if len(order) < n - 1:
        return None
    reach = [0] * n
    deep = [0] * n
    for v in reversed(order):
        d = r = 0
        for w in succs[v]:
            d |= reach[w]
            r |= 1 << w
        deep[v] = d
        reach[v] = r | d
    return reach, deep


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact anytime solve; limits yield SUBOPTIMAL/UNSOLVED, never errors.

    UNSATISFIABLE is reported only after the whole tree is exhausted, or
    up front when the hard precedences have no topological order.
    ``stats.nodes_expanded`` counts states whose candidate list was
    generated.
    """
    if cfg is None:
        cfg = SolverConfig()
    start = time.monotonic()
    deadline = start + cfg.time_limit_ms / 1000.0

    def elapsed_ms() -> int:
        return int((time.monotonic() - start) * 1000)

    k = inst.k
    if k == 0:
        perm = Permutation(())
        return SolveResult(
            ResultState.OPTIMAL,
            (perm, breakdown(inst, perm)),
            SolveStats(1, elapsed_ms(), 0),
        )

    state = SearchState(inst)
    if not state.acyclic:  # a hard precedence cycle
        return SolveResult(
            ResultState.UNSATISFIABLE, None, SolveStats(0, elapsed_ms(), None)
        )
    best_tour: tuple[int, ...] | None = None
    best_bd: CostBreakdown | None = None
    cutoff = state.unbounded  # the incumbent's objective once there is one
    # bound once here, after any wrapper on the class is in place
    place, unplace, extend = state.place, state.unplace, state.extend_candidates
    prefix = state.prefix
    node_limit = cfg.node_limit or sys.maxsize
    # frame: (node bound, iterator over its [(bound, child), ...]); the
    # deepest frame's iterator is also kept in ``children``
    children = iter(extend(cutoff))
    frames: list[tuple] = [(state.lower_bound(), children)]
    nodes = 1
    tried = 0
    loop_prunes = cycle_prunes = leaves = max_depth = 0
    interrupted = False

    while True:
        child = next(children, None)
        if child is None:
            frames.pop()
            if not frames:
                break
            unplace()
            children = frames[-1][1]
            continue
        clb, c = child

        tried += 1
        if tried & _TIME_CHECK_MASK == 0 and time.monotonic() > deadline:
            interrupted = True
            break

        # the incumbent may have improved since this node was priced
        if clb >= cutoff:
            loop_prunes += 1
            continue
        if place(c) and state.forced_cycle():
            cycle_prunes += 1
            unplace()
            continue
        depth = len(prefix)
        if depth == k:
            leaves += 1
            max_depth = k
            perm = Permutation(tuple(prefix))
            bd = breakdown(inst, perm)
            if bd.objective != clb:
                raise AssertionError("committed cost disagrees with recomputation")
            if validate(inst, perm):
                raise AssertionError("propagation admitted an invalid leaf")
            if best_bd is None:
                state.drop_dominated(frames)  # the swap rule waited for an incumbent
                children = frames[-1][1]
            # only children below the incumbent are tried: every leaf improves
            best_tour, best_bd = perm.tour, bd
            cutoff = bd.objective
            unplace()
            continue
        if nodes >= node_limit:
            interrupted = True
            break
        priced = extend(cutoff)
        nodes += 1
        if depth > max_depth:
            max_depth = depth
        if priced:
            children = iter(priced)
            frames.append((clb, children))
        else:  # a dead end: back up at once
            unplace()

    drops = state.bound_drops
    swaps = state.swap_drops

    def stats(proven: int | None) -> SolveStats:
        return SolveStats(nodes, elapsed_ms(), proven, tried + drops + swaps,
                          loop_prunes + drops, swaps, cycle_prunes, leaves, max_depth)

    if interrupted:
        open_lbs = [f[0] for f in frames]
        if best_bd is not None:
            proven = min(open_lbs + [best_bd.objective])
            return SolveResult(ResultState.SUBOPTIMAL, (Permutation(best_tour), best_bd),
                               stats(proven))
        return SolveResult(ResultState.UNSOLVED, None, stats(min(open_lbs) if open_lbs else 0))
    if best_bd is not None:
        return SolveResult(ResultState.OPTIMAL, (Permutation(best_tour), best_bd),
                           stats(best_bd.objective))
    return SolveResult(ResultState.UNSATISFIABLE, None, stats(None))
