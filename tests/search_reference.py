"""The solver's search state as it was before one-pass pricing, verbatim.

``ReferenceSearchState`` is ``ctwkit.solver.SearchState`` from before
``extend_candidates`` priced the children itself: it returns the legal
jobs in branch order, and ``child_bound(c)`` prices one child at a time.
The tests walk it in lockstep with the solver's state and require the
same jobs, order and bounds. ``FloorlessReferenceState`` is the bound from
before the separated-pair floor, on the same state. Two things changed
since, both outside the bound: the branch order is the lower
``child_bound`` first, ties by the lower id (it was the unplaced end of
the newest open pair first, then the most unplaced hard successors, ties
by id alone), and ``chain_reach`` takes successor lists and in-degrees,
returns the full hard reach, which the reference ORs over each job's hard
successors for the chains through a third job, and returns None on a cycle.

Neither reference has the root presolve, the soft-cycle N floor, the S
charge for a pair opened while its partner cannot come next (it waits on
a hard predecessor, or would kill a disjunction), or the swap rule
(X·a·c dropped where X·c·a does no worse). ``presolved`` builds the rows
the solver's state works from into an ``Instance``; on it the presolve
finds nothing more, so the references run on it. The tests hold them to
the solver's own state with the rest set to zero: ``SwaplessSearchState``
without the swap rule, ``ChargelessSearchState`` without the charge as
well, ``NFloorlessSearchState`` without the N floor on top,
``FloorlessSearchState`` without the separated-pair floor on top of that.
``replay`` builds any of these states from a prefix.
``id_tie_order`` gives any of them a branch order that ignores the bound,
so two bounds can be compared on one order. ``RankFirstSearchState`` is
the solver's state with the branch order from before the bound led it.

``legal`` is the solver's legality test from before ``extend_candidates``
ran it inline. ``scan_candidates`` finds the children of a node by
testing every unplaced job. ``mandatory_disjuncts`` reads the disjuncts a prefix made
mandatory off the positions alone. ``swap_probe`` is the swap rule's
reference: it replays X·c·a next to X·a·c and compares what they
committed.
``check_swaps_in_lockstep`` holds every child the solver drops by the
rule to it.
"""

from __future__ import annotations

from typing import Sequence

from ctwkit.model import Instance
from ctwkit.solver import SearchState, chain_reach


def presolved(inst: Instance) -> Instance:
    """The instance ``SearchState(inst)`` searches: its hard edges, soft
    edges and disjunctions after the root presolve, and the same direct
    successor constraints. ``inst`` itself when the state finds no valid
    order, which the presolve does not finish."""
    st = SearchState(inst)
    if not st.acyclic:
        return inst
    return Instance(k=inst.k, b=inst.b,
                    atomic=[(u, v) for u in range(1, inst.k + 1) for v in st.succs[u]],
                    soft_atomic=st.soft_atomic, disjunctive=st.disjunctive,
                    direct_successors=inst.direct_successors)


class SwaplessSearchState(SearchState):
    """The solver's state without the swap rule: no job's mask lets a
    child go, with or without an incumbent."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.swap = [0] * (inst.k + 1)


class ChargelessSearchState(SwaplessSearchState):
    """The solver's state without the swap rule and the S charge for a
    pair whose partner cannot come next.

    A pair that a child opens is exempt from S while the child is last
    unless it is separated, whether or not its partner still waits on an
    unplaced hard predecessor or would kill a disjunction: ``may_wait``
    lets every partner wait on up to k, which also turns off the
    disjunction test and the drop of a direct successor end whose partner
    cannot follow, and ``lower_bound`` is the solver's from before the
    charge, verbatim.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.may_wait = [inst.k] * (inst.k + 1)

    def lower_bound(self) -> int:
        """Objective that every valid completion of this prefix must reach.

        S counts closed pairs with a gap, open pairs, and separated pairs
        with no end placed yet. The last job's open pair is exempt only
        when it is not separated: its partner may still come next. N counts
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
            if open_list[-1] == t and not self.separated[self.prefix[-1]]:
                s_c -= 1  # the last job's pair can still close adjacently
            if t - open_list[0] > l_c:
                l_c = t - open_list[0]
        k = self.k
        return k * (k * (k * s_c + self.m_committed) + l_c) + self.n_committed


class NFloorlessSearchState(ChargelessSearchState):
    """The solver's state with the S charge and the soft-cycle N floor set
    to zero.

    N counts only the soft edges violated so far: every soft edge is
    counted as it falls, and no triangle is packed. The bound of
    ``ReferenceSearchState``, priced through the solver's one-pass
    ``extend_candidates``.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        # refilled in place: ``place``/``unplace`` read these per-job lists
        # through the tuples in ``links``
        for after, through in zip(self.soft_after_of, self.triangles_of):
            after.clear()
            through.clear()
        self.soft_pending = [0] * (inst.k + 1)
        for i, j in inst.soft_atomic:
            self.soft_after_of[i].append(j)
            self.soft_pending[j] += 1
        self.n_committed = 0


class FloorlessSearchState(NFloorlessSearchState):
    """The solver's state with the charge and both floors set to zero.

    No pair counts as separated either, so S counts closed pairs with a
    gap and open pairs, and exempts the last job's open pair whether or
    not a hard chain separates it: the bound of
    ``FloorlessReferenceState``.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.separated = [0] * (inst.k + 1)
        self.sep_unplaced = 0


def fresh_end(st: SearchState) -> int:
    """The unplaced end of the most recently opened pair; 0 when no pair
    is open."""
    return st.partner[st.prefix[st.open_list[-1] - 1]] if st.open_list else 0


class RankFirstSearchState(SearchState):
    """The solver's state with the branch order from before the child
    bound led it: the unplaced end of the most recently opened pair first,
    then the jobs with the most hard successors, ties by the lower child
    bound, then the lower id. The same bounds, pruning and swap rule; the
    children are re-sorted after pricing. ``drop_dominated`` only filters
    the lists, so ``solve`` over this state is the earlier search.
    """

    def extend_candidates(self, cutoff: int | None = None) -> list[tuple[int, int]]:
        fresh = fresh_end(self)
        succs = self.succs
        return sorted(super().extend_candidates(cutoff),
                      key=lambda bc: (bc[1] != fresh, -len(succs[bc[1]]), bc))


def id_tie_order(cls):
    """``cls`` with its children re-sorted by a key that ignores their
    bounds: the unplaced end of the most recently opened pair first, then
    the most hard successors, then the lower id, as before the bound took
    part in the order. The order then does not depend on the bound at
    all, so two bounds can be compared on it.
    """

    class IdTie(cls):
        def extend_candidates(self, cutoff=None):
            fresh = fresh_end(self)
            succs = self.succs
            return sorted(super().extend_candidates(cutoff),
                          key=lambda bc: (bc[1] != fresh, -len(succs[bc[1]]), bc[1]))

    IdTie.__name__ = IdTie.__qualname__ = f"IdTie{cls.__name__}"
    return IdTie


def replay(cls, inst: Instance, prefix: Sequence[int]):
    """A ``cls(inst)`` state with ``prefix`` placed in order, legal or not."""
    st = cls(inst)
    for job in prefix:
        st.place(job)
    return st


class ReferenceSearchState:
    """Incremental prefix state with do/undo placement.

    Tracks, per prefix, the committed part of each criterion:

    * S: pairs already closed with a gap, open pairs (a pair whose placed
      end is last is exempt unless it is separated: its partner may still
      come next), and separated pairs with no end placed yet (a hard chain
      through a third job keeps their ends apart in every valid order);
    * M: the storage load at each placed position is already final, so the
      running maximum is exact on the prefix;
    * L: gaps of closed pairs, and for open pairs the distance from their
      placed end to the current last position;
    * N: soft constraints violated for sure (the 'after' job placed while
      the 'before' job is not, or both placed in the wrong order).

    At a full prefix the committed values equal the exact criteria, so the
    bound of a leaf is its objective. ``child_bound(c)`` gives the bound
    the prefix would have after ``place(c)`` without placing anything; it
    reads the two smallest open-pair positions from a cache that
    ``place``/``unplace`` clear.

    Alongside, each placement keeps the ready set (unplaced jobs whose
    hard predecessors are all placed), so candidate generation never
    scans all k jobs.

    ``forced_cycle`` relies on an invariant of the search: over the
    unplaced jobs, atomic edges plus the disjunction survivors forced
    before the last placement form an acyclic graph (the precheck covers
    the atomic edges, earlier checks the survivors, and placing a job only
    removes edges). It therefore holds for states reached by search, not
    for an arbitrary ``replay``.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        k = inst.k
        b = inst.b
        self.k = k
        self.b = b
        self.two_sided = 2 * b
        self.pos = [0] * (k + 1)
        self.prefix: list[int] = []

        preds: list[list[int]] = [[] for _ in range(k + 1)]
        succs: list[list[int]] = [[] for _ in range(k + 1)]
        for i, j in inst.atomic:
            preds[j].append(i)
            succs[i].append(j)
        self.npreds = [len(p) for p in preds]
        self.succs = succs
        self.pred_placed = [0] * (k + 1)
        # unplaced jobs whose hard predecessors are all placed
        self.ready = {c for c in range(1, k + 1) if not preds[c]}

        self.ds = frozenset(inst.direct_successors)

        self.disjuncts = [(d[:2], d[2:]) for d in inst.disjunctive]
        self.dstate = [[0, 0] for _ in inst.disjunctive]  # 0 open, 1 true, -1 false
        by_before: list[list[tuple[int, int]]] = [[] for _ in range(k + 1)]
        by_after: list[list[tuple[int, int]]] = [[] for _ in range(k + 1)]
        for idx, (d1, d2) in enumerate(self.disjuncts):
            for slot, (a, c) in enumerate((d1, d2)):
                by_before[a].append((idx, slot))
                by_after[c].append((idx, slot))
        self.by_before = by_before
        self.by_after = by_after

        soft_before_of: list[list[int]] = [[] for _ in range(k + 1)]
        for i, j in inst.soft_atomic:
            soft_before_of[j].append(i)
        self.soft_before_of = soft_before_of

        reach = chain_reach(succs, self.npreds) or [0] * (k + 1)
        deep = [0] * (k + 1)  # per job: the jobs a chain of two or more edges reaches
        for v in range(1, k + 1):
            for x in succs[v]:
                deep[v] |= reach[x]
        # per pair, indexed by its lower end: 1 when a hard chain runs
        # through a third job between its ends, so they are never adjacent
        self.separated = [0] + [
            (deep[p] >> (p + b) | deep[p + b] >> p) & 1 for p in range(1, b + 1)
        ]
        self.sep_unplaced = sum(self.separated)  # separated pairs, no end placed

        self.open_pos: dict[int, int] = {}  # pair start -> position of its placed end
        self.closed_s = 0
        self.closed_l = 0
        self.m_committed = 0
        self.n_committed = 0
        # disjuncts whose alternative died: now mandatory precedences, both
        # endpoints unplaced at creation time; forced_out indexes them by
        # their 'before' job
        self.forced: list[tuple[int, int]] = []
        self.forced_out: list[list[int]] = [[] for _ in range(k + 1)]
        self._undo: list[tuple] = []
        self._open_mins: list[int] | None = None  # two smallest open_pos values

    # -- placement ---------------------------------------------------------

    def place(self, c: int):
        t1 = len(self.prefix) + 1
        open_before = len(self.open_pos)
        closed_rec = None
        opened = 0
        prev_s, prev_l, prev_m = self.closed_s, self.closed_l, self.m_committed
        if c <= self.two_sided:
            pair = c if c <= self.b else c - self.b
            if pair in self.open_pos:
                q = self.open_pos.pop(pair)
                closed_rec = (pair, q)
                gap = t1 - q
                if gap > 1:
                    self.closed_s += 1
                if gap - 1 > self.closed_l:
                    self.closed_l = gap - 1
            else:
                self.open_pos[pair] = t1
                opened = pair
                self.sep_unplaced -= self.separated[pair]
        spans_here = open_before - (1 if closed_rec else 0)
        if spans_here > self.m_committed:
            self.m_committed = spans_here

        n_delta = 0
        for i in self.soft_before_of[c]:
            if self.pos[i] == 0:
                n_delta += 1
        self.n_committed += n_delta

        pos = self.pos
        pos[c] = t1
        self.prefix.append(c)
        self._open_mins = None
        ready = self.ready
        ready.discard(c)
        pred_placed = self.pred_placed
        npreds = self.npreds
        for s in self.succs[c]:
            pred_placed[s] += 1
            if pred_placed[s] == npreds[s] and pos[s] == 0:
                ready.add(s)

        transitions = []
        forced_added = 0
        for idx, slot in self.by_before[c]:
            st = self.dstate[idx]
            if st[slot] == 0 and self.pos[self.disjuncts[idx][slot][1]] == 0:
                st[slot] = 1
                transitions.append((idx, slot))
        for idx, slot in self.by_after[c]:
            st = self.dstate[idx]
            if st[slot] == 0 and self.pos[self.disjuncts[idx][slot][0]] == 0:
                st[slot] = -1
                transitions.append((idx, slot))
                if st[1 - slot] == 0:  # the survivor is now mandatory
                    a, b = self.disjuncts[idx][1 - slot]
                    self.forced.append((a, b))
                    self.forced_out[a].append(b)
                    forced_added += 1

        self._undo.append(
            (c, prev_s, prev_l, prev_m, n_delta, opened, closed_rec, transitions,
             forced_added)
        )
        return forced_added

    def unplace(self):
        (c, prev_s, prev_l, prev_m, n_delta, opened, closed_rec, transitions,
         forced_added) = self._undo.pop()
        if forced_added:
            for a, _ in self.forced[-forced_added:]:
                self.forced_out[a].pop()
            del self.forced[-forced_added:]
        for idx, slot in transitions:
            self.dstate[idx][slot] = 0
        ready = self.ready
        pred_placed = self.pred_placed
        npreds = self.npreds
        for s in self.succs[c]:
            if pred_placed[s] == npreds[s]:
                ready.discard(s)
            pred_placed[s] -= 1
        if pred_placed[c] == npreds[c]:
            ready.add(c)
        self.prefix.pop()
        self.pos[c] = 0
        self._open_mins = None
        self.n_committed -= n_delta
        self.closed_s, self.closed_l, self.m_committed = prev_s, prev_l, prev_m
        if closed_rec is not None:
            pair, q = closed_rec
            self.open_pos[pair] = q
        elif opened:
            del self.open_pos[opened]
            self.sep_unplaced += self.separated[opened]

    def forced_cycle(self) -> bool:
        """True when mandatory precedences over the unplaced jobs conflict.

        Atomic edges plus disjunction survivors, restricted to unplaced
        jobs; a cycle there means no completion of this prefix can be
        valid. Called only after placements that created forced edges.

        By the invariant in the class docstring, a new cycle must run
        through a survivor (a, b) that the last placement added, and it
        exists exactly when a is reachable from b over unplaced jobs. Each
        such edge gets one depth-first search along atomic successors and
        current survivors.
        """
        fresh = self._undo[-1][-1] if self._undo else 0  # its forced_added
        if not fresh:
            return False
        pos = self.pos
        succs = self.succs
        forced_out = self.forced_out
        for a, b in self.forced[-fresh:]:
            seen = {b}
            stack = [b]
            while stack:
                v = stack.pop()
                for nxt in (succs[v], forced_out[v]):
                    for w in nxt:
                        if pos[w] == 0 and w not in seen:
                            if w == a:
                                return True
                            seen.add(w)
                            stack.append(w)
        return False

    # -- candidate generation ----------------------------------------------

    def _legal(self, c: int) -> bool:
        if self.pred_placed[c] < self.npreds[c]:
            return False
        for idx, slot in self.by_after[c]:
            st = self.dstate[idx]
            if st[slot] != 0:
                continue
            # this undecided disjunct dies when c is placed
            oslot = 1 - slot
            other = st[oslot]
            if other == -1:
                return False
            if other == 0 and self.disjuncts[idx][oslot][1] == c:
                return False
        return True

    def extend_candidates(self) -> list[int]:
        """Legal next jobs, strongest branch first; empty at leaves/dead ends.

        Order: a partner forced by a direct successor constraint; else the
        lower ``child_bound`` first, ties by the lower id.
        """
        t = len(self.prefix)
        if t == self.k:
            return []
        pos = self.pos
        if t:
            last = self.prefix[-1]
            if last in self.ds:
                p = last + self.b if last <= self.b else last - self.b
                if pos[p] == 0:
                    return [p] if self._legal(p) else []
        # only jobs that watch a disjunct can be ruled out once ready
        by_after = self.by_after
        legal = [c for c in self.ready if not by_after[c] or self._legal(c)]
        legal.sort(key=lambda c: (self.child_bound(c), c))
        return legal

    # -- bounding ------------------------------------------------------------

    def lower_bound(self) -> int:
        """Objective that every valid completion of this prefix must reach.

        S counts closed pairs with a gap, open pairs, and separated pairs
        with no end placed yet. The last job's open pair is exempt only
        when it is not separated: its partner may still come next.
        """
        t = len(self.prefix)
        open_count = len(self.open_pos)
        s_c = self.closed_s + open_count + self.sep_unplaced
        if open_count and t:
            last = self.prefix[-1]
            if last <= self.two_sided:
                pair = last if last <= self.b else last - self.b
                if pair in self.open_pos and not self.separated[pair]:
                    s_c -= 1  # the last job's pair can still close adjacently
        l_c = self.closed_l
        if open_count:
            stretch = t - min(self.open_pos.values())
            if stretch > l_c:
                l_c = stretch
        k = self.k
        return k * (k * (k * s_c + self.m_committed) + l_c) + self.n_committed

    def child_bound(self, c: int) -> int:
        """``lower_bound()`` of the prefix extended by c; changes no state.

        Applies the S/M/L/N deltas that ``place(c)`` would commit. After
        the placement c is last, so a pair c opens adds nothing to S: it is
        exempt when not separated, and when separated it moves from the
        unplaced separated pairs to the open ones. Every other open pair
        and every unplaced separated pair counts.
        """
        t1 = len(self.prefix) + 1
        open_pos = self.open_pos
        open_count = len(open_pos)
        s_c = self.closed_s + self.sep_unplaced
        l_c = self.closed_l
        m_c = self.m_committed
        lowest = 0  # smallest open position after placing c; 0: none
        if open_count:
            mins = self._open_mins
            if mins is None:
                mins = self._open_mins = sorted(open_pos.values())[:2]
            lowest = mins[0]
            if c <= self.two_sided:
                q = open_pos.get(c if c <= self.b else c - self.b)
                if q is not None:  # c closes its pair
                    if t1 - q > 1:
                        s_c += 1
                    if t1 - q - 1 > l_c:
                        l_c = t1 - q - 1
                    open_count -= 1
                    if q == lowest:
                        lowest = mins[1] if open_count else 0
        # storage load at c's position: the pairs spanning it
        if open_count > m_c:
            m_c = open_count
        s_c += open_count
        if lowest and t1 - lowest > l_c:
            l_c = t1 - lowest
        n_c = self.n_committed
        pos = self.pos
        for i in self.soft_before_of[c]:
            if pos[i] == 0:
                n_c += 1
        k = self.k
        return k * (k * (k * s_c + m_c) + l_c) + n_c


class FloorlessReferenceState(ReferenceSearchState):
    """``lower_bound`` and ``child_bound`` without the separated-pair floor.

    Verbatim from the solver before the floor, except that the soft
    predecessors of c are read as ``soft_before_of[c]`` (a per-job list
    now, a dict then).
    """

    def lower_bound(self) -> int:
        """Objective that every valid completion of this prefix must reach."""
        t = len(self.prefix)
        open_count = len(self.open_pos)
        s_c = self.closed_s + open_count
        if open_count and t:
            last = self.prefix[-1]
            if last <= self.two_sided:
                pair = last if last <= self.b else last - self.b
                if pair in self.open_pos:
                    s_c -= 1  # the last job's pair can still close adjacently
        l_c = self.closed_l
        if open_count:
            stretch = t - min(self.open_pos.values())
            if stretch > l_c:
                l_c = stretch
        k = self.k
        return k * (k * (k * s_c + self.m_committed) + l_c) + self.n_committed

    def child_bound(self, c: int) -> int:
        """``lower_bound()`` of the prefix extended by c; changes no state.

        Applies the S/M/L/N deltas that ``place(c)`` would commit. After
        the placement c is last, so its pair is exempt from S exactly when
        c opens it, and every other open pair counts.
        """
        t1 = len(self.prefix) + 1
        open_pos = self.open_pos
        open_count = len(open_pos)
        s_c = self.closed_s
        l_c = self.closed_l
        m_c = self.m_committed
        lowest = 0  # smallest open position after placing c; 0: none
        if open_count:
            mins = self._open_mins
            if mins is None:
                mins = self._open_mins = sorted(open_pos.values())[:2]
            lowest = mins[0]
            if c <= self.two_sided:
                q = open_pos.get(c if c <= self.b else c - self.b)
                if q is not None:  # c closes its pair
                    if t1 - q > 1:
                        s_c += 1
                    if t1 - q - 1 > l_c:
                        l_c = t1 - q - 1
                    open_count -= 1
                    if q == lowest:
                        lowest = mins[1] if open_count else 0
        # storage load at c's position: the pairs spanning it
        if open_count > m_c:
            m_c = open_count
        s_c += open_count
        if lowest and t1 - lowest > l_c:
            l_c = t1 - lowest
        n_c = self.n_committed
        pos = self.pos
        for i in self.soft_before_of[c]:
            if pos[i] == 0:
                n_c += 1
        k = self.k
        return k * (k * (k * s_c + m_c) + l_c) + n_c


def reference_children(ref: ReferenceSearchState, cutoff: int | None) -> list[tuple[int, int]]:
    """(child_bound, job) in the reference's branch order, bound below the
    cutoff: what ``SearchState.extend_candidates(cutoff)`` must return."""
    priced = [(ref.child_bound(c), c) for c in ref.extend_candidates()]
    return [(bound, c) for bound, c in priced if cutoff is None or bound < cutoff]


def pricing_pool(ref: ReferenceSearchState) -> list[int]:
    """The jobs priced before legality: a partner forced by a direct
    successor constraint, else every ready job."""
    if ref.prefix:
        last = ref.prefix[-1]
        if last in ref.ds:
            p = last + ref.b if last <= ref.b else last - ref.b
            if ref.pos[p] == 0:
                return [p]
    return sorted(ref.ready)


def check_pricing_in_lockstep(state, ref, rng, moves: int) -> int:
    """Walk ``state`` and ``ref`` through the same random reachable prefixes
    (place a legal child, or undo) and compare the priced children at each,
    with no cutoff and with cutoffs at and around the node's bound and
    every child's bound. After each placement, compare the mandatory
    disjuncts and the forced-cycle check too. Returns the number of states
    compared."""
    compared = 0
    for _ in range(moves):
        lb = ref.lower_bound()
        assert state.lower_bound() == lb, state.prefix
        children = reference_children(ref, None)
        cutoffs = {None, lb - 1, lb, lb + 1}
        cutoffs.update(bound + d for bound, _ in children for d in (0, 1))
        for cutoff in cutoffs:
            drops = state.bound_drops
            assert state.extend_candidates(cutoff) == reference_children(ref, cutoff), \
                (state.inst, state.prefix, cutoff)
            # a drop is a child, legal or not, priced at or above the cutoff
            assert state.bound_drops - drops == sum(
                cutoff is not None and ref.child_bound(c) >= cutoff
                for c in pricing_pool(ref))
        compared += 1
        if state.prefix and (rng.random() < 0.3 or not children):
            state.unplace()
            ref.unplace()
        elif children:
            c = rng.choice(children)[1]
            state.place(c)
            ref.place(c)
            # the mandatory disjuncts read off the positions are the ones
            # the reference keeps in its lists, and the cycle checks agree
            assert mandatory_disjuncts(state) == {
                (a, oc) for a in range(1, ref.k + 1) if not ref.pos[a]
                for oc in ref.forced_out[a] if not ref.pos[oc]}, (state.inst, state.prefix)
            assert state.forced_cycle() == ref.forced_cycle(), (state.inst, state.prefix)
        else:
            break
    return compared


def mandatory_disjuncts(st) -> set[tuple[int, int]]:
    """The disjuncts (a, c) over unplaced jobs that a prefix made
    mandatory, read off ``st.pos`` alone: the other disjunct of the
    disjunction died, its 'after' job placed while its 'before' job was
    not placed earlier."""
    pos = st.pos
    out = set()
    for d in st.inst.disjunctive:
        first, second = d[:2], d[2:]
        for (a, c), (oa, oc) in ((first, second), (second, first)):
            if not (pos[a] or pos[c]) and pos[oc] and not 0 < pos[oa] < pos[oc]:
                out.add((a, c))
    return out


def committed(st: SearchState) -> tuple:
    """What a prefix commits its completions to: the closed S, M, closed L
    and N so far, the position of each open pair's placed end, and the
    mandatory disjuncts over unplaced jobs."""
    pos = st.pos
    opened = {min(j, st.partner[j]): pos[j]
              for j in st.prefix if st.partner[j] and not pos[st.partner[j]]}
    mandatory = mandatory_disjuncts(st)
    return (st.closed_s, st.m_committed, st.closed_l, st.n_committed), opened, mandatory


def legal(st: SearchState, c: int) -> bool:
    """True when placing c kills no disjunction; for an unplaced job
    whose hard predecessors are all placed. ``SearchState._legal`` from
    before ``extend_candidates`` ran the same test inline, verbatim but
    for ``st`` in place of ``self``.

    Placing c kills each disjunct (before, c) with 'before' unplaced.
    Its disjunction then rests on the other disjunct (oa, oc), which
    fails once oc is placed, or is c, unless oa was placed first.
    """
    pos = st.pos
    for before, oa, oc in st.by_after[c]:
        if not pos[before] and (pos[oc] or oc == c):
            if not pos[oa] or pos[oc] and pos[oc] < pos[oa]:
                return False
    return True


def scan_candidates(st: SearchState) -> list[int]:
    """Reference: the children of a node, each unplaced job tested for
    legality, O(k) per call, in the branch order of the bound after
    placing it.

    A job is placeable when it waits on no hard predecessor and ``legal``
    holds. After a direct successor end whose partner is unplaced, the
    partner is the only child. A direct successor end c that opens a pair
    that is not separated is a child only when, with c placed, its
    partner is placeable.
    """
    t = len(st.prefix)
    if t == st.k:
        return []
    pos = st.pos
    b = st.b

    def placeable(c):
        return not st.waiting[c] and legal(st, c)

    def partner_follows(c):
        w = st.partner[c]
        if not st.direct[c] or pos[w] or st.separated[c]:
            return True
        st.place(c)
        follows = placeable(w)
        st.unplace()
        return follows

    if t:
        last = st.prefix[-1]
        if last in st.inst.direct_successors:
            p = last + b if last <= b else last - b
            if pos[p] == 0:
                return [p] if placeable(p) else []
    legal_jobs = [c for c in range(1, st.k + 1)
                  if pos[c] == 0 and placeable(c) and partner_follows(c)]
    legal_jobs.sort(key=lambda c: (bound_after_place(st, c), c))
    return legal_jobs


def bound_after_place(st: SearchState, c: int) -> int:
    st.place(c)
    bound = st.lower_bound()
    st.unplace()
    return bound


def place_if_legal(st: SearchState, c: int) -> bool:
    """Place c when it may come next and closes no forced cycle: ready, no
    disjunction killed, and not pushed aside by a direct successor
    constraint of the last job. Returns whether it was placed."""
    if st.prefix:
        last = st.prefix[-1]
        w = st.partner[last]
        if st.direct[last] and not st.pos[w] and w != c:
            return False
    if c not in st.ready or not legal(st, c):
        return False
    if st.place(c) and st.forced_cycle():
        st.unplace()
        return False
    return True


def closes_forced_cycle(st: SearchState, c: int) -> bool:
    """Whether placing c next leaves mandatory precedences in a cycle."""
    cycle = st.place(c) and st.forced_cycle()
    st.unplace()
    return cycle


def swap_probe(st: SearchState, c: int) -> bool:
    """The swap rule by replay: at P = X·a (a the last job), True when
    X·c·a is legal and does no worse than X·a·c, which is legal too.

    Both place the same jobs. X·c·a must commit no more closed S, M,
    closed L or N, open no pair earlier and leave the same mandatory
    disjuncts, so every completion of X·a·c is valid after it and costs
    no less there; and it must commit less closed S or N, or else c < a,
    a strict order, so that no two prefixes drop each other. ``st`` is
    as it was on return.
    """
    a = st.prefix[-1]
    if not place_if_legal(st, c):
        return False
    (s1, m1, l1, n1), open1, mandatory1 = committed(st)
    st.unplace()
    st.unplace()
    better = False
    if place_if_legal(st, c):
        if place_if_legal(st, a):
            (s2, m2, l2, n2), open2, mandatory2 = committed(st)
            better = (s2 <= s1 and m2 <= m1 and l2 <= l1 and n2 <= n1
                      and open2.keys() == open1.keys()
                      and all(open2[p] >= q for p, q in open1.items())
                      and mandatory2 == mandatory1
                      and (s2 < s1 or n2 < n1 or c < a))
            st.unplace()
        st.unplace()
    st.place(a)
    return better


def check_swaps_in_lockstep(inst: Instance, rng, moves: int) -> tuple[int, int, int]:
    """Walk the solver's state and ``SwaplessSearchState`` through the same
    random prefixes that ``solve`` could reach, and at each compare the
    children they keep with no cutoff (no incumbent: the same list) and
    below cutoffs that stand for an incumbent. The solver's list must be
    the swapless one, in order, less the children the rule drops, each of
    which ``swap_probe`` confirms or which closes a forced cycle. Along
    the way ``drop_dominated`` must thin the lists priced without an
    incumbent on every node of the prefix to the lists priced with one.

    The walk runs on ``presolved(inst)``, whose rows the probe reads the
    mandatory disjuncts off.

    Returns (states compared, children dropped, children the probe would
    drop but the rule keeps).
    """
    inst = presolved(inst)
    state, swapless = SearchState(inst), SwaplessSearchState(inst)
    compared = dropped = probe_only = 0
    priced = []  # per node on the prefix: its children with no cutoff, and with an incumbent
    for _ in range(moves):
        children = swapless.extend_candidates()
        assert state.extend_candidates() == children, (inst, state.prefix)
        cutoffs = {state.unbounded - 1}
        cutoffs.update(bound + d for bound, _ in children for d in (0, 1))
        for cutoff in cutoffs:
            before = state.bound_drops, swapless.bound_drops, state.swap_drops
            kept = state.extend_candidates(cutoff)
            full = swapless.extend_candidates(cutoff)
            gone = [ch for ch in full if ch not in kept]
            assert kept == [ch for ch in full if ch not in gone], (inst, state.prefix, cutoff)
            # the rule tests only children priced below the cutoff, legal or not
            assert state.bound_drops - before[0] == swapless.bound_drops - before[1]
            assert state.swap_drops - before[2] >= len(gone)
            for _, c in gone:
                assert swap_probe(swapless, c) or closes_forced_cycle(swapless, c), \
                    (inst, state.prefix, c)
            dropped += len(gone)
            if cutoff == state.unbounded - 1:
                if state.prefix:
                    probe_only += sum(swap_probe(swapless, c) for _, c in kept)
                incumbent = kept
        # frames[d]: the node on the prefix's first d jobs, priced before
        # an incumbent, and its children with one
        frames = [iter(full) for full, _ in priced]
        state.drop_dominated(frames)
        assert [list(waiting) for waiting in frames[1:]] == [kept for _, kept in priced[1:]]
        compared += 1
        if state.prefix and (rng.random() < 0.3 or not children):
            state.unplace()
            swapless.unplace()
            priced.pop()
        elif children:
            c = rng.choice(children)[1]
            swapless.place(c)
            if state.place(c) and state.forced_cycle():  # where solve prunes
                state.unplace()
                swapless.unplace()
            else:
                priced.append((children, incumbent))
        else:
            break
    return compared, dropped, probe_only
