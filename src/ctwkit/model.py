"""Domain model for cable tree wiring instances and candidate solutions.

An instance schedules k = 2b + n cable-end insertion jobs on one machine:
jobs 1..b and b+1..2b are the paired ends of the b two-sided cables (job i
pairs with i+b), jobs 2b+1..2b+n belong to one-sided cables. A candidate
solution is a permutation of the k jobs. Hard constraints restrict the
permutation:

* atomic precedence (before, after): job ``before`` must take an earlier
  position than job ``after``;
* disjunctive (c1before, c1after, c2before, c2after): at least one of the
  atomic precedences (c1before, c1after) and (c2before, c2after) must
  hold. The generic 4-tuple covers both syntactic shapes that occur in
  practice (a shared left-hand job, or the pair ends appearing on opposite
  sides);
* direct successor, given as a paired-cable end i: the partner end must be
  plugged immediately after i, or anywhere before it (short cables that
  cannot wait in storage).

Soft atomic constraints use the same (before, after) shape but only
contribute to the cost of a solution, never to its validity.

``CONSTRAINT_SETS`` states the four sets once: their names, in
``Instance``'s field order, and the ids per entry. ``Instance``, the
readers and emitters of ``formats`` and ``bench.metrics`` walk it.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

from .errors import InstanceError


def partner(i: int, b: int) -> int:
    """The other end of the two-sided cable that end ``i`` belongs to.

    Only jobs 1..2b have a partner; partner(partner(i)) == i.
    """
    if not 1 <= i <= 2 * b:
        raise ValueError(f"job {i} is not a two-sided cable end (b={b})")
    return i + b if i <= b else i - b


# The four constraint sets, in ``Instance``'s field order, and the ids per
# entry (1: a bare id)
CONSTRAINT_SETS = {"atomic": 2, "soft_atomic": 2, "disjunctive": 4, "direct_successors": 1}


def _constraints(name: str, arity: int, rows) -> tuple:
    """``rows`` as a tuple of plain tuples of ``arity`` ids each.

    Rows that are all exactly ``tuple`` are kept as they are, seen in one
    pass over their types (a tuple of them is not even copied); any others
    are read in order into plain tuples. A set or a mapping row has no
    order to read a precedence from, so it raises InstanceError. One arity
    check over the result then raises InstanceError for the first row of
    the wrong length.
    """
    out = tuple(rows)  # the same object when rows is a tuple
    if not set(map(type, out)) <= {tuple}:
        for row in out:
            if isinstance(row, (AbstractSet, Mapping)):
                raise InstanceError(f"{name} row {row!r} has no order: give it as a tuple or list")
        out = tuple(map(tuple, out))
    if not set(map(len, out)) <= {arity}:
        bad = next(row for row in out if len(row) != arity)
        raise InstanceError(f"{name} row {bad} has {len(bad)} ids, expected {arity}")
    return out


@dataclass(frozen=True)
class Instance:
    """An immutable problem statement.

    ``direct_successors`` lists constrained ends i (each must be <= 2b); the
    entry i stands for the constraint on the pair (i, partner(i)). Every
    constraint row is stored as a plain tuple of the shape the module
    docstring gives. k, b and every job id are stored as the plain int
    ``operator.index`` reads, so a bool is kept as 0 or 1. A tuple of plain
    tuples is kept, not copied, and its ids are still checked. A row is
    read in order, so it may be a list, a range or an iterator, but not a
    set or a mapping.
    """

    k: int
    b: int
    atomic: tuple[tuple[int, int], ...] = ()
    soft_atomic: tuple[tuple[int, int], ...] = ()
    disjunctive: tuple[tuple[int, int, int, int], ...] = ()
    direct_successors: tuple[int, ...] = ()

    def __post_init__(self):
        for name, arity in CONSTRAINT_SETS.items():
            entries = getattr(self, name)
            if arity == 1:  # bare ids
                try:
                    entries = tuple(map(operator.index, entries))
                except TypeError as exc:
                    raise InstanceError(f"{name}: {exc}") from None
            else:
                entries = _constraints(name, arity, entries)
                # every id a plain int, seen in one C-level pass; any other
                # integer type, such as a bool, is stored as the int it stands for
                if not set(map(type, chain.from_iterable(entries))) <= {int}:
                    try:
                        entries = _constraints(
                            name, arity, [map(operator.index, row) for row in entries])
                    except TypeError as exc:
                        raise InstanceError(f"constraint ids must be integers: {exc}") from None
            object.__setattr__(self, name, entries)
        try:
            k, b = operator.index(self.k), operator.index(self.b)
        except TypeError:
            raise InstanceError(f"k and b must be integers: k={self.k!r}, b={self.b!r}") from None
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)
        self._check()

    def _check(self):
        k = self.k
        if self.b < 0 or k < 0:
            raise InstanceError(f"negative size: k={k}, b={self.b}")
        if k >= sys.maxsize:  # jobs 0..k index lists
            raise InstanceError(f"k={k} is too large: k must be < sys.maxsize = {sys.maxsize}")
        if 2 * self.b > k:
            raise InstanceError(f"b={self.b} exceeds k/2 (k={k})")
        # a valid row passes one chained comparison; the tests after it
        # only choose the message for a row that fails it
        for name in ("atomic", "soft_atomic"):
            for c in getattr(self, name):
                before, after = c
                if after != before <= k >= after >= 1 <= before:
                    continue
                if not 1 <= before <= k:
                    raise InstanceError(f"job {before} in {name} is outside 1..{k}")
                if not 1 <= after <= k:
                    raise InstanceError(f"job {after} in {name} is outside 1..{k}")
                if before == after:
                    raise InstanceError(f"{name} constraint {c} relates a job to itself")
        for d in self.disjunctive:
            c1before, c1after, c2before, c2after = d
            if (c1after != c1before <= k >= c1after >= 1 <= c1before
                    and c2after != c2before <= k >= c2after >= 1 <= c2before):
                continue
            for j in d:
                if not 1 <= j <= k:
                    raise InstanceError(f"job {j} in disjunctive is outside 1..{k}")
            if c1before == c1after or c2before == c2after:
                raise InstanceError(f"disjunctive constraint {d} has a trivial disjunct")
        for i in self.direct_successors:
            if not 1 <= i <= 2 * self.b:
                raise InstanceError(
                    f"direct successor entry {i} is not a two-sided cable end (b={self.b})"
                )
        unique = {}
        for name in CONSTRAINT_SETS:
            entries = getattr(self, name)
            unique[name] = set(entries)
            if len(unique[name]) != len(entries):
                raise InstanceError(f"duplicate entries in {name}")
        overlap = unique["atomic"] & unique["soft_atomic"]
        if overlap:
            raise InstanceError(
                f"constraints both hard and soft: {sorted(overlap)}"
            )

    @property
    def n(self) -> int:
        """Number of one-sided cables."""
        return self.k - 2 * self.b

    def canonical(self) -> "Instance":
        """Equal instance with every constraint list sorted ascending."""
        return replace(self, **{name: tuple(sorted(getattr(self, name)))
                                for name in CONSTRAINT_SETS})


def _ints(values: Iterable) -> tuple[int, ...]:
    """``values`` as ints: a string is parsed, a number must be integral.

    Raises ValueError for a non-integral number such as 1.5 or inf, which
    ``int`` would truncate or overflow on, and for a string that is no int.
    """
    raw = tuple(values)
    try:
        out = tuple(map(int, raw))
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    if out != raw:  # a string, or a number that int() changed
        for x, n in zip(raw, out):
            if n != x and not isinstance(x, str):
                raise ValueError(f"entry {x!r} is not an integer")
    return out


_INT = frozenset({int})


@dataclass(frozen=True, init=False)
class Permutation:
    """A candidate solution, stored as the tour (job at position 1, 2, ...).

    The dual view -- position of each job -- is derived on first use and
    kept, with whether the tour is a bijection, in a slot that is not a
    field: ``dataclasses.fields``, ``repr``, ``==``, ``hash``, pickle and
    copy see the tour alone. A Permutation has no ``__dict__``, so the
    oracle's long lists of them carry no per-object dict.
    A Permutation may hold a non-bijective tour (e.g. read from a defective
    solution file); ``validate`` reports that instead of the constructor
    rejecting it, and the cost functions refuse it with ValueError. A tuple
    whose entries are all exactly ``int`` is stored as it is, after one
    C-level pass over their types; any other tour is read by ``_ints``, so
    a string is parsed, a bool or an integral float becomes its int, and an
    entry that is no integer (1.5, "a") raises ValueError.
    """

    __slots__ = ("tour", "_cache")
    tour: tuple[int, ...]

    def __init__(self, tour: Iterable):
        if type(tour) is not tuple or not _INT.issuperset(map(type, tour)):
            tour = _ints(tour)
        _set_tour(self, tour)  # frozen: set past __setattr__

    def __reduce__(self):
        # the slots' default pickling would set them through the frozen
        # __setattr__; rebuild from the tour, the cache is derived again
        return type(self), (self.tour,)

    @classmethod
    def from_positions(cls, positions: Sequence[int]) -> "Permutation":
        """Build from the job -> position map (positions[i-1] is job i's slot).

        Raises ValueError when the map is not invertible, or an entry is no
        integer.
        """
        positions = _ints(positions)
        k = len(positions)
        tour = [0] * k
        for job, p in enumerate(positions, start=1):
            if not 1 <= p <= k or tour[p - 1] != 0:
                raise ValueError(f"position map is not a bijection at job {job}")
            tour[p - 1] = job
        return cls(tuple(tour))

    def __len__(self) -> int:
        return len(self.tour)

    def _dual(self) -> tuple[tuple[int, ...], bool]:
        """(position of each job, whether the tour is a bijection), cached."""
        try:
            return self._cache
        except AttributeError:  # first use
            pass
        k = len(self.tour)
        pos = [0] * (k + 1)
        distinct = 0
        for x, job in enumerate(self.tour, start=1):
            if 1 <= job <= k:
                if not pos[job]:
                    distinct += 1
                pos[job] = x
        # k distinct jobs from 1..k: the same pass decides is_bijection
        cache = tuple(pos), distinct == k
        _set_cache(self, cache)
        return cache

    @property
    def _pos(self) -> tuple[int, ...]:
        # index = job id (entry 0 unused); meaningful only for bijective tours
        return self._dual()[0]

    def positions_by_job(self) -> tuple[int, ...]:
        """positions_by_job()[i-1] is the position of job i."""
        return self._pos[1:]

    def is_bijection(self) -> bool:
        return self._dual()[1]


# the slots' own setters, which the frozen __setattr__ does not guard
_set_tour = Permutation.tour.__set__
_set_cache = Permutation._cache.__set__


class ViolationKind(Enum):
    NOT_BIJECTIVE = "not-bijective"
    ATOMIC = "atomic"
    DISJUNCTIVE = "disjunctive"
    DIRECT_SUCCESSOR = "direct-successor"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: object

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def validate(inst: Instance, perm: Permutation) -> list[Violation]:
    """All hard-constraint violations of ``perm``; empty list means valid.

    Soft atomic constraints never appear here -- they are a cost, not a
    validity condition. Raises ValueError when the permutation length does
    not match the instance.
    """
    if len(perm) != inst.k:
        raise ValueError(f"permutation has length {len(perm)}, instance has k={inst.k}")
    out: list[Violation] = []
    if not perm.is_bijection():
        out.append(Violation(ViolationKind.NOT_BIJECTIVE, tuple(perm.tour)))
        return out
    pos = perm._pos
    for before, after in inst.atomic:
        if pos[before] >= pos[after]:
            out.append(Violation(ViolationKind.ATOMIC, (before, after)))
    for a1, b1, a2, b2 in inst.disjunctive:
        if not (pos[a1] < pos[b1] or pos[a2] < pos[b2]):
            out.append(Violation(ViolationKind.DISJUNCTIVE, (a1, b1, a2, b2)))
    for i in inst.direct_successors:
        j = partner(i, inst.b)
        if not (pos[j] == pos[i] + 1 or pos[j] < pos[i]):
            out.append(Violation(ViolationKind.DIRECT_SUCCESSOR, i))
    return out

