import copy
import dataclasses
import itertools
import pickle
import random
import re
import sys
from collections import namedtuple
from typing import Sequence

import pytest

from ctwkit import (
    GenParams,
    Instance,
    InstanceError,
    Permutation,
    ViolationKind,
    emit_dat,
    emit_json,
    generate_planted,
    parse_dat,
    parse_json,
    partner,
    validate,
)
from ctwkit.generate import GenMode
from ctwkit.model import _ints

from conftest import random_instance


def test_partner_basics():
    assert partner(1, 2) == 3
    assert partner(4, 2) == 2
    with pytest.raises(ValueError):
        partner(5, 2)
    for b in range(1, 6):
        for i in range(1, 2 * b + 1):
            assert partner(partner(i, b), b) == i


def test_validate_reference_solution(five_job):
    assert validate(five_job, Permutation((5, 3, 4, 2, 1))) == []


def test_validate_identity_breaks_atomic(five_job):
    violations = validate(five_job, Permutation((1, 2, 3, 4, 5)))
    kinds = {(v.kind, v.detail) for v in violations}
    assert (ViolationKind.ATOMIC, (4, 1)) in kinds


def test_validate_empty_instance():
    assert validate(Instance(k=0, b=0), Permutation(())) == []


def test_validate_dimension_mismatch(five_job):
    with pytest.raises(ValueError):
        validate(five_job, Permutation((1, 2, 3)))


def test_validate_rejects_non_bijection(five_job):
    violations = validate(five_job, Permutation((1, 1, 2, 3, 4)))
    assert [v.kind for v in violations] == [ViolationKind.NOT_BIJECTIVE]


def test_validate_direct_successor_semantics():
    inst = Instance(k=4, b=2, direct_successors=[1])  # pair (1, 3)
    # partner immediately after: fine
    assert validate(inst, Permutation((1, 3, 2, 4))) == []
    # partner anywhere before: fine
    assert validate(inst, Permutation((3, 2, 1, 4))) == []
    # partner later but not adjacent: violation
    violations = validate(inst, Permutation((1, 2, 3, 4)))
    assert [v.kind for v in violations] == [ViolationKind.DIRECT_SUCCESSOR]


def test_validate_disjunctive_needs_one_side():
    inst = Instance(k=3, b=1, disjunctive=[(3, 1, 2, 3)])  # 3<1 or 2<3
    assert validate(inst, Permutation((3, 1, 2))) == []
    assert validate(inst, Permutation((2, 3, 1))) == []
    bad = validate(inst, Permutation((1, 3, 2)))
    assert [v.kind for v in bad] == [ViolationKind.DISJUNCTIVE]


def test_soft_constraints_never_affect_validity():
    rng = random.Random(11)
    for _ in range(120):
        inst, _ = random_instance(rng)
        stripped = Instance(
            k=inst.k,
            b=inst.b,
            atomic=inst.atomic,
            disjunctive=inst.disjunctive,
            direct_successors=inst.direct_successors,
        )
        tour = list(range(1, inst.k + 1))
        rng.shuffle(tour)
        perm = Permutation(tuple(tour))
        assert bool(validate(inst, perm)) == bool(validate(stripped, perm))


# Reference hard-constraint check over a position array, kept here as the
# spec that ``validate`` is property-tested against.
def satisfies(inst: Instance, pos: Sequence[int]) -> bool:
    """Hard-constraint check against a position array (index = job id).

    ``pos`` must describe a bijection. It agrees with ``validate`` by
    construction (property-tested); the exhaustive enumerator checks the
    drawn position vectors itself, so only tests call this.
    """
    for i, j in inst.atomic:
        if pos[i] >= pos[j]:
            return False
    for a1, b1, a2, b2 in inst.disjunctive:
        if pos[a1] >= pos[b1] and pos[a2] >= pos[b2]:
            return False
    b = inst.b
    for i in inst.direct_successors:
        j = i + b if i <= b else i - b
        pj, pi = pos[j], pos[i]
        if pj != pi + 1 and pj >= pi:
            return False
    return True


def test_satisfies_agrees_with_validate():
    rng = random.Random(13)
    for _ in range(200):
        mode = rng.choice(list(GenMode))
        inst, _ = random_instance(rng, mode)
        tour = list(range(1, inst.k + 1))
        rng.shuffle(tour)
        perm = Permutation(tuple(tour))
        pos = [0] + list(perm.positions_by_job())
        assert satisfies(inst, pos) == (validate(inst, perm) == [])


def test_direct_successor_equivalent_to_implication_form():
    # adjacency-or-before accepts exactly the permutations of the implication
    # form (earlier end => gap one), on every bijection
    rng = random.Random(17)
    for _ in range(40):
        b = rng.randint(1, 3)
        n = rng.randint(0, 6 - 2 * b)
        k = 2 * b + n
        ends = rng.sample(range(1, 2 * b + 1), rng.randint(1, 2 * b))
        for tour in itertools.permutations(range(1, k + 1)):
            pos = [0] * (k + 1)
            for x, job in enumerate(tour, start=1):
                pos[job] = x
            for i in ends:
                j = i + b if i <= b else i - b
                ours = pos[j] == pos[i] + 1 or pos[j] < pos[i]
                implication = (not pos[i] < pos[j]) or (pos[j] - pos[i] == 1)
                assert ours == implication


def test_instance_rejects_bad_shapes():
    with pytest.raises(InstanceError):
        Instance(k=3, b=2)  # 2b > k
    with pytest.raises(InstanceError):
        Instance(k=3, b=0, atomic=[(1, 4)])  # job out of range
    with pytest.raises(InstanceError):
        Instance(k=3, b=0, atomic=[(2, 2)])  # self-precedence
    with pytest.raises(InstanceError):
        Instance(k=4, b=1, direct_successors=[3])  # 3 is one-sided here
    with pytest.raises(InstanceError):
        Instance(k=3, b=0, atomic=[(1, 2)], soft_atomic=[(1, 2)])  # overlap
    with pytest.raises(InstanceError):
        Instance(k=3, b=0, atomic=[(1, 2), (1, 2)])  # duplicates
    with pytest.raises(InstanceError):
        Instance(k=4, b=1, disjunctive=[(1, 1, 2, 3)])  # trivial disjunct


@pytest.mark.parametrize("fields, message", [
    (dict(atomic=[(1, 2), (1, 2, 3)]), "atomic row (1, 2, 3) has 3 ids, expected 2"),
    (dict(soft_atomic=[(1,)]), "soft_atomic row (1,) has 1 ids, expected 2"),
    (dict(disjunctive=[(1, 2, 3, 4), (1, 2, 3)]),
     "disjunctive row (1, 2, 3) has 3 ids, expected 4"),
    # a tuple of plain tuples is kept, not copied, but checked all the same
    (dict(atomic=((1, 2, 3),)), "atomic row (1, 2, 3) has 3 ids, expected 2"),
    (dict(disjunctive=((1, 2, 3, 4), (1, 2, 3))),
     "disjunctive row (1, 2, 3) has 3 ids, expected 4"),
])
def test_instance_rejects_wrong_arity(fields, message):
    with pytest.raises(InstanceError) as err:
        Instance(k=4, b=1, **fields)
    assert str(err.value) == message


_Pair = namedtuple("_Pair", "before after")  # a tuple subclass


def assert_plain_rows(inst: Instance) -> None:
    """Every constraint set of ``inst`` is a tuple of exactly ``tuple``
    rows, each id exactly ``int``."""
    for rows in (inst.atomic, inst.soft_atomic, inst.disjunctive):
        assert type(rows) is tuple
        assert set(map(type, rows)) <= {tuple}
        assert set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    assert set(map(type, inst.direct_successors)) <= {int}


def test_instance_constraints_equal_and_hash_as_before():
    rows = dict(atomic=[(1, 2), (3, 4)], soft_atomic=[(2, 1)], disjunctive=[(1, 3, 2, 4)])
    inst = Instance(k=5, b=2, direct_successors=[1], **rows)
    sources = [
        inst,
        Instance(k=5, b=2, direct_successors=[1],
                 **{name: [list(r) for r in v] for name, v in rows.items()}),
        Instance(k=5, b=2, direct_successors=[True], atomic=[_Pair(1, 2), _Pair(3, 4)],
                 soft_atomic=[(2, True)], disjunctive=[(True, 3, 2, 4)]),
        parse_dat(emit_dat(inst)),
        parse_json(emit_json(inst)),
    ]
    for other in sources:
        assert other == inst and hash(other) == hash(inst)
        assert_plain_rows(other)
    # the hash of the fields with each row a plain tuple: the value the
    # rows gave when they were NamedTuples, which hash as tuples
    assert hash(inst) == hash((5, 2, ((1, 2), (3, 4)), ((2, 1),), ((1, 3, 2, 4),), (1,)))
    for name in rows:
        assert getattr(inst, name) == tuple(rows[name])
    # the generator's rows are plain too
    planted, _ = generate_planted(GenParams(b=3, n=2, p_atomic=0.3, p_soft=0.1,
                                            p_disjunctive=0.2, ds_count=2, seed=5))
    assert planted.atomic and planted.soft_atomic and planted.disjunctive
    assert_plain_rows(planted)


def test_instance_keeps_rows_already_of_their_kind():
    atomic = ((1, 2), (3, 4))
    soft = [(2, 1)]
    disjunctive = ((1, 3, 2, 4),)
    inst = Instance(k=5, b=2, atomic=atomic, soft_atomic=soft, disjunctive=disjunctive)
    assert inst.atomic is atomic and inst.disjunctive is disjunctive
    assert type(inst.soft_atomic) is tuple and inst.soft_atomic[0] is soft[0]
    row = (1, 2)
    kept = Instance(k=3, b=0, atomic=(c for c in [row]))
    assert type(kept.atomic) is tuple and kept.atomic[0] is row
    # a tuple subclass, a list, a range and an iterator are read in order,
    # each into a plain tuple, beside plain tuples
    built = Instance(k=5, b=2, atomic=[_Pair(1, 2), (3, 4)], soft_atomic=([2, 1],),
                     disjunctive=[iter([1, 3, 2, 4])])
    assert built == inst
    assert_plain_rows(built)
    assert Instance(k=5, b=0, atomic=[range(3, 5)]).atomic == ((3, 4),)
    # a bool in a plain tuple row is stored as the int it stands for
    inst = Instance(k=4, b=0, soft_atomic=((True, 2),), disjunctive=((4, 2, 3, True),))
    assert inst.soft_atomic == ((1, 2),) and inst.disjunctive == ((4, 2, 3, 1),)
    assert_plain_rows(inst)


def test_instance_allows_reverse_pair_in_both_sets():
    # (1,2) hard and (2,1) soft are distinct pairs; the soft one is then
    # violated by every valid permutation, which is a cost, not an error
    inst = Instance(k=2, b=0, atomic=[(1, 2)], soft_atomic=[(2, 1)])
    assert validate(inst, Permutation((1, 2))) == []


def test_permutation_round_trip():
    perm = Permutation((5, 3, 4, 2, 1))
    assert perm.positions_by_job() == (5, 4, 2, 3, 1)
    assert Permutation.from_positions(perm.positions_by_job()) == perm
    assert perm.tour[0] == 5
    assert perm.positions_by_job()[5 - 1] == 1
    with pytest.raises(ValueError):
        Permutation.from_positions((1, 1, 2))


def test_permutation_coerces_entries_to_int():
    perm = Permutation([True, "2", 3, " 4 "])
    assert perm.tour == (1, 2, 3, 4)
    assert all(type(j) is int for j in perm.tour)
    assert Permutation(iter((2, 1))).tour == (2, 1)
    with pytest.raises(TypeError, match="not 'NoneType'"):
        Permutation((1, None))
    with pytest.raises(ValueError, match="invalid literal for int"):
        Permutation(("a",))
    with pytest.raises(TypeError, match="not iterable"):
        Permutation(None)


@pytest.mark.parametrize("entries", [(1.5, 2.9, 3, 4), (1, 2, 3, float("inf")),
                                     (1, 2, float("nan"), 4)])
def test_permutation_rejects_non_integral_numbers(entries):
    # int() would truncate 1.5 to 1 and so make up a tour nobody gave
    with pytest.raises(ValueError):
        Permutation(entries)
    with pytest.raises(ValueError):
        Permutation.from_positions(entries)
    # an integral float is the int it equals
    assert Permutation((1.0, 2, 3, 4)).tour == (1, 2, 3, 4)
    assert Permutation.from_positions([2.0, 1, 3, 4]).tour == (2, 1, 3, 4)


class _Tour(tuple):
    pass


def test_permutation_keeps_a_tuple_of_ints_and_reads_anything_else_by_ints():
    tour = (3, 1, 2)
    assert Permutation(tour).tour is tour
    assert Permutation(()).tour == ()
    for given, want in (([3, 1, 2], (3, 1, 2)), ((True, False), (1, 0)), ((1, 2.0), (1, 2)),
                        (("3", 1), (3, 1)), (_Tour((2, 1)), (2, 1)), ((1, True), (1, 1))):
        got = Permutation(given).tour
        assert got == want == _ints(given), given
        assert type(got) is tuple and set(map(type, got)) == {int}, given
    for bad in ((1, 1.5), (1, "a"), [2.5]):
        with pytest.raises(ValueError) as err:
            _ints(bad)
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            Permutation(bad)
    # equal and hashed by the tour, whatever it was built from
    assert Permutation([True, 2]) == Permutation((1, 2))
    assert hash(Permutation(_Tour((1, 2)))) == hash(Permutation((1, 2)))
    assert Permutation(tour=(2, 1)).tour == (2, 1)


@pytest.mark.parametrize("tour, pos, bijective", [
    ((3, 1, 2), (0, 2, 3, 1), True),
    ((2, 2, 1), (0, 3, 2, 0), False),  # a repeated job: the later position
    ((1, 4, 2), (0, 1, 3, 0), False),  # job 4 is outside 1..3
])
def test_permutation_is_slotted_with_the_tour_as_its_one_field(tour, pos, bijective):
    perm = Permutation(tour)
    assert not hasattr(perm, "__dict__")
    assert [f.name for f in dataclasses.fields(perm)] == ["tour"]
    assert dataclasses.asdict(perm) == {"tour": tour}
    assert repr(perm) == f"Permutation(tour={tour!r})"
    assert perm == Permutation(list(tour)) and hash(perm) == hash((tour,))
    assert perm._pos == pos and perm.is_bijection() is bijective
    assert perm._pos is perm._pos  # derived once, then read from the cache
    with pytest.raises(dataclasses.FrozenInstanceError):
        perm.tour = ()
    # before and after the cache is filled: a copy is the same tour, and
    # its own cache is derived again
    for p in (Permutation(tour), perm):
        for copied in [copy.copy(p), copy.deepcopy(p)] + [
                pickle.loads(pickle.dumps(p, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert type(copied) is Permutation and copied == p and copied.tour == tour
            assert copied._pos == pos and copied.is_bijection() is bijective


def test_canonical_sorts_constraints():
    inst = Instance(k=4, b=0, atomic=[(3, 4), (1, 2)])
    assert inst.canonical().atomic == ((1, 2), (3, 4))


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(k=-1, b=0), "negative size: k=-1, b=0"),
        (dict(k=3, b=-1), "negative size: k=3, b=-1"),
        (dict(k=3, b=2), "b=2 exceeds k/2 (k=3)"),
        (dict(k=3, b=0, atomic=[(1, 4)]), "job 4 in atomic is outside 1..3"),
        (dict(k=3, b=0, atomic=[(0, 2)]), "job 0 in atomic is outside 1..3"),
        (dict(k=3, b=0, soft_atomic=[(1, 5)]), "job 5 in soft_atomic is outside 1..3"),
        (
            dict(k=3, b=0, atomic=[(2, 2)]),
            "atomic constraint (2, 2) relates a job to itself",
        ),
        (
            dict(k=3, b=0, soft_atomic=[(3, 3)]),
            "soft_atomic constraint (3, 3) relates a job to itself",
        ),
        (dict(k=4, b=0, disjunctive=[(1, 2, 3, 9)]), "job 9 in disjunctive is outside 1..4"),
        (
            dict(k=4, b=0, disjunctive=[(1, 1, 2, 3)]),
            "disjunctive constraint (1, 1, 2, 3) has a trivial disjunct",
        ),
        (
            dict(k=4, b=1, direct_successors=[3]),
            "direct successor entry 3 is not a two-sided cable end (b=1)",
        ),
        (dict(k=3, b=0, atomic=[(1, 2), (1, 2)]), "duplicate entries in atomic"),
        (dict(k=3, b=0, soft_atomic=[(1, 2), (1, 2)]), "duplicate entries in soft_atomic"),
        (
            dict(k=4, b=0, disjunctive=[(1, 2, 3, 4), (1, 2, 3, 4)]),
            "duplicate entries in disjunctive",
        ),
        (dict(k=4, b=2, direct_successors=[1, 1]), "duplicate entries in direct_successors"),
        (
            dict(k=3, b=0, atomic=[(1, 2)], soft_atomic=[(1, 2)]),
            "constraints both hard and soft: [(1, 2)]",
        ),
        # with several faults, the first one in checking order is reported
        (dict(k=-1, b=1, atomic=[(1, 4)]), "negative size: k=-1, b=1"),
        (dict(k=3, b=2, atomic=[(1, 4)]), "b=2 exceeds k/2 (k=3)"),
        (dict(k=3, b=0, atomic=[(9, 9)]), "job 9 in atomic is outside 1..3"),
        (dict(k=3, b=0, atomic=[(9, 0)]), "job 9 in atomic is outside 1..3"),
        (dict(k=3, b=0, atomic=[(1, 0), (7, 1)]), "job 0 in atomic is outside 1..3"),
        (
            dict(k=3, b=0, atomic=[(2, 2), (1, 9)]),
            "atomic constraint (2, 2) relates a job to itself",
        ),
        (
            dict(k=3, b=0, atomic=[(2, 2)], soft_atomic=[(1, 9)]),
            "atomic constraint (2, 2) relates a job to itself",
        ),
        (
            dict(k=4, b=0, soft_atomic=[(1, 9)], disjunctive=[(1, 1, 2, 3)]),
            "job 9 in soft_atomic is outside 1..4",
        ),
        (
            dict(k=4, b=0, disjunctive=[(5, 5, 1, 2)]),
            "job 5 in disjunctive is outside 1..4",
        ),
        (
            dict(k=4, b=1, disjunctive=[(1, 1, 2, 3)], direct_successors=[4]),
            "disjunctive constraint (1, 1, 2, 3) has a trivial disjunct",
        ),
        (
            dict(k=4, b=1, atomic=[(1, 2), (1, 2)], direct_successors=[4]),
            "direct successor entry 4 is not a two-sided cable end (b=1)",
        ),
        (
            dict(k=3, b=0, atomic=[(1, 2), (1, 2)], soft_atomic=[(2, 3), (2, 3)]),
            "duplicate entries in atomic",
        ),
        (
            dict(k=3, b=0, atomic=[(1, 2)], soft_atomic=[(1, 2), (1, 2)]),
            "duplicate entries in soft_atomic",
        ),
        (dict(k=5.0, b=1), "k and b must be integers: k=5.0, b=1"),
        (dict(k=4, b=1.0), "k and b must be integers: k=4, b=1.0"),
        (
            dict(k=4, b=1, direct_successors=[1.5]),
            "direct_successors: 'float' object cannot be interpreted as an integer",
        ),
        (
            dict(k=4, b=0, atomic=[(1.5, 2)]),
            "constraint ids must be integers: 'float' object cannot be interpreted as an integer",
        ),
        (
            dict(k=4, b=0, soft_atomic=[(1, 2), (3, "4")]),
            "constraint ids must be integers: 'str' object cannot be interpreted as an integer",
        ),
        (
            dict(k=4, b=0, disjunctive=[(1, 2, 3, None)]),
            "constraint ids must be integers: "
            "'NoneType' object cannot be interpreted as an integer",
        ),
        # a k whose jobs 0..k no list can index: refused before any allocation
        (dict(k=2**70, b=0), f"k={2**70} is too large: k must be < sys.maxsize = {sys.maxsize}"),
        (dict(k=sys.maxsize, b=1),
         f"k={sys.maxsize} is too large: k must be < sys.maxsize = {sys.maxsize}"),
        # a tuple of plain tuples is kept, and its ids are checked all the same
        (
            dict(k=4, b=0, atomic=((1, "2"),)),
            "constraint ids must be integers: 'str' object cannot be interpreted as an integer",
        ),
        # a set or a mapping row has no order to read a precedence from
        (
            dict(k=3, b=0, atomic=[(1, 3), {2, 1}]),
            "atomic row {1, 2} has no order: give it as a tuple or list",
        ),
        (
            dict(k=3, b=0, soft_atomic=[frozenset({1, 2})]),
            "soft_atomic row frozenset({1, 2}) has no order: give it as a tuple or list",
        ),
        (
            dict(k=3, b=0, atomic=({2: 1},)),
            "atomic row {2: 1} has no order: give it as a tuple or list",
        ),
        (
            dict(k=4, b=0, disjunctive=[{1: 4, 2: 3}.keys()]),
            "disjunctive row dict_keys([1, 2]) has no order: give it as a tuple or list",
        ),
    ],
)
def test_instance_error_messages(fields, message):
    with pytest.raises(InstanceError) as err:
        Instance(**fields)
    assert str(err.value) == message


def test_largest_indexable_k_is_accepted():
    # building the Instance allocates nothing per job; only solving would
    assert Instance(k=sys.maxsize - 1, b=0).n == sys.maxsize - 1
