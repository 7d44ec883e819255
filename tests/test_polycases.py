import itertools
import random

import pytest

from ctwkit import (
    Instance,
    Permutation,
    UnsatCertificate,
    breakdown,
    ds_only_solve,
    enumerate_solutions,
    topo_solve,
    unsat_precheck,
    validate,
)
from ctwkit import digraph
from ctwkit.generate import GenMode, GenParams, generate


def assert_is_cycle(cert: UnsatCertificate, inst: Instance):
    edges = frozenset(inst.atomic)
    cyc = cert.cycle
    assert len(cyc) >= 2
    for idx, v in enumerate(cyc):
        assert (v, cyc[(idx + 1) % len(cyc)]) in edges


def test_topo_unique_order():
    inst = Instance(k=3, b=0, atomic=[(1, 2), (2, 3)])
    assert topo_solve(inst) == Permutation((1, 2, 3))


def test_topo_cycle_certificate():
    inst = Instance(k=2, b=0, atomic=[(1, 2), (2, 1)])
    cert = topo_solve(inst)
    assert isinstance(cert, UnsatCertificate)
    assert sorted(cert.cycle) == [1, 2]
    assert_is_cycle(cert, inst)


def test_topo_raises_when_no_cycle_explains_a_missing_order(monkeypatch):
    monkeypatch.setattr(digraph, "find_cycle", lambda k, edges: None)
    with pytest.raises(AssertionError, match="no precedence cycle found"):
        topo_solve(Instance(k=2, b=0, atomic=[(1, 2), (2, 1)]))


def test_topo_tie_break_ascending():
    assert topo_solve(Instance(k=4, b=0)) == Permutation((1, 2, 3, 4))
    # 3 must wait for 4; everything else ascends
    inst = Instance(k=4, b=0, atomic=[(4, 3)])
    assert topo_solve(inst) == Permutation((1, 2, 4, 3))


def test_topo_rejects_out_of_class_instances():
    with pytest.raises(ValueError):
        topo_solve(Instance(k=2, b=1))
    with pytest.raises(ValueError):
        topo_solve(Instance(k=2, b=0, soft_atomic=[(1, 2)]))
    with pytest.raises(ValueError):
        topo_solve(Instance(k=3, b=0, disjunctive=[(1, 2, 2, 3)]))


def test_topo_output_is_valid_on_random_dags():
    rng = random.Random(61)
    for trial in range(60):
        inst = generate(GenParams(b=0, n=rng.randint(1, 30),
                                  p_atomic=rng.choice((0.1, 0.3, 0.5)),
                                  seed=trial, mode=GenMode.ATOMIC_ONLY))
        perm = topo_solve(inst)
        assert isinstance(perm, Permutation)
        assert validate(inst, perm) == []
        assert breakdown(inst, perm).objective == 0


def test_topo_is_the_smallest_order():
    # permutations() yields tours in ascending lexicographic order, so the
    # first valid one is the reference
    rng = random.Random(62)
    for trial in range(150):
        k = rng.randint(1, 6)
        mode = GenMode.UNSATISFIABLE if trial % 5 == 0 and k >= 2 else GenMode.ATOMIC_ONLY
        inst = generate(GenParams(b=0, n=k, p_atomic=rng.choice((0.2, 0.4, 0.7)),
                                  p_soft=0.0, p_disjunctive=0.0, seed=trial, mode=mode))
        reference = next(
            (Permutation(t) for t in itertools.permutations(range(1, inst.k + 1))
             if validate(inst, Permutation(t)) == []),
            None,
        )
        got = topo_solve(inst)
        if reference is None:
            assert isinstance(got, UnsatCertificate)
            assert_is_cycle(got, inst)
        else:
            assert got == reference


def test_lexicographic_order_tolerates_parallel_edges():
    edges = [(3, 1), (3, 1), (2, 1)]
    assert digraph.lexicographic_order(3, edges) == [2, 3, 1]
    assert digraph.lexicographic_order(2, [(1, 2), (2, 1), (1, 2)]) is None
    assert digraph.lexicographic_order(0, []) == []


def test_ds_only_reference_sequences():
    inst = Instance(k=5, b=2, direct_successors=[4])
    assert ds_only_solve(inst) == Permutation((1, 3, 2, 4, 5))
    inst = Instance(k=3, b=0)
    assert ds_only_solve(inst) == Permutation((1, 2, 3))


def test_ds_only_rejects_other_constraints():
    with pytest.raises(ValueError):
        ds_only_solve(Instance(k=2, b=0, atomic=[(1, 2)]))


def test_ds_only_costs_nothing():
    rng = random.Random(67)
    for trial in range(60):
        b = rng.randint(1, 10)
        n = rng.randint(0, 8)
        inst = generate(GenParams(b=b, n=n, ds_count=rng.randint(0, 2 * b),
                                  seed=trial, mode=GenMode.DS_ONLY))
        perm = ds_only_solve(inst)
        assert validate(inst, perm) == []
        bd = breakdown(inst, perm)
        assert (bd.S, bd.M, bd.L, bd.N) == (0, 0, 0, 0)


def test_precheck_silent_on_reference(five_job):
    assert unsat_precheck(five_job) is None


def test_precheck_finds_injected_cycle():
    inst = Instance(k=4, b=0, atomic=[(1, 2), (2, 3), (3, 1)])
    cert = unsat_precheck(inst)
    assert cert is not None
    assert sorted(cert.cycle) == [1, 2, 3]
    assert_is_cycle(cert, inst)


def test_precheck_blind_to_disjunctive_conflicts():
    # unsatisfiable only through disjunctions: both force 1<2 and 2<1
    inst = Instance(k=2, b=1, disjunctive=[(1, 2, 1, 2), (2, 1, 2, 1)])
    assert unsat_precheck(inst) is None
    assert enumerate_solutions(inst).valid_count == 0


def test_precheck_certificates_are_real_cycles_on_generated_instances():
    rng = random.Random(71)
    for trial in range(40):
        b = rng.randint(0, 2)
        n = rng.randint(2, 6 - 2 * b)
        inst = generate(GenParams(b=b, n=n, p_atomic=0.2, p_soft=0.1,
                                  p_disjunctive=0.1, seed=trial,
                                  mode=GenMode.UNSATISFIABLE))
        cert = unsat_precheck(inst)
        assert cert is not None
        assert_is_cycle(cert, inst)
        if inst.k <= 7:
            assert enumerate_solutions(inst).valid_count == 0
