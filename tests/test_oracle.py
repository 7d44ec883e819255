import math
import random
import re

import pytest

import ctwkit.oracle

from ctwkit import (
    DiGraph,
    Instance,
    InstanceError,
    Permutation,
    breakdown,
    brute_mas,
    enumerate_solutions,
    validate,
)

from conftest import CountingItertools


def test_census_of_reference_instance(five_job):
    result = enumerate_solutions(five_job)
    assert result.enumerated == 120
    assert result.valid_count == 8


def test_reference_optimum_and_ties(five_job):
    # exhaustively derived: two permutations reach the optimum 160
    result = enumerate_solutions(five_job)
    assert result.optimal_objective == 160
    assert [p.tour for p in result.optimal_solutions] == [
        (5, 3, 2, 4, 1),
        (5, 3, 4, 2, 1),
    ]
    for perm in result.optimal_solutions:
        assert validate(five_job, perm) == []
        assert breakdown(five_job, perm).objective == 160


def test_contradictory_instance_has_no_solutions():
    inst = Instance(k=2, b=0, atomic=[(1, 2), (2, 1)])
    result = enumerate_solutions(inst)
    assert result.valid_count == 0
    assert result.optimal_objective is None
    assert result.optimal_solutions == ()


def test_empty_instance_census():
    result = enumerate_solutions(Instance(k=0, b=0))
    assert result.enumerated == 1  # 0! permutations: the empty one
    assert result.valid_count == 1
    assert result.optimal_objective == 0
    assert result.optimal_solutions == (Permutation(()),)


def test_size_guard():
    with pytest.raises(ValueError, match="k<=10"):
        enumerate_solutions(Instance(k=11, b=0))
    # a custom guard is honoured
    enumerate_solutions(Instance(k=4, b=0), limit_k=4)
    with pytest.raises(ValueError):
        enumerate_solutions(Instance(k=5, b=0), limit_k=4)


def test_optimal_set_is_lexicographically_ordered():
    # with no constraints and b=0 every permutation is optimal at cost 0
    result = enumerate_solutions(Instance(k=3, b=0))
    tours = [p.tour for p in result.optimal_solutions]
    assert tours == sorted(tours)
    assert len(tours) == 6


def test_digraph_fields_must_be_integers():
    # brute_mas read DiGraph(2.5) as an edgeless graph and answered 0, and
    # hit a float or string end only deep inside its recurrence
    for args, message in (((2.5,), "vertex_count must be an integer: 2.5"),
                          ((None,), "vertex_count must be an integer: None"),
                          ((3, [(1.0, 2)]), "edge ends must be integers: 'float' object"),
                          ((3, [("1", 2)]), "edge ends must be integers: 'str' object"),
                          ((3, [(1, 2), (2, None)]), "edge ends must be integers: 'NoneType'")):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}"):
            DiGraph(*args)
    # a bool is the int it stands for, and is stored as that int
    g = DiGraph(3, [(True, 2), (1, 2), (3, True)])
    assert g == DiGraph(3, frozenset({(1, 2), (3, 1)}))
    assert {type(v) for e in g.edges for v in e} == {int}
    assert brute_mas(g) == 2
    assert type(DiGraph(True).vertex_count) is int and brute_mas(DiGraph(True)) == 0
    # the range checks still apply
    with pytest.raises(InstanceError, match="leaves 1..2"):
        DiGraph(2, [(1, 3)])
    with pytest.raises(InstanceError, match="vertex_count must be >= 0"):
        DiGraph(-1)


def test_brute_mas_three_cycle():
    g = DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    assert brute_mas(g) == 2


def test_brute_mas_dag_keeps_everything():
    g = DiGraph(4, frozenset({(1, 2), (1, 3), (2, 4), (3, 4)}))
    assert brute_mas(g) == 4


def test_brute_mas_complete_digraph_on_three_vertices():
    edges = {(u, v) for u in range(1, 4) for v in range(1, 4) if u != v}
    g = DiGraph(3, frozenset(edges))
    # any linear order keeps exactly one direction of each of the 3 pairs
    assert brute_mas(g) == 3


def test_brute_mas_guard():
    with pytest.raises(ValueError, match="graph has 11 vertices; brute force is limited to 10"):
        brute_mas(DiGraph(11, frozenset()))
    # the guard applies before the edgeless early return, and a custom one is honoured
    assert brute_mas(DiGraph(10, frozenset())) == 0
    with pytest.raises(ValueError, match="limited to 4"):
        brute_mas(DiGraph(5, frozenset({(1, 2)})), limit_v=4)


def test_brute_mas_complete_symmetric_digraph_at_the_guard():
    # every order keeps exactly one edge of each of the 45 two-cycles
    edges = {(u, v) for u in range(1, 11) for v in range(1, 11) if u != v}
    assert brute_mas(DiGraph(10, frozenset(edges))) == 45


def _relabel(rng, n, edges):
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return frozenset((label[u - 1], label[v - 1]) for u, v in edges)


def test_brute_mas_disjoint_cycles_lose_one_edge_each():
    rng = random.Random(61)
    for lengths in ([2], [3], [10], [2, 2, 2, 2, 2], [3, 3, 4], [5, 4], [2, 3], [6, 2, 2]):
        edges = []
        start = 1
        for length in lengths:
            ring = list(range(start, start + length))
            edges += zip(ring, ring[1:] + ring[:1])
            start += length
        n = start - 1
        g = DiGraph(n, _relabel(rng, n, edges))
        assert brute_mas(g) == len(edges) - len(lengths), lengths


def test_brute_mas_dag_keeps_all_edges_and_two_cycles_cost_one_each():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 10)
        forward = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        dag = rng.sample(forward, rng.randint(1, len(forward)))
        dag_edges = _relabel(rng, n, dag)
        assert brute_mas(DiGraph(n, dag_edges)) == len(dag_edges)
        # reversing some DAG edges as well makes two-cycles; the DAG is still best
        backs = {(v, u) for u, v in rng.sample(sorted(dag_edges), rng.randint(1, len(dag_edges)))}
        assert brute_mas(DiGraph(n, dag_edges | backs)) == len(dag_edges)


def test_brute_mas_ignores_trailing_isolated_vertices():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 7)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        last = max(max(e) for e in edges)
        want = brute_mas(DiGraph(last, edges))
        for count in range(last + 1, 11):
            assert brute_mas(DiGraph(count, edges)) == want


def test_brute_mas_matches_greedy_free_cases():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 5)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        g = DiGraph(n, edges)
        best = brute_mas(g)
        assert 0 <= best <= len(edges)
        # a maximum acyclic subgraph always keeps at least half the arcs:
        # either direction class of any linear order does
        assert 2 * best >= len(edges)


def test_enumeration_pulls_every_permutation(monkeypatch, five_job):
    cases = [
        five_job,
        Instance(k=0, b=0),
        Instance(k=4, b=2, soft_atomic=[(1, 2), (3, 4)]),
        Instance(k=6, b=0),
        Instance(k=3, b=0, atomic=[(1, 2), (2, 3), (3, 1)]),  # unsatisfiable
    ]
    for inst in cases:
        counting = CountingItertools()
        monkeypatch.setattr(ctwkit.oracle, "itertools", counting)
        result = enumerate_solutions(inst)
        assert counting.pulled() == result.enumerated == math.factorial(inst.k)
    assert result.valid_count == 0
