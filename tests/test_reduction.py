import random
import sys

import pytest

from ctwkit import (
    DiGraph,
    InstanceError,
    ParseError,
    Permutation,
    brute_mas,
    enumerate_solutions,
    extract_mas,
    mas_to_ctw,
    parse_edge_list,
)


def has_cycle(vertex_count, edges):
    adj = {v: [] for v in range(1, vertex_count + 1)}
    for u, v in edges:
        adj[u].append(v)
    seen = {}
    for start in adj:
        stack = [(start, iter(adj[start]))]
        state = {start: 1}
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if seen.get(w):
                    continue
                if state.get(w) == 1:
                    return True
                state[w] = 1
                stack.append((w, iter(adj[w])))
                advanced = True
                break
            if not advanced:
                state[v] = 2
                seen[v] = True
                stack.pop()
    return False


def test_three_cycle_becomes_soft_only_instance():
    g = DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    inst = mas_to_ctw(g)
    assert inst.k == 3
    assert inst.b == 0
    assert set(inst.soft_atomic) == {(1, 2), (2, 3), (3, 1)}
    assert inst.atomic == ()
    assert inst.disjunctive == ()
    assert inst.direct_successors == ()


def test_edgeless_graph_gives_unconstrained_instance():
    inst = mas_to_ctw(DiGraph(4, frozenset()))
    assert inst.k == 4
    assert inst.soft_atomic == ()


def test_single_edge_optimum_is_zero():
    inst = mas_to_ctw(DiGraph(2, frozenset({(1, 2)})))
    assert enumerate_solutions(inst).optimal_objective == 0


def test_self_loop_rejected():
    with pytest.raises(InstanceError):
        DiGraph(2, frozenset({(1, 1)}))


def test_extract_reference_cases():
    g = DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    kept = extract_mas(g, Permutation((1, 2, 3)))
    assert kept == {(1, 2), (2, 3)}
    assert len(kept) == brute_mas(g)

    dag = DiGraph(3, frozenset({(1, 2), (1, 3)}))
    assert extract_mas(dag, Permutation((1, 2, 3))) == dag.edges

    single = DiGraph(2, frozenset({(1, 2)}))
    assert extract_mas(single, Permutation((2, 1))) == frozenset()


def test_extract_dimension_mismatch():
    g = DiGraph(3, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        extract_mas(g, Permutation((1, 2)))


def test_extract_rejects_non_bijection():
    g = DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    # a repeated vertex leaves another without a position
    for tour in ((1, 1, 2), (3, 3, 3), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a bijection"):
            extract_mas(g, Permutation(tour))
    # the length check still comes first, with its own message
    with pytest.raises(ValueError, match="does not match 3 vertices"):
        extract_mas(g, Permutation((1, 1)))


def test_extraction_is_acyclic_for_any_bijection():
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 6)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        g = DiGraph(n, frozenset(rng.sample(pool, rng.randint(0, len(pool)))))
        tour = list(range(1, n + 1))
        rng.shuffle(tour)
        kept = extract_mas(g, Permutation(tuple(tour)))
        assert not has_cycle(n, kept)


def test_reduction_recovers_maximum_acyclic_subgraph():
    rng = random.Random(101)
    # all labeled digraphs on 3 vertices, plus a random sample on 4..5
    pools = []
    pool3 = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
    for mask in range(1 << len(pool3)):
        edges = frozenset(e for i, e in enumerate(pool3) if mask >> i & 1)
        pools.append((3, edges))
    for _ in range(60):
        n = rng.randint(4, 5)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        pools.append((n, frozenset(rng.sample(pool, rng.randint(0, len(pool))))))
    for n, edges in pools:
        g = DiGraph(n, edges)
        inst = mas_to_ctw(g)
        result = enumerate_solutions(inst)
        optimum_n = result.optimal_objective
        mas = brute_mas(g)
        assert len(edges) - optimum_n == mas
        best = result.optimal_solutions[0]
        kept = extract_mas(g, best)
        assert len(kept) == mas
        assert not has_cycle(n, kept)


def test_parse_edge_list():
    g = parse_edge_list("1 2\n2 3\n# comment\n3 1\n")
    assert g.vertex_count == 3
    assert g.edges == {(1, 2), (2, 3), (3, 1)}

    g = parse_edge_list("vertices 5\n1 2\n")
    assert g.vertex_count == 5

    assert parse_edge_list("").vertex_count == 0

    with pytest.raises(ParseError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(ParseError):
        parse_edge_list("a b\n")
    with pytest.raises(ParseError):
        parse_edge_list("vertices five\n")


def test_parse_edge_list_endpoint_errors_name_the_endpoint():
    # a numeral longer than int() reads, with or without a sign
    for edge in ("1 " + "2" * 5000, "-" + "2" * 5000 + " 1", "2" * 5000 + " x"):
        with pytest.raises(ParseError) as err:
            parse_edge_list(f"vertices 3\n1 2\n{edge}\n")
        assert str(err.value) == (
            f"line 3, column 1: integer of 5000 digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        )
        assert (err.value.line, err.value.column) == (3, 1)
        assert len(str(err.value)) < 80
    # any other endpoint is quoted alone, not with its line
    with pytest.raises(ParseError) as err:
        parse_edge_list("1 2\n3 x\n")
    assert str(err.value) == "line 2, column 1: non-integer endpoint 'x'"
    assert (err.value.line, err.value.column) == (2, 1)
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\n")
    assert str(err.value) == "line 1, column 1: non-integer endpoint 'a'"


def test_parse_edge_list_vertex_count_digits():
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError) as err:
        parse_edge_list("vertices ²\n1 2\n")
    assert str(err.value) == "line 1, column 1: vertices line must read 'vertices <count>'"
    assert (err.value.line, err.value.column) == (1, 1)
    # fullwidth digits are decimal digits, and int() reads them
    assert parse_edge_list("vertices ３\n1 2\n").vertex_count == 3
    # a numeral longer than int() reads
    with pytest.raises(ParseError) as err:
        parse_edge_list("1 2\n\nvertices " + "7" * 5000 + "\n")
    assert str(err.value) == (
        f"line 3, column 1: integer of 5000 digits exceeds the limit of "
        f"{sys.get_int_max_str_digits()} digits"
    )
