"""Differential test of ``digraph.find_cycle`` against the one it replaced.

The reference below is the earlier ``find_cycle``, copied unchanged: it
took a ``DiGraph``, built a dict of sorted adjacency lists through
``DiGraph.successors`` (kept here as the module-level ``successors``) and
ran a three-colour DFS over dicts. The flat-list version under test takes a
vertex count and an edge sequence. Both visit roots and neighbours in
ascending order, so they must return the identical cycle, or both None.
"""

import itertools
import random

from ctwkit import Instance, UnsatCertificate, topo_solve, unsat_precheck
from ctwkit import digraph
from ctwkit.digraph import DiGraph
from ctwkit.generate import GenMode, certification_suite, generate

# ---------------------------------------------------------------------------
# Reference cycle finder


def successors(self) -> dict[int, list[int]]:
    """Adjacency lists with deterministically sorted neighbours."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, self.vertex_count + 1)}
    for u, v in self.edges:
        adj[u].append(v)
    for lst in adj.values():
        lst.sort()
    return adj


def find_cycle(g: DiGraph) -> list[int] | None:
    """Return one directed cycle [v1, ..., vm] (vm -> v1 closes it), or None.

    Iterative DFS with three-colour marking; deterministic because vertices
    and neighbours are visited in ascending order.
    """
    adj = successors(g)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {v: WHITE for v in adj}
    parent: dict[int, int] = {}
    for root in range(1, g.vertex_count + 1):
        if colour[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        colour[root] = GREY
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if colour[w] == GREY:
                    # walk the grey chain back from v to w
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
                if colour[w] == WHITE:
                    colour[w] = GREY
                    parent[w] = v
                    stack.append((w, 0))
            else:
                colour[v] = BLACK
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Agreement


def _check(g: DiGraph):
    # the edge order handed in must not matter either
    edges = list(g.edges)
    want = find_cycle(g)
    assert digraph.find_cycle(g.vertex_count, edges) == want
    assert digraph.find_cycle(g.vertex_count, sorted(edges, reverse=True)) == want
    return want


def test_find_cycle_matches_reference_on_random_digraphs():
    rng = random.Random(83)
    found = 0
    for trial in range(1500):
        n = rng.randint(0, 12)
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        # densities from empty to complete, so 2-cycles appear often
        density = (trial % 11) / 10
        g = DiGraph(n, frozenset(e for e in pool if rng.random() < density))
        if _check(g) is not None:
            found += 1
    assert found > 500


def test_find_cycle_matches_reference_on_sparse_and_acyclic_digraphs():
    rng = random.Random(84)
    for _ in range(300):
        n = rng.randint(1, 12)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        dag = {(order[i], order[j]) for i, j in itertools.combinations(range(n), 2)
               if rng.random() < 0.4}
        assert _check(DiGraph(n, frozenset(dag))) is None
        if dag:
            # one reversed edge closes at least one cycle
            u, v = sorted(dag)[rng.randrange(len(dag))]
            assert _check(DiGraph(n, frozenset(dag | {(v, u)}))) is not None


def test_find_cycle_edge_cases():
    assert digraph.find_cycle(0, []) is None
    assert digraph.find_cycle(1, []) is None
    assert digraph.find_cycle(2, [(1, 2), (2, 1)]) == [1, 2]
    # parallel edges change nothing
    assert digraph.find_cycle(3, [(1, 2), (1, 2), (2, 3)]) is None
    assert digraph.find_cycle(3, [(2, 3), (3, 2), (2, 3)]) == [2, 3]
    complete = DiGraph(12, frozenset(itertools.permutations(range(1, 13), 2)))
    assert _check(complete) == [1, 2]


def test_certificates_unchanged_on_unsatisfiable_suite_instances():
    unsat = [generate(p) for _, p in certification_suite(0) if p.mode == GenMode.UNSATISFIABLE]
    assert len(unsat) == 30
    for inst in unsat:
        want = find_cycle(DiGraph(inst.k, frozenset(inst.atomic)))
        assert want is not None
        assert unsat_precheck(inst) == UnsatCertificate(tuple(want))
        atomic_only = Instance(k=inst.k, b=0, atomic=inst.atomic)
        assert topo_solve(atomic_only) == UnsatCertificate(tuple(want))
