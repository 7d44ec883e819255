"""Directed graphs over integer vertices 1..n, with cycle detection.

Used for the hard-precedence constraint graph of an instance and for the
maximum-acyclic-subgraph machinery. Deliberately minimal: vertices are
implicit (1..vertex_count), edges are a frozen set of (tail, head) pairs,
self-loops are rejected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InstanceError


@dataclass(frozen=True)
class DiGraph:
    vertex_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if self.vertex_count < 0:
            raise InstanceError("vertex_count must be >= 0")
        for u, v in self.edges:
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise InstanceError(f"edge ({u}, {v}) leaves 1..{self.vertex_count}")

    def successors(self) -> dict[int, list[int]]:
        """Adjacency lists with deterministically sorted neighbours."""
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.vertex_count + 1)}
        for u, v in self.edges:
            adj[u].append(v)
        for lst in adj.values():
            lst.sort()
        return adj


def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> DiGraph:
    return DiGraph(vertex_count, frozenset(edges))


def find_cycle(g: DiGraph) -> list[int] | None:
    """Return one directed cycle [v1, ..., vm] (vm -> v1 closes it), or None.

    Iterative DFS with three-colour marking; deterministic because vertices
    and neighbours are visited in ascending order.
    """
    adj = g.successors()
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


def topological_order(g: DiGraph) -> list[int] | None:
    """Kahn's algorithm; smallest vertex id first among the ready ones.

    Returns the order, or None when the graph has a cycle.
    """
    return lexicographic_order(g.vertex_count, g.edges)


def lexicographic_order(
    vertex_count: int, edges: Iterable[tuple[int, int]]
) -> list[int] | None:
    """The smallest topological order of vertices 1..vertex_count, or None.

    Takes a plain edge sequence, so a caller holding one (an instance's
    atomic constraints) skips building a DiGraph. Parallel edges are
    allowed and do not change the result; edges must stay within
    1..vertex_count. Adjacency and in-degrees live in flat lists indexed by
    vertex, which keeps the cost per vertex and edge flat as graphs grow.
    """
    succ: list[list[int]] = [[] for _ in range(vertex_count + 1)]
    indeg = [0] * (vertex_count + 1)
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    # ascending, hence already a heap
    ready = [v for v in range(1, vertex_count + 1) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != vertex_count:
        return None
    return order
