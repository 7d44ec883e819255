"""Directed graphs over integer vertices 1..n, with cycle detection.

Used for the hard-precedence constraint graph of an instance and for the
maximum-acyclic-subgraph machinery. Deliberately minimal: vertices are
implicit (1..vertex_count), edges are a frozen set of (tail, head) pairs,
self-loops are rejected. The vertex count and every edge end are stored as
the plain int ``operator.index`` reads; one that is no integer raises
InstanceError. The algorithms take a vertex count and a plain edge
sequence, so callers need not build a DiGraph.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .errors import InstanceError


@dataclass(frozen=True)
class DiGraph:
    vertex_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        try:
            object.__setattr__(self, "vertex_count", operator.index(self.vertex_count))
        except TypeError:
            raise InstanceError(
                f"vertex_count must be an integer: {self.vertex_count!r}") from None
        edges = frozenset(map(tuple, self.edges))
        # every end a plain int, seen in one C-level pass; any other integer
        # type, such as a bool, is stored as the int it stands for
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            try:
                edges = frozenset(tuple(map(operator.index, e)) for e in edges)
            except TypeError as exc:
                raise InstanceError(f"edge ends must be integers: {exc}") from None
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 0:
            raise InstanceError("vertex_count must be >= 0")
        for u, v in self.edges:
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise InstanceError(f"edge ({u}, {v}) leaves 1..{self.vertex_count}")


def find_cycle(vertex_count: int, edges: Iterable[tuple[int, int]]) -> list[int] | None:
    """Return one directed cycle [v1, ..., vm] (vm -> v1 closes it), or None.

    Iterative DFS over flat lists; a back edge to w closes the path from w.
    Deterministic because vertices and neighbours are visited in ascending
    order.
    """
    succ: list[list[int]] = [[] for _ in range(vertex_count + 1)]
    for u, v in edges:
        succ[u].append(v)
    for lst in succ:
        lst.sort()
    state = [0] * (vertex_count + 1)  # 0 unvisited, 1 on the path, 2 done
    for root in range(1, vertex_count + 1):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        stack = [iter(succ[root])]
        while stack:
            for w in stack[-1]:
                if state[w] == 1:
                    return path[path.index(w):]
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    stack.append(iter(succ[w]))
                    break
            else:
                state[path.pop()] = 2
                stack.pop()
    return None


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
