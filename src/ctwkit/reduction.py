"""Maximum acyclic subgraph, encoded as a wiring problem.

A digraph becomes an instance with one one-sided job per vertex and one
soft precedence per edge; no hard constraints, so every permutation is
valid and the objective reduces to N, the number of violated soft
precedences. An optimal permutation therefore keeps the largest possible
edge set acyclic: the non-violated edges are exactly the edges pointing
forward in the permutation, and such a set can never contain a cycle.
"""

from __future__ import annotations

from .digraph import DiGraph
from .errors import ParseError, digit_limit_error, read_ints
from .model import Instance, Permutation


def mas_to_ctw(g: DiGraph) -> Instance:
    """Vertices to one-sided jobs, edges to soft precedences; labels kept 1:1."""
    return Instance(
        k=g.vertex_count,
        b=0,
        soft_atomic=tuple(sorted(g.edges)),
    )


def extract_mas(g: DiGraph, perm: Permutation) -> frozenset[tuple[int, int]]:
    """Edges whose soft precedence the permutation satisfies.

    For any bijection the result is acyclic (all kept edges point forward in
    one linear order); for an optimal permutation it is maximum. Raises
    ValueError when the permutation's length differs from the vertex count
    or it is not a bijection of 1..n.
    """
    if len(perm) != g.vertex_count:
        raise ValueError(
            f"permutation length {len(perm)} does not match {g.vertex_count} vertices"
        )
    if not perm.is_bijection():
        raise ValueError(f"permutation {list(perm.tour)} is not a bijection of 1..{len(perm)}")
    pos = perm._pos
    return frozenset((u, v) for u, v in g.edges if pos[u] < pos[v])


def parse_edge_list(text: str) -> DiGraph:
    """Read a digraph as one 'tail head' pair per line.

    An optional ``vertices N`` line pins the vertex count (isolated trailing
    vertices are invisible to a bare edge list); otherwise the largest
    endpoint wins. ``#`` starts a comment.
    """
    edges = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError("vertices line must read 'vertices <count>'", lineno, 1)
            try:
                declared = int(parts[1])
            except ValueError:  # a numeral longer than int() reads
                raise digit_limit_error(len(parts[1]), lineno) from None
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'tail head', found {line!r}", lineno, 1)
        edges.append(read_ints(parts, lineno, "non-integer endpoint {token!r}"))
    count = declared if declared is not None else max((max(e) for e in edges), default=0)
    return DiGraph(count, frozenset(edges))
