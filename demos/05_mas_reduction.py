"""Maximum acyclic subgraph through the wiring lens.

Encode a digraph as a wiring instance -- one one-sided job per vertex, one
soft precedence per edge. Minimising the objective minimises violated soft
precedences, so an optimal wiring order keeps the largest acyclic edge set.
This is also why wiring with soft constraints is NP-hard in general.
"""

from ctwkit import (
    DiGraph,
    brute_mas,
    enumerate_solutions,
    extract_mas,
    mas_to_ctw,
)

# two overlapping cycles on five vertices
g = DiGraph(5, frozenset({
    (1, 2), (2, 3), (3, 1),
    (3, 4), (4, 5), (5, 3),
    (1, 4),
}))
print(f"graph: {g.vertex_count} vertices, {len(g.edges)} edges")

inst = mas_to_ctw(g)
print(f"encoded instance: k={inst.k}, b={inst.b}, "
      f"{len(inst.soft_atomic)} soft precedences")

result = enumerate_solutions(inst)
best = result.optimal_solutions[0]
print(f"optimal wiring order: {best.tour}, violated precedences: "
      f"{result.optimal_objective}")

kept = extract_mas(g, best)
print(f"kept edges ({len(kept)}): {sorted(kept)}")

reference = brute_mas(g)
print(f"exact maximum acyclic subgraph: {reference} edges")
assert len(kept) == reference
assert len(g.edges) - result.optimal_objective == reference
print("reduction and extraction agree with the exact maximum")
