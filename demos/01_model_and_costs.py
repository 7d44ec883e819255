"""A first tour of the model: jobs, constraints, validity, and costs.

A wiring instance schedules k = 2b + n cable-end insertion jobs. Jobs i and
i+b (for i = 1..b) are the two ends of one cable; jobs 2b+1..k belong to
single-ended cables. We build a five-job instance with every hard
constraint type, check candidate schedules, and price the valid ones.
"""

from ctwkit import (
    Instance,
    Permutation,
    breakdown,
    edge_cost_s,
    objective,
    validate,
)

inst = Instance(
    k=5,
    b=2,  # pairs (1,3) and (2,4); job 5 is one-sided
    atomic=[(3, 4), (4, 1), (5, 4)],  # 3 before 4, 4 before 1, 5 before 4
    disjunctive=[(2, 5, 2, 1)],  # 2 before 5, or 2 before 1
    direct_successors=[4],  # once 4 is plugged, its partner 2 must follow at once
)

pairs = [(i, i + inst.b) for i in range(1, inst.b + 1)]
print(f"instance: k={inst.k}, b={inst.b}, pairs={pairs}")

good = Permutation((5, 3, 4, 2, 1))  # job 5 first, then 3, 4, 2, 1
print(f"\n{good.tour} violations: {validate(inst, good)}")

bad = Permutation((1, 2, 3, 4, 5))
print(f"{bad.tour} violations:")
for v in validate(inst, bad):
    print("  -", v)

# Costs of the good schedule: pair (1,3) is interrupted (S) with its first
# end waiting two jobs in storage (L); at most one cable is stored at any
# moment (M); there are no soft constraints to violate (N).
bd = breakdown(inst, good)
print(f"\ncosts of {good.tour}: S={bd.S} M={bd.M} L={bd.L} N={bd.N}")
print(f"objective k^3*S + k^2*M + k*L + N = {bd.objective}")
print(f"with one soft violation it would be {objective(bd.S, bd.M, bd.L, 1, inst.k)}")

# S can equivalently be read off the tour's edges: an edge costs 1 when it
# leaves a freshly-opened pair behind in storage.
print(f"\nedge-cost view of S: {edge_cost_s(inst, good)} (same value)")
