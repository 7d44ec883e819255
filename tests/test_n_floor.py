"""The N floor: forced soft edges, soft digons and a packing of triangles.

Every valid order violates a soft (i, j) against a hard chain
j -> ... -> i, exactly one edge of a soft digon (i, j), (j, i), and at
least one soft edge of a cycle whose other sides are hard chains. The
solver counts forced edges and digons from the root on, and one violation
per packed triangle while all of its jobs are unplaced. These tests check
the packing, the upkeep against its definition, and admissibility against
the oracle; ``tests/test_solver.py`` prices children and checks the bound
against exhaustive completion on the same soft-heavy and MAS instances.
The definitions read the rows of ``search_reference.presolved``, whose
hard chains include the edges the root presolve adds.
"""

import random

from ctwkit import Instance, ResultState, SearchState, enumerate_solutions, solve

from conftest import mas_instances, soft_heavy_instances
from search_reference import presolved, replay
from test_solver import floyd_warshall


def packed_triangles(st):
    """The packed triangles as job tuples from their lowest job, each
    checked to be listed once for each of its three jobs."""
    seen = {}
    for c, through in enumerate(st.triangles_of):
        for u, w in through:
            cycle = (c, u, w)
            low = cycle.index(min(cycle))
            key = cycle[low:] + cycle[:low]
            seen[key] = seen.get(key, 0) + 1
    assert all(times == 3 for times in seen.values()), seen
    return list(seen)


def fixed_soft(inst):
    """(forced soft edges, soft digons as their lower-first edge), from a
    Floyd-Warshall reach."""
    reach = floyd_warshall(inst.k, inst.atomic)
    forced = {(i, j) for i, j in inst.soft_atomic if reach[j][i]}
    soft = set(inst.soft_atomic) - forced
    digons = {(i, j) for i, j in soft if i < j and (j, i) in soft}
    return forced, digons


def check_floor_definition(st, forced, digons, triangles):
    """``n_committed`` and every ready job's ``soft_pending`` against their
    definitions, read from positions alone. Returns the ready jobs checked."""
    inst, pos = st.inst, st.pos
    fixed = forced | digons | {(j, i) for i, j in digons}
    live = [tri for tri in triangles if not any(pos[c] for c in tri)]
    fallen = sum(1 for i, j in inst.soft_atomic
                 if (i, j) not in fixed and pos[j] and not 0 < pos[i] < pos[j])
    assert st.n_committed == len(forced) + len(digons) + fallen + len(live), \
        (inst, st.prefix)
    for c in st.ready:
        delta = sum(1 for i, j in inst.soft_atomic
                    if j == c and (i, j) not in fixed and not pos[i])
        delta -= sum(c in tri for tri in live)
        assert st.soft_pending[c] == delta >= 0, (inst, st.prefix, c)
    return len(st.ready)


def test_n_floor_reference_cases():
    # soft 1 -> 2 against the hard chain 2 -> 3 -> 1, and against a hard edge
    chain = Instance(k=3, b=0, atomic=[(2, 3), (3, 1)], soft_atomic=[(1, 2)])
    assert SearchState(chain).lower_bound() == 1
    assert solve(chain).best[1].objective == 1
    against = Instance(k=2, b=0, atomic=[(2, 1)], soft_atomic=[(1, 2)])
    assert SearchState(against).lower_bound() == 1
    # a soft digon: whichever job comes first breaks the other's edge
    digon = SearchState(Instance(k=2, b=0, soft_atomic=[(1, 2), (2, 1)]))
    assert digon.lower_bound() == 1
    assert digon.extend_candidates() == [(1, 1), (1, 2)]
    # a triangle of two soft edges closed by a hard one
    triangle = SearchState(Instance(k=3, b=0, atomic=[(3, 1)], soft_atomic=[(1, 2), (2, 3)]))
    assert triangle.lower_bound() == 1
    assert triangle.extend_candidates() == [(1, 2), (1, 3)]
    assert replay(SearchState, triangle.inst, [2]).lower_bound() == 1  # 1 -> 2 fell
    # a soft triangle and the digon beside it share no soft edge: two
    # violations from the root
    both = Instance(k=4, b=0, soft_atomic=[(1, 2), (2, 3), (3, 1), (3, 4), (4, 3)])
    assert SearchState(both).lower_bound() == 2
    assert solve(both).best[1].objective == 2


def test_packing_is_soft_edge_disjoint_triangles():
    rng = random.Random(151)
    cases = [inst for inst, _ in soft_heavy_instances(rng, 150, max_k=12)]
    cases += mas_instances(rng, 60, 4, 14)
    digon_count = triangle_count = with_hard = forced_count = 0
    for inst in map(presolved, cases):
        st = SearchState(inst)
        if not st.acyclic:
            continue  # no valid order leaves no chain, so nothing is forced
        reach = floyd_warshall(inst.k, inst.atomic)
        forced, digons = fixed_soft(inst)
        used = digons | {(j, i) for i, j in digons}
        triangles = packed_triangles(st)
        for tri in triangles:
            assert len(set(tri)) == 3, (inst, tri)
            sides = list(zip(tri, tri[1:] + tri[:1]))
            soft = [(u, v) for u, v in sides if not reach[u][v]]
            assert soft and set(soft) <= set(inst.soft_atomic) - forced, (inst, tri)
            assert used.isdisjoint(soft), (inst, tri)
            used.update(soft)
            with_hard += len(soft) < 3
        assert st.n_committed == len(forced) + len(digons) + len(triangles)
        forced_count += len(forced)
        digon_count += len(digons)
        triangle_count += len(triangles)
    assert digon_count >= 400 and triangle_count >= 120 and with_hard >= 40
    assert forced_count >= 100


def test_floor_upkeep_matches_its_definition_on_reachable_states():
    rng = random.Random(157)
    cases = [inst for inst, _ in soft_heavy_instances(rng, 120, max_k=12)]
    cases += mas_instances(rng, 60, 6, 12)
    checked = 0
    for inst in map(presolved, cases):
        st = SearchState(inst)
        if not st.acyclic:
            continue  # the search never starts without a valid order
        forced, digons = fixed_soft(inst)
        triangles = packed_triangles(st)
        for _ in range(4 * inst.k):
            checked += check_floor_definition(st, forced, digons, triangles)
            children = st.extend_candidates()
            if st.prefix and (rng.random() < 0.3 or not children):
                st.unplace()
            elif children:
                st.place(rng.choice(children)[1])
    assert checked >= 10_000


def test_n_floor_is_admissible_and_solves_agree_with_the_oracle():
    rng = random.Random(167)
    cases = [inst for inst, _ in soft_heavy_instances(rng, 120, max_k=8)]
    cases += mas_instances(rng, 40, 4, 7)
    floored = tight = 0
    for inst in cases:
        orc = enumerate_solutions(inst)
        res = solve(inst)
        if not orc.valid_count:
            assert res.state is ResultState.UNSATISFIABLE, inst
            continue
        assert res.state is ResultState.OPTIMAL, inst
        assert res.best[1].objective == orc.optimal_objective, inst
        root = SearchState(inst).lower_bound()
        assert root <= orc.optimal_objective, inst
        floored += root > 0
        tight += 0 < root == orc.optimal_objective
    assert floored >= 70 and tight >= 35
