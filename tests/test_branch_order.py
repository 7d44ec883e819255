"""The branch order: the lowest child bound first.

``search_reference.RankFirstSearchState`` is the solver's state with the
order it had before: the unplaced end of the most recently opened pair
first, then the jobs with the most hard successors, ties by the lower
child bound, then the lower id. Both orders search the same tree with the
same bounds and rules, so a proof ends at the same optimum; trying the
cheapest child first reaches it sooner, and an incumbent found sooner
prunes more, so exact-shaped proofs take fewer nodes in total.
"""

import ctwkit.solver
from ctwkit import ResultState, solve
from ctwkit.generate import GenParams, generate_planted

from search_reference import RankFirstSearchState


def exact_shaped_instances():
    """Planted instances shaped like the exact benchmark's, k = 10..13."""
    for idx in range(32):
        k = 10 + idx % 4
        yield generate_planted(GenParams(b=k // 2, n=k % 2, p_atomic=0.30, p_soft=0.02,
                                         p_disjunctive=0.10, ds_count=k // 2,
                                         seed=31_000 + idx))[0]


def test_bound_first_proves_the_same_optima_in_fewer_nodes(monkeypatch):
    nodes_bound = nodes_rank = 0
    for inst in exact_shaped_instances():
        new = solve(inst)
        with monkeypatch.context() as patch:
            patch.setattr(ctwkit.solver, "SearchState", RankFirstSearchState)
            old = solve(inst)
        assert new.state is old.state is ResultState.OPTIMAL, inst
        assert new.best[1].objective == old.best[1].objective, inst
        nodes_bound += new.stats.nodes_expanded
        nodes_rank += old.stats.nodes_expanded
    assert nodes_bound < nodes_rank
