"""Polynomial-time special cases and the cheap unsatisfiability precheck.

Two restricted instance classes admit direct constructions:

* only hard atomic constraints and no two-sided cables -- any topological
  order of the constraint graph is a valid (and cost-0, hence optimal)
  solution, found by Kahn's algorithm in O(k + |constraints|);
* only direct successor constraints -- wiring every pair back-to-back and
  appending the one-sided jobs costs 0 and satisfies every constraint, in
  O(k).

A directed cycle among hard atomic constraints proves unsatisfiability of
*any* instance; its absence proves nothing (disjunctions or successor
constraints may still conflict).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import digraph
from .model import Instance, Permutation


@dataclass(frozen=True)
class UnsatCertificate:
    """A directed cycle of hard precedences: each job must precede the next,
    and the last must precede the first."""

    cycle: tuple[int, ...]

    def __str__(self) -> str:
        chain = " -> ".join(str(v) for v in self.cycle)
        return f"precedence cycle: {chain} -> {self.cycle[0]}"


def topo_solve(inst: Instance) -> Permutation | UnsatCertificate:
    """Solve an atomic-only instance without pairs by topological sorting.

    Ties among ready jobs break towards the smallest id, so the output is
    deterministic. Returns an UnsatCertificate carrying one constraint-graph
    cycle when no order exists.
    """
    if inst.b != 0 or inst.soft_atomic or inst.disjunctive or inst.direct_successors:
        raise ValueError(
            "topo_solve handles only instances with b=0 and hard atomic constraints"
        )
    order = digraph.lexicographic_order(inst.k, inst.atomic)
    if order is None:
        cycle = digraph.find_cycle(inst.k, inst.atomic)
        if cycle is None:
            raise AssertionError("no topological order, yet no precedence cycle found")
        return UnsatCertificate(tuple(cycle))
    return Permutation(tuple(order))


def ds_only_solve(inst: Instance) -> Permutation:
    """Optimal solution for an instance with only direct successor constraints.

    Wires pair after pair (i, i+b) and then the one-sided jobs; every pair
    is adjacent, so the cost breakdown is (0, 0, 0, 0) no matter which ends
    are constrained.
    """
    if inst.atomic or inst.soft_atomic or inst.disjunctive:
        raise ValueError(
            "ds_only_solve handles only instances whose sole constraints are direct successors"
        )
    b = inst.b
    tour = []
    for i in range(1, b + 1):
        tour.append(i)
        tour.append(i + b)
    tour.extend(range(2 * b + 1, inst.k + 1))
    return Permutation(tuple(tour))


def unsat_precheck(inst: Instance) -> UnsatCertificate | None:
    """A hard-precedence cycle if one exists; sufficient for UNSAT.

    A cheap filter that names the cycle; ``solver.solve`` rejects the same
    instances from the topological pass of its search state. Silence is
    not a satisfiability proof.
    """
    cycle = digraph.find_cycle(inst.k, inst.atomic)
    if cycle is None:
        return None
    return UnsatCertificate(tuple(cycle))
