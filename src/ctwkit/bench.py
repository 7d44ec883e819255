"""Benchmark harness: run an engine over a directory, audit solutions.

Every solution that reaches a report row is revalidated from scratch and
its cost breakdown recomputed; the recomputed values are authoritative, a
differing claim from the solution file only raises a flag. External
solutions that fail validation, and inputs that fail to parse, map to the
catch-all ``undefined`` state -- the harness's own engines never produce
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from . import oracle as oracle_mod
from . import polycases
from .costs import CostBreakdown, breakdown
from .errors import CtwError
from .formats import SolutionFile, load_instance
from .model import Instance, Violation, validate
from .solver import ResultState, SolveResult, SolveStats, SolverConfig, solve

ENGINES = ("bb", "topo", "ds-only", "oracle")


@dataclass(frozen=True)
class InstanceMetrics:
    """Instance-only difficulty indicators; independent of any solution.

    ``sum_of_constraints`` = b + |atomic| + |soft| + |disjunctive| + |ds|
    (two-sided cables count because each acts like a soft adjacency
    requirement). Constrainedness of a job is its left-hand-side load:
    1 per hard atomic constraint, 0.5 per disjunct.
    """

    k: int
    b: int
    n: int
    atomic_count: int
    soft_count: int
    disjunctive_count: int
    ds_count: int
    sum_of_constraints: int
    avg_constrainedness: float
    max_constrainedness: float


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    state: ResultState
    breakdown: CostBreakdown | None
    runtime_ms: int
    nodes: int
    metrics: InstanceMetrics
    flags: tuple[str, ...] = ()


def metrics(inst: Instance) -> InstanceMetrics:
    load = [0.0] * (inst.k + 1)
    for before, _ in inst.atomic:
        load[before] += 1.0
    for c1before, _, c2before, _ in inst.disjunctive:
        load[c1before] += 0.5
        load[c2before] += 0.5
    per_job = load[1:]
    return InstanceMetrics(
        k=inst.k,
        b=inst.b,
        n=inst.n,
        atomic_count=len(inst.atomic),
        soft_count=len(inst.soft_atomic),
        disjunctive_count=len(inst.disjunctive),
        ds_count=len(inst.direct_successors),
        sum_of_constraints=len(inst.atomic)
        + len(inst.soft_atomic)
        + len(inst.disjunctive)
        + len(inst.direct_successors)
        + inst.b,
        avg_constrainedness=sum(per_job) / inst.k if inst.k else 0.0,
        max_constrainedness=max(per_job) if per_job else 0.0,
    )


def run_engine(inst: Instance, engine: str, cfg: SolverConfig) -> SolveResult:
    """Dispatch to one of the solving engines, normalising the outcome.

    ``topo`` and ``ds-only`` raise ValueError outside their instance class;
    ``oracle`` refuses k beyond its guard.
    """
    if engine == "bb":
        return solve(inst, cfg)
    start = time.monotonic()

    def ms() -> int:
        return int((time.monotonic() - start) * 1000)

    if engine == "topo":
        outcome = polycases.topo_solve(inst)
        if isinstance(outcome, polycases.UnsatCertificate):
            return SolveResult(ResultState.UNSATISFIABLE, None, SolveStats(0, ms(), None))
        return SolveResult(
            ResultState.OPTIMAL,
            (outcome, breakdown(inst, outcome)),
            SolveStats(0, ms(), 0),
        )
    if engine == "ds-only":
        perm = polycases.ds_only_solve(inst)
        return SolveResult(
            ResultState.OPTIMAL, (perm, breakdown(inst, perm)), SolveStats(0, ms(), 0)
        )
    if engine == "oracle":
        result = oracle_mod.enumerate_solutions(inst)
        if result.valid_count == 0:
            return SolveResult(
                ResultState.UNSATISFIABLE, None, SolveStats(result.enumerated, ms(), None)
            )
        best = result.optimal_solutions[0]
        return SolveResult(
            ResultState.OPTIMAL,
            (best, breakdown(inst, best)),
            SolveStats(result.enumerated, ms(), result.optimal_objective),
        )
    raise ValueError(f"unknown engine {engine!r} (expected one of {', '.join(ENGINES)})")


def _audit_flags(inst: Instance, bd: CostBreakdown) -> list[str]:
    flags = []
    if inst.k and bd.N >= inst.k:
        flags.append("N>=k")
    return flags


def _solve_one(path_str: str, engine: str, cfg: SolverConfig) -> BenchRow:
    path = Path(path_str)
    instance_id = path.stem
    try:
        inst = load_instance(path)
    except (CtwError, OSError) as exc:
        empty = InstanceMetrics(0, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
        return BenchRow(instance_id, ResultState.UNDEFINED, None, 0, 0, empty,
                        (f"error:{exc}",))
    m = metrics(inst)
    started = time.monotonic()
    try:
        result = run_engine(inst, engine, cfg)
    except (CtwError, ValueError) as exc:
        return BenchRow(instance_id, ResultState.UNDEFINED, None,
                        int((time.monotonic() - started) * 1000), 0, m, (f"error:{exc}",))
    return result_row(instance_id, inst, m, result)


def result_row(instance_id: str, inst: Instance, m: InstanceMetrics,
               result: SolveResult) -> BenchRow:
    """The report row of an engine's ``result`` on ``inst``: its solution
    revalidated, re-priced and flagged. An invalid solution is an engine
    defect and gives an ``undefined`` row."""
    runtime = result.stats.time_ms
    flags: list[str] = []
    bd = None
    if result.best is not None:
        perm, claimed_bd = result.best
        violations = validate(inst, perm)
        if violations:
            # an engine returning an invalid solution is a defect, surface it loudly
            return BenchRow(instance_id, ResultState.UNDEFINED, None, runtime,
                            result.stats.nodes_expanded, m,
                            tuple(f"invalid:{v}" for v in violations))
        bd = breakdown(inst, perm)
        if bd != claimed_bd:
            flags.append("engine-cost-mismatch")
        flags.extend(_audit_flags(inst, bd))
    return BenchRow(instance_id, result.state, bd, runtime,
                    result.stats.nodes_expanded, m, tuple(flags))


def instance_paths(directory) -> list[Path]:
    """The *.dat / *.json files in ``directory``, sorted by stem."""
    paths = (p for p in Path(directory).iterdir() if p.suffix.lower() in (".dat", ".json"))
    return sorted(paths, key=lambda p: p.stem)


def run_suite(directory, cfg: SolverConfig | None = None, engine: str = "bb",
              jobs: int = 1) -> list[BenchRow]:
    """One row per *.dat / *.json instance under ``directory``, ordered by id.

    Unparseable inputs and engine refusals become ``undefined`` rows and
    the run continues. With jobs > 1 instances are solved in parallel
    worker processes; each solve stays single-threaded and deterministic,
    and row order never depends on completion order. The process pool is
    imported only here, when it is used, so that importing ctwkit (and
    every other subcommand) loads no ``multiprocessing`` module.
    """
    if cfg is None:
        cfg = SolverConfig()
    paths = instance_paths(directory)
    if jobs > 1 and len(paths) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # map yields results in input order, and the paths are sorted by id
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_solve_one, [str(p) for p in paths],
                                 [engine] * len(paths), [cfg] * len(paths)))
    return [_solve_one(str(p), engine, cfg) for p in paths]


def audit_solution(
    inst: Instance, sol: SolutionFile
) -> tuple[tuple[str, str] | None, list[Violation], CostBreakdown | None]:
    """Check a solution file against ``inst`` and re-price it.

    Returns ``(fault, violations, breakdown)``. A solution that is no
    permutation of the instance's jobs gives the fault ``("dimension",
    message)`` (wrong length) or ``("not-bijective", message)`` (positions
    that cannot be inverted), with no violations and no breakdown.
    Otherwise ``fault`` is None, ``violations`` is what ``validate``
    reports and ``breakdown`` the recomputed cost, None for a tour that is
    not a bijection.
    """
    if len(sol.values) != inst.k:
        fault = ("dimension", f"solution has {len(sol.values)} entries, instance has k={inst.k}")
        return fault, [], None
    try:
        perm = sol.permutation()
    except ValueError as exc:
        return ("not-bijective", str(exc)), [], None
    bd = breakdown(inst, perm) if perm.is_bijection() else None
    return None, validate(inst, perm), bd


def validate_external(inst: Instance, sol: SolutionFile,
                      instance_id: str | None = None) -> BenchRow:
    """Audit a solution produced elsewhere.

    Valid solutions are reported as ``suboptimal`` -- a solution with no
    optimality proof attached -- with recomputed costs; any disagreement
    with the file's claim is flagged, the recomputation wins. Malformed or
    invalid permutations map to ``undefined``.
    """
    m = metrics(inst)
    rid = instance_id or sol.instance_id or "external"
    fault, violations, bd = audit_solution(inst, sol)
    if fault:
        return BenchRow(rid, ResultState.UNDEFINED, None, 0, 0, m, (f"error:{fault[1]}",))
    if violations:
        return BenchRow(rid, ResultState.UNDEFINED, None, 0, 0, m,
                        tuple(f"invalid:{v}" for v in violations))
    flags = []
    if sol.claimed is not None and sol.claimed != bd:
        flags.append("claim-mismatch")
    flags.extend(_audit_flags(inst, bd))
    return BenchRow(rid, ResultState.SUBOPTIMAL, bd, 0, 0, m, tuple(flags))
