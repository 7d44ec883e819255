"""The four benchmark workloads: seeded inputs, tasks and their checks.

Each workload turns ``--seed`` into a fixed task list during set-up (the
only inputs the library sees are these generated instances and files) and
runs one task at a time. A task returns an ``Outcome``: a fingerprint of
the counts that must repeat exactly between runs (node counts, oracle
permutations, objectives), the (objective, reference) pair that feeds
``incumbent_ratio``, and every failed check.

Full sizes hold at least 100 tasks, three passes of which fit a 20-second
run on one core, except ``audit``, whose eight large instances are cycled;
NOTES.md gives the measurements behind each choice. Tiny sizes are for
the smoke tests.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

# Library calls go through these module objects, never through names bound
# here, so the traced run's shims see them.
from ctwkit import bench, costs, formats, model, oracle, reduction, solver
from ctwkit import GenMode, GenParams, ResultState, SolverConfig, emit_dat
from ctwkit.digraph import DiGraph
from ctwkit.generate import certification_suite

# the package re-exports the function ``generate`` under the module's name
generate = importlib.import_module("ctwkit.generate")

# An exact solve that needs this long counts as failed; the slowest exact
# instance seen while sizing the workload took well under 1 s.
EXACT_TIME_LIMIT_MS = 60_000
# Unreachable for a node-budgeted anytime task, so only the budget stops it.
ANYTIME_TIME_LIMIT_MS = 3_600_000


@dataclass(frozen=True)
class Size:
    count: int
    k: tuple[int, ...] = ()
    mas_vertices: tuple[int, ...] = ()
    node_limit: int = 0


SIZES = {
    "certify": {"full": Size(130, k=(8,), mas_vertices=(8,)),
                "tiny": Size(10, k=(8,), mas_vertices=(8,))},
    "exact": {"full": Size(1200, k=(11, 12, 13), mas_vertices=(10, 11)),
              "tiny": Size(8, k=(8, 9), mas_vertices=(7,))},
    "anytime": {"full": Size(400, k=(40, 60), node_limit=500),
                "tiny": Size(4, k=(20, 24), node_limit=100)},
    "audit": {"full": Size(8, k=(2000, 3000)),
              "tiny": Size(4, k=(150, 200))},
}


@dataclass
class Outcome:
    fingerprint: tuple
    ratio: tuple[int, int] | None = None  # (objective, reference); None: no solution
    errors: list[str] = field(default_factory=list)
    solvable: bool = True  # False only where no valid solution exists


@dataclass(frozen=True)
class Task:
    kind: str
    data: tuple


def _digraph(rng: random.Random, n: int, density: float) -> DiGraph:
    """Random orientation of round(density * n(n-1)/2) distinct vertex pairs."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = rng.sample(pairs, round(density * len(pairs)))
    return DiGraph(n, frozenset((u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen))


def _check_solution(inst, best, errors: list[str]):
    """Revalidate and re-price an engine's solution from scratch."""
    perm, claimed = best
    violations = model.validate(inst, perm)
    if violations:
        errors.append(f"invalid solution: {violations[0]}")
    bd = costs.breakdown(inst, perm)
    if bd != claimed:
        errors.append(f"engine cost {claimed} != recomputed {bd}")
    return bd


# ---------------------------------------------------------------------------
# certify: bb against the exhaustive oracle


def setup_certify(seed: int, size: Size, workdir: Path) -> list[Task]:
    k = size.k[0]
    rng = random.Random(seed)
    specs = certification_suite(seed=seed, count=size.count)
    tasks = []
    for idx, (_, params) in enumerate(specs):
        if idx % 5 == 4:
            g = _digraph(rng, size.mas_vertices[0], 0.5)
            tasks.append(Task("mas", (g,)))
        else:
            # the suite draws k <= 8; pad with one-sided jobs to a fixed k
            params = replace(params, n=k - 2 * params.b)
            inst, _ = generate.generate_planted(params)
            tasks.append(Task("inst", (inst,)))
    return tasks


def run_certify(task: Task) -> Outcome:
    errors: list[str] = []
    if task.kind == "mas":
        (g,) = task.data
        inst = reduction.mas_to_ctw(g)
        res = solver.solve(inst)
        best = oracle.brute_mas(g)
        if res.state is not ResultState.OPTIMAL or res.best is None:
            errors.append(f"bb state {res.state.value} on a MAS instance")
            return Outcome(("mas", res.state.value, best), None, errors)
        bd = _check_solution(inst, res.best, errors)
        kept = reduction.extract_mas(g, res.best[0])
        if len(g.edges) - bd.N != best or len(kept) != best:
            errors.append(f"bb keeps {len(kept)} edges, brute_mas {best}")
        return Outcome(("mas", res.stats.nodes_expanded, bd.N, best),
                       (bd.N, len(g.edges) - best), errors)

    (inst,) = task.data
    res = solver.solve(inst)
    orc = oracle.enumerate_solutions(inst)
    fp = ("inst", res.state.value, res.stats.nodes_expanded, orc.enumerated,
          orc.valid_count, orc.optimal_objective, len(orc.optimal_solutions))
    if orc.valid_count == 0:
        if res.state is not ResultState.UNSATISFIABLE:
            errors.append(f"bb says {res.state.value}, oracle found no valid permutation")
        return Outcome(fp, None, errors, solvable=False)
    if res.state is not ResultState.OPTIMAL or res.best is None:
        errors.append(f"bb says {res.state.value}, oracle found {orc.valid_count} valid")
        return Outcome(fp, None, errors)
    bd = _check_solution(inst, res.best, errors)
    if bd.objective != orc.optimal_objective:
        errors.append(f"bb objective {bd.objective} != oracle {orc.optimal_objective}")
    if res.best[0].tour not in {p.tour for p in orc.optimal_solutions}:
        errors.append("bb tour is not in the oracle's optimal set")
    return Outcome(fp + (bd.objective,), (bd.objective, orc.optimal_objective), errors)


# ---------------------------------------------------------------------------
# exact: the `ctw bench` path, solved to proof


def setup_exact(seed: int, size: Size, workdir: Path) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for idx in range(size.count):
        if idx % 4 == 3:
            g = _digraph(rng, size.mas_vertices[idx // 4 % len(size.mas_vertices)], 0.5)
            inst = reduction.mas_to_ctw(g)
            path = workdir / f"E{idx:04d}-mas.dat"
            path.write_text(emit_dat(inst), encoding="utf-8")
            tasks.append(Task("mas", (str(path), g)))
        else:
            k = size.k[idx % len(size.k)]
            b = k // 2
            params = GenParams(b=b, n=k - 2 * b, p_atomic=0.30, p_soft=0.02,
                               p_disjunctive=0.10, ds_count=b,
                               seed=seed * 100_003 + idx)
            inst, plant = generate.generate_planted(params)
            path = workdir / f"E{idx:04d}.dat"
            path.write_text(emit_dat(inst), encoding="utf-8")
            tasks.append(Task("inst", (str(path), costs.breakdown(inst, plant).objective)))
    return tasks


def run_exact(task: Task) -> Outcome:
    path, extra = task.data
    errors: list[str] = []
    inst = formats.load_instance(path)
    res = bench.run_engine(inst, "bb", SolverConfig(time_limit_ms=EXACT_TIME_LIMIT_MS))
    fp = (res.state.value, res.stats.nodes_expanded)
    if res.state is not ResultState.OPTIMAL or res.best is None:
        errors.append(f"state {res.state.value}, expected optimal")
        return Outcome(fp, None, errors)
    bd = _check_solution(inst, res.best, errors)
    if task.kind == "mas":
        kept = reduction.extract_mas(extra, res.best[0])
        if len(kept) != len(extra.edges) - bd.N:
            errors.append(f"extract_mas kept {len(kept)} edges, N={bd.N} of {len(extra.edges)}")
    else:
        if bd.objective > extra:
            errors.append(f"optimum {bd.objective} above the planted {extra}")
    return Outcome(fp + (bd.objective,), (bd.objective, res.stats.proven_lower_bound), errors)


# ---------------------------------------------------------------------------
# anytime: a fixed node budget on instances too large to finish


def setup_anytime(seed: int, size: Size, workdir: Path) -> list[Task]:
    # anytime_suite's shapes, except that k is spread evenly over the range
    # (per-node cost grows with k, so a seeded size mix would move the
    # timings from seed to seed) and p_atomic is the suite's densest value:
    # with sparser ones about 7% of instances find no incumbent within the
    # budget (about 1% still do at this density; see NOTES.md)
    rng = random.Random(seed ^ 0x5EED)
    lo, hi = size.k
    tasks = []
    for idx in range(size.count):
        k = lo + idx % (hi - lo + 1)
        b = rng.randint(k // 4, k // 2)
        params = GenParams(b=b, n=k - 2 * b, p_atomic=0.18,
                           p_soft=rng.choice((0.01, 0.02)),
                           p_disjunctive=rng.choice((0.05, 0.1)),
                           ds_count=rng.randint(0, b), seed=seed * 99_991 + idx)
        inst, plant = generate.generate_planted(params)
        tasks.append(Task("inst", (inst, costs.breakdown(inst, plant).objective, size.node_limit)))
    return tasks


def run_anytime(task: Task) -> Outcome:
    inst, planted, node_limit = task.data
    errors: list[str] = []
    res = solver.solve(inst, SolverConfig(time_limit_ms=ANYTIME_TIME_LIMIT_MS,
                                          node_limit=node_limit))
    fp = (res.state.value, res.stats.nodes_expanded)
    if res.state is ResultState.UNSATISFIABLE:
        errors.append("a planted instance was reported unsatisfiable")
    if res.best is None:
        # a legal anytime outcome, counted by incumbent_share, not a failed check
        return Outcome(fp, None, errors)
    bd = _check_solution(inst, res.best, errors)
    return Outcome(fp + (bd.objective,), (bd.objective, planted), errors)


# ---------------------------------------------------------------------------
# audit: parse large files and re-price external solutions


def setup_audit(seed: int, size: Size, workdir: Path) -> list[Task]:
    lo, hi = size.k
    tasks = []
    for idx in range(size.count):
        # k spread evenly over the range, so file sizes do not depend on the seed
        k = lo + (hi - lo) * idx // max(size.count - 1, 1)
        name = f"A{idx:02d}"
        dat = workdir / f"{name}.dat"
        if idx % 4 == 3:
            params = GenParams(b=0, n=k, p_atomic=0.002, seed=seed * 100_003 + idx,
                               mode=GenMode.ATOMIC_ONLY)
            inst, _ = generate.generate_planted(params)
            dat.write_text(emit_dat(inst), encoding="utf-8")
            tasks.append(Task("topo", (str(dat),)))
            continue
        b = k // 4
        params = GenParams(b=b, n=k - 2 * b, p_atomic=0.001, p_soft=0.0003,
                           p_disjunctive=0.002, ds_count=b // 4,
                           seed=seed * 100_003 + idx)
        inst, plant = generate.generate_planted(params)
        bd = costs.breakdown(inst, plant)
        dat.write_text(emit_dat(inst), encoding="utf-8")
        sol = workdir / f"{name}.sol"
        sol.write_text(
            f"instance {name}\ntour {' '.join(map(str, plant.tour))}\n"
            f"claimed S={bd.S} M={bd.M} L={bd.L} N={bd.N} objective={bd.objective}\n",
            encoding="utf-8")
        tasks.append(Task("external", (str(dat), str(sol), bd)))
    return tasks


def run_audit(task: Task) -> Outcome:
    errors: list[str] = []
    inst = formats.load_instance(task.data[0])
    if task.kind == "topo":
        res = bench.run_engine(inst, "topo", SolverConfig())
        if res.state is not ResultState.OPTIMAL or res.best is None:
            errors.append(f"topo state {res.state.value}, expected optimal")
            return Outcome(("topo", res.state.value), None, errors)
        bd = _check_solution(inst, res.best, errors)
        return Outcome(("topo", bd.objective), (bd.objective, 0), errors)
    _, sol_path, planted = task.data
    sol = formats.parse_solution(Path(sol_path).read_text(encoding="utf-8"))
    row = bench.validate_external(inst, sol)
    if row.breakdown != planted:
        errors.append(f"recomputed {row.breakdown} != planted {planted}")
    if row.flags:
        errors.append(f"unexpected flags {row.flags}")
    if row.state is not ResultState.SUBOPTIMAL:
        errors.append(f"audit state {row.state.value}")
    objective = row.breakdown.objective if row.breakdown else None
    return Outcome(("external", row.state.value, objective, row.flags),
                   (objective, planted.objective) if objective is not None else None, errors)


WORKLOADS = {
    "certify": (setup_certify, run_certify),
    "exact": (setup_exact, run_exact),
    "anytime": (setup_anytime, run_anytime),
    "audit": (setup_audit, run_audit),
}
