import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ctwkit
from ctwkit import (
    CostBreakdown,
    Instance,
    Permutation,
    ResultState,
    SolutionFile,
    SolverConfig,
    emit_dat,
    emit_json,
    enumerate_solutions,
    metrics,
    run_engine,
    run_suite,
    validate_external,
)
from ctwkit.bench import result_row
from ctwkit.generate import GenParams, generate
from ctwkit.solver import SolveResult, SolveStats


def test_metrics_sum_of_constraints():
    inst = Instance(
        k=6,
        b=2,
        atomic=[(1, 2), (2, 5), (5, 6)],
        soft_atomic=[(6, 1)],
        disjunctive=[(5, 1, 3, 5)],
        direct_successors=[2],
    )
    m = metrics(inst)
    assert m.sum_of_constraints == 2 + 3 + 1 + 1 + 1 == 8
    assert m.k == 6 and m.b == 2 and m.n == 2


def test_metrics_constrainedness_weights():
    inst = Instance(k=3, b=0, atomic=[(1, 2), (1, 3)])
    m = metrics(inst)
    assert m.max_constrainedness == 2.0
    assert m.avg_constrainedness == pytest.approx(2 / 3)

    # one atomic plus one disjunct occurrence on the left-hand side
    inst = Instance(k=4, b=1, atomic=[(3, 4)], disjunctive=[(3, 1, 2, 3)])
    m = metrics(inst)
    assert m.max_constrainedness == 1.5


def test_metrics_empty_instance():
    m = metrics(Instance(k=0, b=0))
    assert m.sum_of_constraints == 0
    assert m.avg_constrainedness == 0.0
    assert m.max_constrainedness == 0.0


def test_run_engine_dispatch(five_job):
    cfg = SolverConfig(time_limit_ms=10_000)
    assert run_engine(five_job, "bb", cfg).state is ResultState.OPTIMAL
    assert run_engine(five_job, "oracle", cfg).best[1].objective == 160
    with pytest.raises(ValueError):
        run_engine(five_job, "topo", cfg)  # out of class
    with pytest.raises(ValueError):
        run_engine(five_job, "warp", cfg)

    atomic_only = Instance(k=3, b=0, atomic=[(2, 1)])
    assert run_engine(atomic_only, "topo", cfg).state is ResultState.OPTIMAL

    ds_only = Instance(k=4, b=2, direct_successors=[1, 2])
    result = run_engine(ds_only, "ds-only", cfg)
    assert result.state is ResultState.OPTIMAL
    assert result.best[1].objective == 0


def test_run_engine_reports_unsatisfiable_instances():
    cfg = SolverConfig()
    cycle = run_engine(Instance(k=3, b=0, atomic=[(1, 2), (2, 3), (3, 1)]), "topo", cfg)
    assert cycle.state is ResultState.UNSATISFIABLE and cycle.best is None
    assert (cycle.stats.nodes_expanded, cycle.stats.proven_lower_bound) == (0, None)
    # no order of jobs 1, 2, 3 puts 1 before 2 and 2 before 1 in a disjunct
    unsat = Instance(k=3, b=0, atomic=[(1, 3)], disjunctive=[(3, 1, 3, 1)])
    orc = run_engine(unsat, "oracle", cfg)
    assert orc.state is ResultState.UNSATISFIABLE and orc.best is None
    assert (orc.stats.nodes_expanded, orc.stats.proven_lower_bound) == (6, None)


def write_suite(tmp_path, specs):
    for name, inst in specs:
        (tmp_path / f"{name}.dat").write_text(emit_dat(inst), encoding="utf-8")


def test_run_suite_certifies_against_oracle(tmp_path, five_job):
    specs = [("A", five_job)]
    for seed in range(8):
        specs.append(
            (f"G{seed}", generate(GenParams(b=seed % 3, n=5 - 2 * (seed % 3),
                                            p_atomic=0.2, p_soft=0.1,
                                            p_disjunctive=0.2, seed=seed)))
        )
    write_suite(tmp_path, specs)
    rows = run_suite(tmp_path, SolverConfig(time_limit_ms=60_000), engine="bb")
    assert [r.instance_id for r in rows] == sorted(name for name, _ in specs)
    by_id = {r.instance_id: r for r in rows}
    for name, inst in specs:
        row = by_id[name]
        assert row.state is ResultState.OPTIMAL
        assert row.breakdown.objective == enumerate_solutions(inst).optimal_objective


def test_run_suite_flags_unsatisfiable_and_bad_files(tmp_path):
    unsat = Instance(k=3, b=0, atomic=[(1, 2), (2, 1)])
    write_suite(tmp_path, [("U", unsat)])
    (tmp_path / "bad.dat").write_text("k = 1;\n", encoding="utf-8")
    (tmp_path / "J.json").write_text(emit_json(Instance(k=1, b=0)), encoding="utf-8")
    rows = run_suite(tmp_path, SolverConfig(time_limit_ms=5_000))
    by_id = {r.instance_id: r for r in rows}
    assert by_id["U"].state is ResultState.UNSATISFIABLE
    assert by_id["U"].runtime_ms < 1000
    assert by_id["bad"].state is ResultState.UNDEFINED
    assert any(f.startswith("error:") for f in by_id["bad"].flags)
    assert by_id["J"].state is ResultState.OPTIMAL


def test_run_suite_reports_text_that_is_not_utf8_and_continues(tmp_path, five_job):
    write_suite(tmp_path, [("A", five_job), ("C", five_job)])
    (tmp_path / "B.dat").write_bytes(b"\xff\xfe" + emit_dat(five_job).encode("utf-16-le"))
    for jobs in (1, 2):
        rows = run_suite(tmp_path, SolverConfig(time_limit_ms=5_000), jobs=jobs)
        assert [(r.instance_id, r.state) for r in rows] == [
            ("A", ResultState.OPTIMAL), ("B", ResultState.UNDEFINED), ("C", ResultState.OPTIMAL)]
        assert rows[1].flags == ("error:not UTF-8 text: invalid start byte at offset 0",)


def test_run_suite_reports_engine_refusals_as_error_rows(tmp_path, five_job):
    # topo handles only pair-free atomic instances: five_job is refused,
    # and the run goes on to the next file
    write_suite(tmp_path, [("A", five_job), ("B", Instance(k=3, b=0, atomic=[(2, 1)]))])
    rows = run_suite(tmp_path, SolverConfig(time_limit_ms=5_000), engine="topo")
    assert [(r.instance_id, r.state) for r in rows] == [
        ("A", ResultState.UNDEFINED), ("B", ResultState.OPTIMAL)]
    refused = rows[0]
    assert refused.flags == (
        "error:topo_solve handles only instances with b=0 and hard atomic constraints",)
    assert refused.breakdown is None and refused.nodes == 0
    assert refused.metrics == metrics(five_job)


def _claimed(tour, bd: CostBreakdown) -> SolveResult:
    """An engine's result claiming ``tour`` at cost ``bd``."""
    return SolveResult(ResultState.OPTIMAL, (Permutation(tour), bd), SolveStats(7, 3, None))


def test_result_row_flags_an_invalid_engine_tour(five_job):
    row = result_row("five", five_job, metrics(five_job),
                     _claimed((1, 2, 3, 4, 5), CostBreakdown(0, 0, 0, 0, 0)))
    assert row.state is ResultState.UNDEFINED and row.breakdown is None
    assert row.flags == ("invalid:atomic: (4, 1)", "invalid:atomic: (5, 4)")
    assert (row.runtime_ms, row.nodes) == (3, 7)


def test_result_row_flags_a_wrong_claimed_breakdown(five_job):
    right = CostBreakdown(1, 1, 2, 0, 160)
    row = result_row("five", five_job, metrics(five_job), _claimed((5, 3, 4, 2, 1), right))
    assert (row.state, row.breakdown, row.flags) == (ResultState.OPTIMAL, right, ())
    row = result_row("five", five_job, metrics(five_job),
                     _claimed((5, 3, 4, 2, 1), CostBreakdown(1, 1, 2, 0, 150)))
    # the recomputed breakdown is reported, the claim only flagged
    assert (row.state, row.breakdown, row.flags) == (
        ResultState.OPTIMAL, right, ("engine-cost-mismatch",))


def test_run_suite_empty_directory(tmp_path):
    assert run_suite(tmp_path) == []


def test_import_loads_no_process_pool():
    # only run_suite with jobs > 1 needs the pool; a fresh interpreter shows
    # what importing the package alone loads
    src = str(Path(ctwkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, ctwkit; print(' '.join(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def test_run_suite_parallel_matches_serial(tmp_path):
    specs = [
        (f"P{seed}", generate(GenParams(b=2, n=2, p_atomic=0.25, p_soft=0.1,
                                        p_disjunctive=0.2, seed=seed)))
        for seed in range(6)
    ]
    write_suite(tmp_path, specs)
    cfg = SolverConfig(time_limit_ms=30_000)
    serial = run_suite(tmp_path, cfg, jobs=1)
    parallel = run_suite(tmp_path, cfg, jobs=2)
    strip = lambda rows: [
        (r.instance_id, r.state, r.breakdown, r.nodes, r.flags) for r in rows
    ]
    assert strip(serial) == strip(parallel)


def test_run_suite_respects_time_budget(tmp_path):
    hard = generate(GenParams(b=13, n=4, p_atomic=0.1, p_soft=0.02,
                              p_disjunctive=0.08, seed=19))
    write_suite(tmp_path, [("H", hard)])
    started = time.monotonic()
    rows = run_suite(tmp_path, SolverConfig(time_limit_ms=1_000))
    wall = time.monotonic() - started
    assert wall <= 3.0  # limit plus fixed overhead budget
    assert rows[0].state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED)


def test_validate_external_flags_claim_mismatch(five_job):
    sol = SolutionFile(
        instance_id="five",
        kind="tour",
        values=(5, 3, 4, 2, 1),
        claimed=CostBreakdown(1, 1, 2, 1, 161),
    )
    row = validate_external(five_job, sol)
    assert row.state is ResultState.SUBOPTIMAL
    assert row.breakdown.objective == 160  # recomputed value is authoritative
    assert "claim-mismatch" in row.flags


def test_validate_external_accepts_matching_claim(five_job):
    sol = SolutionFile(
        instance_id="five",
        kind="tour",
        values=(5, 3, 4, 2, 1),
        claimed=CostBreakdown(1, 1, 2, 0, 160),
    )
    row = validate_external(five_job, sol)
    assert row.state is ResultState.SUBOPTIMAL
    assert row.flags == ()


def test_validate_external_rejects_bad_permutations(five_job):
    row = validate_external(
        five_job, SolutionFile(None, "tour", (1, 1, 2, 3, 4), None)
    )
    assert row.state is ResultState.UNDEFINED

    row = validate_external(
        five_job, SolutionFile(None, "positions", (1, 1, 2, 3, 4), None)
    )
    assert row.state is ResultState.UNDEFINED

    row = validate_external(five_job, SolutionFile(None, "tour", (1, 2), None))
    assert row.state is ResultState.UNDEFINED

    # a non-integral entry is a fault, not a truncated tour re-priced
    for kind in ("tour", "positions"):
        row = validate_external(five_job, SolutionFile(None, kind, (1.5, 2, 3, 4, 5), None))
        assert row.state is ResultState.UNDEFINED and row.breakdown is None
        assert row.flags == ("error:entry 1.5 is not an integer",)

    # valid permutation violating a hard constraint
    row = validate_external(five_job, SolutionFile(None, "tour", (1, 2, 3, 4, 5), None))
    assert row.state is ResultState.UNDEFINED
    assert any(f.startswith("invalid:") for f in row.flags)


def test_validate_external_flags_heavy_soft_violations():
    inst = Instance(k=2, b=0, soft_atomic=[(1, 2), (2, 1)])
    # either order violates exactly one of the two directions
    row = validate_external(inst, SolutionFile(None, "tour", (2, 1), None))
    assert row.state is ResultState.SUBOPTIMAL
    assert row.breakdown.N == 1
    assert "N>=k" not in row.flags

    # all six directed soft pairs on three jobs: any order violates three,
    # which reaches k and gets flagged (the weighting's lexicographic
    # reading assumes N < k)
    heavy = Instance(
        k=3, b=0,
        soft_atomic=[(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)],
    )
    row = validate_external(heavy, SolutionFile(None, "tour", (1, 2, 3), None))
    assert row.breakdown.N == 3
    assert "N>=k" in row.flags
