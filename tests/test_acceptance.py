"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two environment switches widen the heavy criteria to their full-scale
variants: CTW_ACCEPT_EXHAUSTIVE=1 enumerates every labeled 5-vertex digraph
in the reduction check, CTW_ACCEPT_FULL=1 runs the anytime contract's long
pass with the full 300 s budget per instance.
"""

import itertools
import math
import os
import random
import time
from contextlib import contextmanager

from ctwkit import (
    DiGraph,
    Instance,
    Permutation,
    ResultState,
    SolverConfig,
    breakdown,
    brute_mas,
    certification_suite,
    ds_only_solve,
    edge_cost_s,
    emit_dat,
    emit_json,
    enumerate_solutions,
    generate,
    generate_planted,
    mas_to_ctw,
    objective,
    parse_dat,
    parse_json,
    solve,
    topo_solve,
    validate,
)
from ctwkit.cli import main as cli_main
from ctwkit.generate import GenMode, GenParams, anytime_suite
from ctwkit.polycases import UnsatCertificate

from test_formats import R024_EXCERPT

FULL_BUDGET = os.environ.get("CTW_ACCEPT_FULL") == "1"
EXHAUSTIVE_FIVE = os.environ.get("CTW_ACCEPT_EXHAUSTIVE") == "1"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {number:02d} {name}")
        raise
    print(f"[PASS] {number:02d} {name}")


def reference_instance() -> Instance:
    return Instance(
        k=5,
        b=2,
        atomic=[(3, 4), (4, 1), (5, 4)],
        disjunctive=[(2, 5, 2, 1)],
        direct_successors=[4],
    )


def test_01_worked_example_census():
    with criterion(1, "worked-example census: 8 of 120 permutations are valid"):
        started = time.monotonic()
        result = enumerate_solutions(reference_instance())
        wall = time.monotonic() - started
        assert result.enumerated == 120
        assert result.valid_count == 8
        assert wall < 1.0


def test_02_worked_example_objective_and_optimum():
    with criterion(2, "worked-example objective 161; optimum 160 on the soft-free variant"):
        assert objective(1, 1, 2, 1, 5) == 161
        inst = reference_instance()
        oracle_result = enumerate_solutions(inst)
        assert oracle_result.optimal_objective == 160
        # derived by the exhaustive oracle: exactly two permutations attain
        # 160; the near-miss tour (3,5,4,2,1) has L=3 and costs 165
        assert [p.tour for p in oracle_result.optimal_solutions] == [
            (5, 3, 2, 4, 1),
            (5, 3, 4, 2, 1),
        ]
        bb = solve(inst, SolverConfig(time_limit_ms=10_000))
        assert bb.state is ResultState.OPTIMAL
        assert bb.best[1].objective == 160


def test_03_branch_and_bound_matches_oracle_on_200_instances():
    with criterion(3, "exact solver agrees with the oracle on 200 mixed instances"):
        started = time.monotonic()
        suite = certification_suite(seed=0)
        assert len(suite) >= 200
        unsat_seen = 0
        mismatches = []
        for name, params in suite:
            inst = generate(params)
            assert inst.k <= 8
            truth = enumerate_solutions(inst)
            result = solve(inst, SolverConfig(time_limit_ms=60_000))
            if truth.valid_count == 0:
                unsat_seen += 1
                if result.state is not ResultState.UNSATISFIABLE:
                    mismatches.append((name, "state", result.state))
            else:
                if result.state is not ResultState.OPTIMAL:
                    mismatches.append((name, "state", result.state))
                elif result.best[1].objective != truth.optimal_objective:
                    mismatches.append(
                        (name, truth.optimal_objective, result.best[1].objective)
                    )
                elif validate(inst, result.best[0]):
                    mismatches.append((name, "invalid-solution", None))
        wall = time.monotonic() - started
        assert unsat_seen >= 20
        assert mismatches == []
        assert wall < 300.0


def test_04_edge_cost_reformulation_matches_everywhere():
    with criterion(4, "edge-cost view of S equals the pair count on every bijection"):
        rng = random.Random(0)
        small = [reference_instance()]
        for b, n in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (1, 4)):
            small.append(Instance(k=2 * b + n, b=b))
        for inst in small:
            assert inst.k <= 6
            for tour in itertools.permutations(range(1, inst.k + 1)):
                perm = Permutation(tour)
                assert edge_cost_s(inst, perm) == breakdown(inst, perm).S
        for _ in range(1000):
            b = rng.randint(0, 20)
            n = rng.randint(0, 15)
            inst = Instance(k=2 * b + n, b=b)
            tour = list(range(1, inst.k + 1))
            rng.shuffle(tour)
            perm = Permutation(tuple(tour))
            assert edge_cost_s(inst, perm) == breakdown(inst, perm).S


def _fit_exponent(sizes, times):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _best_of(runs, fn):
    best = math.inf
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_05_polynomial_cases_and_linear_growth():
    with criterion(5, "polynomial classes: topological and successor-only solvers"):
        for seed in range(100):
            inst = generate(GenParams(b=0, n=5 + seed % 20, p_atomic=0.3,
                                      seed=seed, mode=GenMode.ATOMIC_ONLY))
            perm = topo_solve(inst)
            assert isinstance(perm, Permutation)
            assert validate(inst, perm) == []
        for seed in range(100):
            inst = generate(GenParams(b=0, n=4 + seed % 20, p_atomic=0.25,
                                      p_soft=0.0, p_disjunctive=0.0,
                                      seed=seed, mode=GenMode.UNSATISFIABLE))
            cert = topo_solve(inst)
            assert isinstance(cert, UnsatCertificate)
            edges = frozenset(inst.atomic)
            cyc = cert.cycle
            assert all(
                (v, cyc[(i + 1) % len(cyc)]) in edges for i, v in enumerate(cyc)
            )
        for seed in range(100):
            b = 1 + seed % 8
            inst = generate(GenParams(b=b, n=seed % 5, ds_count=1 + seed % (2 * b),
                                      seed=seed, mode=GenMode.DS_ONLY))
            perm = ds_only_solve(inst)
            assert validate(inst, perm) == []
            assert breakdown(inst, perm).objective == 0

        sizes, topo_times, ds_times = [], [], []
        for k in (100, 1_000, 10_000):
            p = min(1.0, 4.0 / (k - 1))  # about 2k atomic edges
            inst = generate(GenParams(b=0, n=k, p_atomic=p, seed=k,
                                      mode=GenMode.ATOMIC_ONLY))
            sizes.append(inst.k + len(inst.atomic))
            topo_times.append(_best_of(5, lambda: topo_solve(inst)))
            ds_inst = generate(GenParams(b=k // 2, n=k % 2, ds_count=k // 2,
                                         seed=k, mode=GenMode.DS_ONLY))
            ds_times.append(_best_of(5, lambda: ds_only_solve(ds_inst)))
        assert _fit_exponent(sizes, topo_times) <= 1.2
        assert _fit_exponent(sizes, ds_times) <= 1.2


def _all_digraphs(n):
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    for mask in range(1 << len(pool)):
        yield DiGraph(n, frozenset(e for i, e in enumerate(pool) if mask >> i & 1))


def _stratified_five_vertex(rng):
    pool = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
    for r in (0, 1, 2, 3, 18, 19, 20):
        for combo in itertools.combinations(pool, r):
            yield DiGraph(5, frozenset(combo))
    for _ in range(2000):
        count = rng.randint(4, 17)
        yield DiGraph(5, frozenset(rng.sample(pool, count)))


def test_06_mas_reduction_recovers_the_optimum():
    label = "maximum-acyclic-subgraph reduction (exhaustive small graphs)"
    with criterion(6, label):
        rng = random.Random(6)
        graphs = []
        for n in (1, 2, 3, 4):
            graphs.extend(_all_digraphs(n))
        if EXHAUSTIVE_FIVE:
            graphs.extend(_all_digraphs(5))
        else:
            graphs.extend(_stratified_five_vertex(rng))
        pool6 = [(u, v) for u in range(1, 7) for v in range(1, 7) if u != v]
        graphs.extend(
            DiGraph(6, frozenset(rng.sample(pool6, rng.randint(0, len(pool6)))))
            for _ in range(50)
        )
        mismatches = 0
        for g in graphs:
            inst = mas_to_ctw(g)
            optimum_n = enumerate_solutions(inst).optimal_objective
            if len(g.edges) - optimum_n != brute_mas(g):
                mismatches += 1
        assert mismatches == 0


def test_07_weighting_orders_criteria_lexicographically():
    with criterion(7, "objective weighting is lexicographic in (S, M, L, N)"):
        rng = random.Random(7)
        for _ in range(100_000):
            k = rng.randint(3, 80)
            b = k // 2
            t1 = (rng.randint(0, b), rng.randint(0, b),
                  rng.randint(0, k - 1), rng.randint(0, k - 1))
            t2 = (rng.randint(0, b), rng.randint(0, b),
                  rng.randint(0, k - 1), rng.randint(0, k - 1))
            o1 = objective(*t1, k)
            o2 = objective(*t2, k)
            assert (o1 < o2) == (t1 < t2)


def test_08_criteria_bounds_hold_on_valid_pairs():
    with criterion(8, "criteria bounds: S,M <= b, L <= k-1, N <= k(k-1)/2"):
        rng = random.Random(8)
        for i in range(10_000):
            b = rng.randint(0, 15)
            n = rng.randint(0 if b else 1, 10)
            params = GenParams(
                b=b, n=n,
                p_atomic=rng.choice((0.0, 0.1, 0.3)),
                p_soft=rng.choice((0.0, 0.2, 0.5)),
                p_disjunctive=rng.choice((0.0, 0.2)),
                ds_count=rng.randint(0, 2 * b),
                seed=i,
            )
            inst, plant = generate_planted(params)
            assert validate(inst, plant) == []
            bd = breakdown(inst, plant)
            assert 0 <= bd.S <= inst.b
            assert 0 <= bd.M <= inst.b
            assert 0 <= bd.L <= max(inst.k - 1, 0)
            assert 0 <= bd.N <= inst.k * (inst.k - 1) // 2


def test_09_format_fidelity():
    with criterion(9, "format fidelity: verbatim excerpt parses, round-trips are identity"):
        inst = parse_dat(R024_EXCERPT)  # includes the trailing-comma successor set
        assert inst.k == 26
        assert inst.b == 6
        assert set(inst.direct_successors) == {1, 2, 8, 7}

        fixtures = [inst, reference_instance(), Instance(k=0, b=0), Instance(k=1, b=0)]
        rng = random.Random(9)
        for i in range(100):
            mode = rng.choice(list(GenMode))
            if mode is GenMode.ATOMIC_ONLY:
                params = GenParams(b=0, n=rng.randint(1, 9), p_atomic=0.3,
                                   seed=i, mode=mode)
            elif mode is GenMode.DS_ONLY:
                b = rng.randint(1, 4)
                params = GenParams(b=b, n=rng.randint(0, 3),
                                   ds_count=rng.randint(0, 2 * b), seed=i, mode=mode)
            else:
                b = rng.randint(0, 3)
                params = GenParams(b=b, n=rng.randint(2, 6), p_atomic=0.25,
                                   p_soft=0.15, p_disjunctive=0.2,
                                   ds_count=rng.randint(0, 2 * b), seed=i, mode=mode)
            fixtures.append(generate(params))
        for fx in fixtures:
            assert parse_dat(emit_dat(fx)).canonical() == fx.canonical()
            assert parse_json(emit_json(fx)) == fx


def test_10_degenerate_instances_succeed():
    with criterion(10, "no-cable and single-job instances solve instantly"):
        started = time.monotonic()
        empty = Instance(k=0, b=0)
        result = solve(empty)
        assert result.state is ResultState.OPTIMAL
        assert result.best[0] == Permutation(())
        assert result.best[1].objective == 0
        census = enumerate_solutions(empty)
        assert census.valid_count == 1

        single = Instance(k=1, b=0)
        result = solve(single)
        assert result.state is ResultState.OPTIMAL
        assert result.best[0] == Permutation((1,))
        assert result.best[1].objective == 0
        assert enumerate_solutions(single).valid_count == 1
        assert time.monotonic() - started < 1.0


def test_11_anytime_contract():
    budget_label = "300 s" if FULL_BUDGET else "6 s"
    with criterion(11, f"anytime contract: 1 s incumbents validate, {budget_label} never worse"):
        specs = anytime_suite(seed=11, count=20, k_range=(40, 60))
        long_ms = 300_000 if FULL_BUDGET else 6_000
        interrupted = 0
        for name, params in specs:
            inst, _ = generate_planted(params)
            quick = solve(inst, SolverConfig(time_limit_ms=1_000))
            # the limit cuts a quick run short, or its proof ends first
            assert quick.state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED,
                                   ResultState.OPTIMAL), (name, quick.state)
            interrupted += quick.state is not ResultState.OPTIMAL
            if quick.best is not None:
                perm, bd = quick.best
                assert validate(inst, perm) == []
                assert breakdown(inst, perm) == bd
            longer = solve(inst, SolverConfig(time_limit_ms=long_ms))
            assert longer.best is not None
            assert validate(inst, longer.best[0]) == []
            if quick.best is not None:
                assert longer.best[1].objective <= quick.best[1].objective
            if quick.state is ResultState.OPTIMAL:
                assert longer.state is ResultState.OPTIMAL, name
                assert longer.best[1].objective == quick.best[1].objective, name
        # most quick runs end at the limit, so the contract is exercised
        assert interrupted >= 15


def test_12_byte_identical_reruns(tmp_path, capsys):
    with criterion(12, "identical seeds give byte-identical solve/gen/bench output"):
        inst_path = tmp_path / "inst.dat"
        inst_path.write_text(emit_dat(reference_instance()), encoding="utf-8")

        def run(*argv):
            code = cli_main([str(a) for a in argv])
            out = capsys.readouterr().out
            return code, out

        outputs = [run("solve", inst_path, "--no-timestamps")
                   for _ in range(2)]
        assert outputs[0] == outputs[1]

        outputs = [
            run("gen", "--b", "3", "--n", "2", "--seed", "5", "--format", "dat")
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]

        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        for name, params in certification_suite(seed=12)[:6]:
            (bench_dir / f"{name}.dat").write_text(emit_dat(generate(params)))
        outputs = [
            run("bench", "--dir", bench_dir, "--no-timestamps",
                "--time-limit", "10000", "--jobs", "1")
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
