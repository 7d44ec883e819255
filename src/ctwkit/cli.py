"""Command-line entry point.

Subcommands: solve, validate, oracle, gen, convert, bench, stats,
reduce-mas. Structured output goes to stdout as JSON (CSV for bench and
stats), diagnostics to stderr. Exit codes:

* 0 -- optimal / valid / converted
* 1 -- suboptimal
* 2 -- unsatisfiable
* 3 -- unsolved (a limit was hit with nothing to show)
* 4 -- usage or format error

``--no-timestamps``, on solve and bench (the two commands that report a
wall-clock time), zeroes every wall-clock field so that repeated runs with
the same inputs are byte-identical. The default time limit can be set
through the CTW_TIME_LIMIT_MS environment variable; the --time-limit flag
wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import formats, oracle, reduction
from .errors import CtwError
from .generate import GenMode, GenParams, anytime_suite, certification_suite
from .generate import generate as generate_instance
from .solver import ResultState, SolverConfig, solve

TIME_LIMIT_ENV = "CTW_TIME_LIMIT_MS"

STATE_EXIT = {
    ResultState.OPTIMAL: 0,
    ResultState.SUBOPTIMAL: 1,
    ResultState.UNSATISFIABLE: 2,
    ResultState.UNSOLVED: 3,
}

_EMITTERS = {
    "dat": formats.emit_dat,
    "dzn": formats.emit_dzn,
    "json": formats.emit_json,
}


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _default_time_limit() -> int:
    raw = os.environ.get(TIME_LIMIT_ENV)
    if raw is None:
        return SolverConfig.time_limit_ms
    try:
        value = int(raw)
    except ValueError:
        raise CtwError(f"{TIME_LIMIT_ENV} must be an integer, found {raw!r}")
    if value <= 0:
        raise CtwError(f"{TIME_LIMIT_ENV} must be positive, found {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctw", description="Cable tree wiring toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--engine", choices=bench_mod.ENGINES, default="bb")
    p.add_argument("--time-limit", type=int, default=None, metavar="MS")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--no-timestamps", action="store_true",
                   help="zero wall-clock fields for byte-reproducible output")

    p = sub.add_parser("validate", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("--solution", required=True)
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("oracle", help="exhaustively enumerate a small instance")
    p.add_argument("instance")
    p.add_argument("--limit-k", type=int, default=oracle.DEFAULT_LIMIT_K)
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("gen", help="generate an instance or a benchmark suite")
    p.add_argument("what", nargs="?", choices=("instance", "suite"), default="instance")
    p.add_argument("--mode", choices=[m.value for m in GenMode],
                   default="satisfiable")
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p-atomic", type=float, default=0.15)
    p.add_argument("--p-soft", type=float, default=0.05)
    p.add_argument("--p-disjunctive", type=float, default=0.10)
    p.add_argument("--ds-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("dat", "dzn", "json"), default="dat")
    p.add_argument("--out", default=None,
                   help="output file (instance) or directory (suite)")

    p = sub.add_parser("convert", help="convert an instance between formats")
    p.add_argument("instance")
    p.add_argument("--to", required=True, choices=("dat", "dzn", "json"))
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("bench", help="run an engine over an instance directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--engine", choices=bench_mod.ENGINES, default="bb")
    p.add_argument("--time-limit", type=int, default=None, metavar="MS")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--no-timestamps", action="store_true",
                   help="zero wall-clock fields for byte-reproducible output")

    p = sub.add_parser("stats", help="emit instance metrics as CSV")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("reduce-mas", help="encode a digraph as a wiring instance")
    p.add_argument("graph", help="edge list, one 'tail head' per line")
    p.add_argument("--format", choices=("dat", "dzn", "json"), default="dat")
    p.add_argument("--extract", action="store_true",
                   help="read a solution and report the kept (acyclic) edges")
    p.add_argument("--solution", default=None)
    p.add_argument("--out", default=None, metavar="FILE")
    return parser


def _cmd_solve(args) -> int:
    inst = formats.load_instance(args.instance)
    cfg = SolverConfig(
        time_limit_ms=args.time_limit if args.time_limit is not None else _default_time_limit(),
        node_limit=args.node_limit,
    )
    result = bench_mod.run_engine(inst, args.engine, cfg)
    time_ms = 0 if args.no_timestamps else result.stats.time_ms
    if args.output == "json":
        doc = {
            "instance": Path(args.instance).stem,
            "engine": args.engine,
            "state": result.state.value,
            "objective": result.best[1].objective if result.best else None,
            "breakdown": dataclasses.asdict(result.best[1]) if result.best else None,
            "tour": list(result.best[0].tour) if result.best else None,
            "stats": {**dataclasses.asdict(result.stats), "time_ms": time_ms},
        }
        _write(_dump_json(doc), args.out)
    else:
        row = bench_mod.result_row(Path(args.instance).stem, inst, bench_mod.metrics(inst), result)
        _write(formats.emit_report_csv([dataclasses.replace(row, runtime_ms=time_ms)]), args.out)
    return STATE_EXIT[result.state]


def _cmd_validate(args) -> int:
    inst = formats.load_instance(args.instance)
    sol = formats.parse_solution(formats.read_text(args.solution))
    doc = {"instance": Path(args.instance).stem, "valid": False,
           "violations": [], "breakdown": None}
    fault, violations, bd = bench_mod.audit_solution(inst, sol)
    if fault:
        doc["violations"] = [f"{fault[0]}: {fault[1]}"]
        _write(_dump_json(doc), args.out)
        return 4
    doc["violations"] = [str(v) for v in violations]
    if bd is not None:
        doc["breakdown"] = dataclasses.asdict(bd)
    doc["valid"] = not violations
    if sol.claimed is not None and bd is not None:
        doc["claim_matches"] = sol.claimed == bd
    _write(_dump_json(doc), args.out)
    return 0 if not violations else 4


def _cmd_oracle(args) -> int:
    inst = formats.load_instance(args.instance)
    result = oracle.enumerate_solutions(inst, limit_k=args.limit_k)
    doc = {
        "instance": Path(args.instance).stem,
        "enumerated": result.enumerated,
        "valid_count": result.valid_count,
        "optimal_objective": result.optimal_objective,
        "optimal_solutions": [list(p.tour) for p in result.optimal_solutions],
    }
    _write(_dump_json(doc), args.out)
    return 0 if result.valid_count else 2


def _cmd_gen(args) -> int:
    if args.what == "suite":
        if not args.out:
            raise CtwError("gen suite needs --out DIRECTORY")
        root = Path(args.out)
        manifest = {}
        for sub_name, spec_list in (
            ("certify", certification_suite(args.seed)),
            ("anytime", anytime_suite(args.seed)),
        ):
            directory = root / sub_name
            directory.mkdir(parents=True, exist_ok=True)
            emitted = []
            for name, params in spec_list:
                inst = generate_instance(params)
                path = directory / f"{name}.{args.format}"
                path.write_text(_EMITTERS[args.format](inst), encoding="utf-8")
                emitted.append(path.name)
            manifest[sub_name] = emitted
        sys.stdout.write(_dump_json({"root": str(root), "files": manifest}))
        return 0
    params = GenParams(
        b=args.b,
        n=args.n,
        p_atomic=args.p_atomic,
        p_soft=args.p_soft,
        p_disjunctive=args.p_disjunctive,
        ds_count=args.ds_count,
        seed=args.seed,
        mode=GenMode(args.mode),
    )
    inst = generate_instance(params)
    _write(_EMITTERS[args.format](inst), args.out)
    return 0


def _cmd_convert(args) -> int:
    inst = formats.load_instance(args.instance)
    _write(_EMITTERS[args.to](inst), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = SolverConfig(
        time_limit_ms=args.time_limit if args.time_limit is not None else _default_time_limit(),
    )
    rows = bench_mod.run_suite(args.dir, cfg, engine=args.engine, jobs=args.jobs)
    if args.no_timestamps:
        rows = [dataclasses.replace(r, runtime_ms=0) for r in rows]
    _write(formats.emit_report_csv(rows), args.out)
    return 0


def _cmd_stats(args) -> int:
    items = []
    for p in bench_mod.instance_paths(args.dir):
        try:
            inst = formats.load_instance(p)
        except (CtwError, ValueError) as exc:  # an OSError names the file itself
            raise CtwError(f"{p.name}: {exc}") from None
        items.append((p.stem, bench_mod.metrics(inst)))
    _write(formats.emit_metrics_csv(items), args.out)
    return 0


def _cmd_reduce_mas(args) -> int:
    g = reduction.parse_edge_list(formats.read_text(args.graph))
    if args.extract:
        if not args.solution:
            raise CtwError("--extract needs --solution FILE")
        sol = formats.parse_solution(formats.read_text(args.solution))
        perm = sol.permutation()
        kept = reduction.extract_mas(g, perm)
        doc = {
            "vertices": g.vertex_count,
            "edges": len(g.edges),
            "kept_edges": sorted([list(e) for e in kept]),
            "kept_count": len(kept),
            "removed_count": len(g.edges) - len(kept),
        }
        _write(_dump_json(doc), args.out)
        return 0
    inst = reduction.mas_to_ctw(g)
    _write(_EMITTERS[args.format](inst), args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "convert": _cmd_convert,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "reduce-mas": _cmd_reduce_mas,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 4
    try:
        return _COMMANDS[args.command](args)
    except (CtwError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
