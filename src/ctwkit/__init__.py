"""Toolkit for the cable tree wiring problem.

Model instances with atomic, soft atomic, disjunctive and direct successor
constraints over a job permutation; validate solutions; score them with the
four-criteria weighted objective; solve exactly (anytime branch-and-bound),
exhaustively (small-instance oracle) or by the polynomial special cases;
generate seeded benchmark instances and run them through a reporting
harness.
"""

from .costs import CostBreakdown, breakdown, edge_cost_s, objective
from .digraph import DiGraph
from .errors import CtwError, InstanceError, ParseError, SchemaError
from .formats import (
    SolutionFile,
    emit_dat,
    emit_dzn,
    emit_json,
    emit_metrics_csv,
    emit_report_csv,
    load_instance,
    parse_dat,
    parse_json,
    parse_solution,
)
from .generate import GenMode, GenParams, anytime_suite, certification_suite, generate, generate_planted
from .model import (
    Instance,
    Permutation,
    Violation,
    ViolationKind,
    partner,
    validate,
)
from .oracle import OracleResult, brute_mas, enumerate_solutions
from .polycases import UnsatCertificate, ds_only_solve, topo_solve, unsat_precheck
from .reduction import extract_mas, mas_to_ctw, parse_edge_list
from .bench import BenchRow, InstanceMetrics, metrics, run_engine, run_suite, validate_external
from .solver import ResultState, SearchState, SolveResult, SolveStats, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "CostBreakdown",
    "CtwError",
    "DiGraph",
    "GenMode",
    "GenParams",
    "Instance",
    "InstanceError",
    "InstanceMetrics",
    "OracleResult",
    "ParseError",
    "Permutation",
    "ResultState",
    "SchemaError",
    "SearchState",
    "SolutionFile",
    "SolveResult",
    "SolveStats",
    "SolverConfig",
    "UnsatCertificate",
    "Violation",
    "ViolationKind",
    "anytime_suite",
    "breakdown",
    "brute_mas",
    "certification_suite",
    "ds_only_solve",
    "edge_cost_s",
    "emit_dat",
    "emit_dzn",
    "emit_json",
    "emit_metrics_csv",
    "emit_report_csv",
    "enumerate_solutions",
    "extract_mas",
    "generate",
    "generate_planted",
    "load_instance",
    "mas_to_ctw",
    "metrics",
    "objective",
    "parse_dat",
    "parse_edge_list",
    "parse_json",
    "parse_solution",
    "partner",
    "run_engine",
    "run_suite",
    "solve",
    "topo_solve",
    "unsat_precheck",
    "validate",
    "validate_external",
]
