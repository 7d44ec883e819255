"""Timing shims for the traced benchmark run.

The shims wrap public ctwkit functions at run time; nothing under ``src/``
is edited. Every binding of a wrapped function is replaced, including the
names other ctwkit modules imported (``ctwkit.solver.breakdown``,
``ctwkit.bench.load_instance``, ...), so calls made inside the library are
seen too. Calls at module boundaries become spans (name, start, end,
parent span, task id) kept in memory until the run ends. The hot
``SearchState`` methods are called hundreds of thousands of times per
second, so they only get a call counter and busy time.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import sys
from time import perf_counter

SPAN_CALLS = (
    ("generate", "generate_planted"),
    ("formats", "load_instance"),
    ("formats", "parse_solution"),
    ("model", "validate"),
    ("costs", "breakdown"),
    ("polycases", "unsat_precheck"),
    ("polycases", "topo_solve"),
    ("solver", "solve"),
    ("oracle", "enumerate_solutions"),
    ("oracle", "brute_mas"),
    ("reduction", "mas_to_ctw"),
    ("reduction", "extract_mas"),
    ("bench", "validate_external"),
)
HOT_METHODS = ("place", "unplace", "extend_candidates", "lower_bound", "forced_cycle")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    units = {}
    for mod, fn in SPAN_CALLS:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.busy_s"] = "s"
    units["solver.solve.self_s"] = "s"
    for m in HOT_METHODS:
        units[f"solver.{m}.calls"] = "count"
        units[f"solver.{m}.busy_s"] = "s"
    units.update({
        "solver.nodes": "count",
        "solver.nodes_per_s": "1/s",
        "solver.forced_cycle.hit_ratio": "ratio",
        "solver.leaves": "count",
        "solver.placements_per_node": "ratio",
        "solver.bound_prune_ratio": "ratio",
        "oracle.perms": "count",
        "oracle.perms_per_s": "1/s",
        "oracle.valid_ratio": "ratio",
        "formats.parse_mb_per_s": "MB/s",
        "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


class _CountingItertools:
    """Stands in for ``itertools`` inside ``ctwkit.oracle``.

    ``permutations`` is passed through ``zip`` with a counter, so the
    number of orders the oracle actually pulled (``brute_mas`` may stop
    early) is read off the counter afterwards at C speed.
    """

    def __init__(self):
        self.counters: list = []

    def __getattr__(self, name):
        return getattr(itertools, name)

    def permutations(self, *args):
        counter = itertools.count()
        self.counters.append(counter)
        return map(operator.itemgetter(0), zip(itertools.permutations(*args), counter))

    def drain(self) -> int:
        pulled = sum(next(c) for c in self.counters)
        self.counters.clear()
        return pulled


class Tracer:
    """Owns the spans and counters of one traced phase; install/uninstall
    swap the shims in and out."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.task_id = "setup"
        self.hot = {m: [0, 0.0] for m in HOT_METHODS}
        self.cycle_hits = 0
        self.leaves = 0
        self.nodes = 0
        self.prunes = 0
        self.perms = 0
        self.enumerated = 0
        self.valid = 0
        self.parsed_bytes = 0
        self.errors: list[str] = []
        self._restore: list = []
        self._perm_counter = _CountingItertools()

    # -- installation ------------------------------------------------------

    def install(self):
        import ctwkit
        import ctwkit.oracle
        import ctwkit.solver

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ctwkit" or name.startswith("ctwkit."))]
        for mod, fn in SPAN_CALLS:
            orig = getattr(sys.modules[f"ctwkit.{mod}"], fn)
            shim = self._span_shim(f"{mod}.{fn}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._swap(m, attr, shim)
        cls = ctwkit.solver.SearchState
        for name in HOT_METHODS:
            self._swap(cls, name, self._hot_shim(name, getattr(cls, name)))
        self._swap(ctwkit.oracle, "itertools", self._perm_counter)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _swap(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_shim(self, name, fn):
        spans, stack = self.spans, self._stack
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)

        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            token = before(args) if before else None
            idx = len(spans)
            spans.append((name,))  # completed in the finally below
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task_id)
            if after:
                after(args, result, parent, token)
            return result

        shim.__wrapped__ = fn
        return shim

    def _hot_shim(self, name, fn):
        rec = self.hot[name]
        if name == "forced_cycle":
            def shim(state):
                start = perf_counter()
                hit = fn(state)
                rec[1] += perf_counter() - start
                rec[0] += 1
                if hit:
                    self.cycle_hits += 1
                return hit
        else:
            def shim(state, *args):
                start = perf_counter()
                result = fn(state, *args)
                rec[1] += perf_counter() - start
                rec[0] += 1
                return result
        shim.__wrapped__ = fn
        return shim

    # -- per-call accounting ----------------------------------------------

    def _before_solve(self, args):
        return (self.hot["place"][0], self.cycle_hits, self.leaves)

    def _after_solve(self, args, result, parent, token):
        from ctwkit.solver import ResultState

        place0, hits0, leaves0 = token
        nodes = result.stats.nodes_expanded
        self.nodes += nodes
        cfg = args[1] if len(args) > 1 else None
        # a node-limit stop happens after one placement that neither
        # prunes nor creates a node
        stopped = int(
            result.state in (ResultState.SUBOPTIMAL, ResultState.UNSOLVED)
            and cfg is not None and cfg.node_limit is not None
            and nodes >= cfg.node_limit
        )
        self.prunes += ((self.hot["place"][0] - place0) - (self.cycle_hits - hits0)
                        - (self.leaves - leaves0) - max(nodes - 1, 0) - stopped)

    def _after_breakdown(self, args, result, parent, token):
        if parent >= 0 and self.spans[parent][0] == "solver.solve":
            self.leaves += 1

    def _after_load_instance(self, args, result, parent, token):
        self.parsed_bytes += os.path.getsize(args[0])

    def _after_enumerate_solutions(self, args, result, parent, token):
        pulled = self._perm_counter.drain()
        if pulled != result.enumerated:
            self.errors.append(
                f"oracle reported {result.enumerated} permutations but pulled {pulled}")
        self.perms += pulled
        self.enumerated += result.enumerated
        self.valid += result.valid_count

    def _after_brute_mas(self, args, result, parent, token):
        self.perms += self._perm_counter.drain()

    # -- summary ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values; ``trace.*`` entries are filled in by the caller."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_busy = 0.0
        for name, start, end, parent, task in self.spans:
            if task == "setup" and not name.startswith("generate."):
                continue  # set-up prices plants and writes files; only generate is its layer
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0 and self.spans[parent][0] == "solver.solve":
                child_busy += end - start
        out: dict[str, float] = {}
        for mod, fn in SPAN_CALLS:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
        hot_busy = sum(rec[1] for rec in self.hot.values())
        solve_busy = busy.get("solver.solve", 0.0)
        out["solver.solve.self_s"] = (solve_busy - child_busy - hot_busy) if solve_busy else 0.0
        for m, (n, t) in self.hot.items():
            out[f"solver.{m}.calls"] = n
            out[f"solver.{m}.busy_s"] = t
        place = self.hot["place"][0]
        fc_calls = self.hot["forced_cycle"][0]
        oracle_busy = busy.get("oracle.enumerate_solutions", 0.0) + busy.get("oracle.brute_mas", 0.0)
        load_busy = busy.get("formats.load_instance", 0.0)
        out.update({
            "solver.nodes": self.nodes,
            "solver.nodes_per_s": self.nodes / solve_busy if solve_busy else 0.0,
            "solver.forced_cycle.hit_ratio": self.cycle_hits / fc_calls if fc_calls else 0.0,
            "solver.leaves": self.leaves,
            "solver.placements_per_node": place / self.nodes if self.nodes else 0.0,
            "solver.bound_prune_ratio": self.prunes / place if place else 0.0,
            "oracle.perms": self.perms,
            "oracle.perms_per_s": self.perms / oracle_busy if oracle_busy else 0.0,
            "oracle.valid_ratio": self.valid / self.enumerated if self.enumerated else 0.0,
            "formats.parse_mb_per_s": self.parsed_bytes / 1e6 / load_busy if load_busy else 0.0,
        })
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, task."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        os.replace(tmp, path)
