"""ctwkit benchmark: four closed-loop workloads, every output checked.

Run from the repository root; the library is imported from ``src/``::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One client keeps one task in flight (the next task starts when the last
one returns), so no task ever waits in a queue. Set-up turns the seed into
a fixed task list and is repeated ``SETUP_REPS`` times (``setup_s`` is the
median). The run then makes whole passes over the list for about
``--seconds``: at least ``MIN_REPEATS`` passes when the list holds
``MIN_SAMPLES`` tasks, otherwise enough passes for ``MIN_SAMPLES``
executions.

Times are reported in reference seconds. The host this benchmark was
sized on changes speed by 10-40% over seconds to minutes (other tenants
share its cores), which no run length averages away. A fixed pure-Python
probe, timed every ``PROBE_EVERY_S`` during the run, measures the current
speed; each time is scaled by ``PROBE_REF_S / probe``, i.e. expressed at
the speed where the probe takes ``PROBE_REF_S``. Raw wall-clock values are
printed on comment lines next to them. A long list is timed per task by
its fastest pass, which also drops spikes shorter than a probe interval.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes an
untraced phase, installs the timing shims of ``tracer.py``, sets up once
more and repeats the same passes traced, then prints the per-layer
metrics (raw seconds) and the tracing overhead.

Every task's fingerprint (node counts, oracle permutations, objectives)
must repeat exactly: across passes, between the traced and untraced
phases, and across runs of the same seed and source, which are compared
through ``.perfbench_state/``. Any failed check is counted in ``failed``
and makes the command exit 1 after printing its result line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
SETUP_REPS = 3
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_REPEATS = 3
PROBE_REF_S = 0.0015  # about the probe's time on a 2.0 GHz Xeon vCPU when unloaded
PROBE_EVERY_S = 0.2

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_s.p50", "s"),
    ("task_s.p90", "s"),
    ("incumbent_ratio", "ratio"),
    ("incumbent_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_library():
    """Import ctwkit from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ctwkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ctwkit from {SRC}: {exc}")
    if not Path(ctwkit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: ctwkit was imported from {ctwkit.__file__}, not {SRC}")


def _probe_kernel(n: int) -> int:
    # tuple allocation, dict stores and list appends, like the library's
    # hot loops; the collector is off, so the heap the workload keeps does
    # not change the probe's time
    gc.disable()
    try:
        slots: dict[int, tuple[int, int]] = {}
        out = []
        for i in range(n):
            t = (i & 255, i >> 3)
            slots[i & 1023] = t
            out.append(t)
        return len(out)
    finally:
        gc.enable()


class SpeedProbe:
    """Tracks the host's current speed as the best of three probe timings."""

    def __init__(self):
        self.history: list[float] = []
        self._at = 0.0
        self.refresh()

    def refresh(self) -> float:
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            _probe_kernel(8_000)
            best = min(best, perf_counter() - t0)
        self.history.append(best)
        self._at = perf_counter()
        return best

    def scale(self) -> float:
        """Factor turning a raw time taken now into reference seconds."""
        if perf_counter() - self._at >= PROBE_EVERY_S:
            self.refresh()
        return PROBE_REF_S / self.history[-1]


@dataclass
class Phase:
    """Samples and checks of one run of whole passes over a task list."""

    passes: int = 0
    raw: list[float] = field(default_factory=list)  # seconds, pass-major
    scaled: list[float] = field(default_factory=list)  # reference seconds
    first: dict = field(default_factory=dict)  # task index -> Outcome of pass 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def measure(tasks, run_task, probe: SpeedProbe, seconds: float, min_samples: int,
            passes: int | None = None, tracer=None) -> Phase:
    """Whole passes until about ``seconds`` have gone, or exactly ``passes``."""
    least = MIN_REPEATS if len(tasks) >= min_samples else -(-min_samples // len(tasks))
    gc.collect()
    ph = Phase()
    start = perf_counter()
    while True:
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task_id = f"{ph.passes}:{i}"
            scale = probe.scale()
            t0 = perf_counter()
            out = run_task(task)
            dt = perf_counter() - t0
            ph.raw.append(dt)
            ph.scaled.append(dt * scale)
            errors = list(out.errors)
            if i not in ph.first:
                ph.first[i] = out
            elif ph.first[i].fingerprint != out.fingerprint:
                errors.append(f"fingerprint {out.fingerprint} != pass 0 {ph.first[i].fingerprint}")
            if errors:
                ph.failed += 1
                ph.errors += [f"task {i} pass {ph.passes}: {e}" for e in errors]
        ph.passes += 1
        if passes is not None:
            if ph.passes >= passes:
                return ph
            continue
        elapsed = perf_counter() - start
        # stop where one more pass would overshoot by more than it falls short
        if ph.passes >= least and elapsed + elapsed / ph.passes / 2 >= seconds:
            return ph


def task_times(phase: Phase, samples: list[float], min_samples: int) -> list[float]:
    """One time per task (its fastest pass) when the list alone holds
    ``min_samples`` tasks; otherwise every execution is a sample."""
    n = len(phase.first)
    if n >= min_samples and phase.passes >= MIN_REPEATS:
        return [min(samples[i::n]) for i in range(n)]
    return samples


def timing_metrics(times: list[float]) -> dict[str, float]:
    return {
        "tasks_per_s": len(times) / sum(times),
        "task_s.p50": statistics.median(times),
        "task_s.p90": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
    }


def incumbent_ratio(phase: Phase) -> float:
    """Geometric mean of (objective + 1) / (reference + 1) over the task list.

    The reference is the oracle optimum (certify), the proven bound
    (exact), the planted solution (anytime) or the audited plant (audit);
    the +1 keeps zero objectives defined.
    """
    logs = [math.log((o.ratio[0] + 1) / (o.ratio[1] + 1))
            for o in phase.first.values() if o.ratio is not None]
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def incumbent_share(phase: Phase) -> float:
    """Share of solvable tasks that returned a solution (on anytime, an incumbent)."""
    solvable = [o for o in phase.first.values() if o.solvable]
    return sum(o.ratio is not None for o in solvable) / len(solvable) if solvable else 1.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_fingerprints(expected: dict, actual: dict, what: str) -> list[str]:
    return [f"task {i}: fingerprint {actual.get(i)} != {what} {fp}"
            for i, fp in expected.items() if actual.get(i) != fp]


def check_across_runs(key: str, phase: Phase) -> list[str]:
    """Compare this run's fingerprints with an earlier run of the same key."""
    fps = {str(i): json.loads(json.dumps(o.fingerprint)) for i, o in phase.first.items()}
    path = STATE / f"fingerprints-{key}.json"
    if path.exists():
        return compare_fingerprints(json.loads(path.read_text()), fps, "an earlier run")
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(fps))
    tmp.replace(path)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "exact", "anytime", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small tasks, for the smoke tests")
    args = ap.parse_args(argv)

    import_library()
    import tracer as tracing
    import workloads

    setup_task_list, run_task = workloads.WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "full"
    size = workloads.SIZES[args.workload][size_name]
    min_samples = 1 if args.tiny else MIN_SAMPLES
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{size_name}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    probe = SpeedProbe()
    comments = []
    try:
        setup_raw, setup_scaled = [], []
        tasks = None
        for rep in range(SETUP_REPS):
            rep_dir = work / f"rep{rep}"
            rep_dir.mkdir(parents=True)
            tasks = None  # each repetition starts from the same heap
            gc.collect()
            before = probe.refresh()
            t0 = perf_counter()
            tasks = setup_task_list(args.seed, size, rep_dir)
            dt = perf_counter() - t0
            setup_raw.append(dt)
            setup_scaled.append(dt * 2 * PROBE_REF_S / (before + probe.refresh()))

        budget = args.seconds / 2 if args.trace else args.seconds
        base = measure(tasks, run_task, probe, budget, min_samples)
        phases = [base]
        extra_errors = check_across_runs(
            f"{args.workload}-{size_name}-{args.seed}-{source_digest()}", base)

        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_dir = work / "traced"
                traced_dir.mkdir()
                traced_tasks = setup_task_list(args.seed, size, traced_dir)
                traced = measure(traced_tasks, run_task, probe, budget, min_samples,
                                 passes=base.passes, tracer=tr)
            finally:
                tr.uninstall()
            phases.append(traced)
            extra_errors += compare_fingerprints(
                {i: o.fingerprint for i, o in base.first.items()},
                {i: o.fingerprint for i, o in traced.first.items()}, "untraced")
            extra_errors += tr.errors
            metrics = tr.metrics()
            per_task_base = statistics.fmean(base.scaled)
            per_task_traced = statistics.fmean(traced.scaled)
            metrics["trace.overhead_s"] = per_task_traced - per_task_base
            metrics["trace.overhead_ratio"] = per_task_traced / per_task_base - 1
            STATE.mkdir(exist_ok=True)
            tr.dump(STATE / f"spans-{args.workload}.jsonl")
            report = {name: (metrics[name], unit)
                      for name, unit in tracing.metric_units().items()}
        else:
            times = task_times(base, base.scaled, min_samples)
            values = {
                "setup_s": statistics.median(setup_scaled),
                **timing_metrics(times),
                "incumbent_ratio": incumbent_ratio(base),
                "incumbent_share": incumbent_share(base),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            report = {name: (values[name], unit) for name, unit in END_TO_END}
            raw = {"setup_s": statistics.median(setup_raw),
                   **timing_metrics(task_times(base, base.raw, min_samples))}
            comments.append("raw wall-clock " + " ".join(f"{k}={v!r}" for k, v in raw.items()))
            comments.append(f"timed samples {len(times)} (p90 has {len(times) // 10} beyond it)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.raw) for p in phases)
    failed = sum(p.failed for p in phases) + len(extra_errors)
    errors = [e for p in phases for e in p.errors] + extra_errors
    for line in errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} size={size_name} trace={args.trace} "
          f"tasks={len(tasks)} passes={base.passes} executions={len(base.raw)}")
    print("# closed loop: 1 client, 1 task in flight, so queue wait is 0 s by construction")
    print(f"# fail_ratio {failed / attempted:.6f} ({failed} of {attempted} attempted)")
    print(f"# speed probe: median {statistics.median(probe.history)!r} s over "
          f"{len(probe.history)} probes, reference {PROBE_REF_S} s")
    for line in comments:
        print(f"# {line}")
    for name, (value, unit) in report.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
