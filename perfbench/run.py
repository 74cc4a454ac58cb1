"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-grow --seed 2006 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
five fresh set-up processes, each importing the package, building the
workload's fixture and running a warm-up repetition), then closed-loop
repetitions of the request for ``--seconds`` seconds in this process;
``tables_s`` is their median and ``peak_rss_mb`` this process's peak
resident memory (the fixture is built in the set-up processes, so it
does not count).  ``--trace 1`` runs the request three times -- plain,
with per-layer spans, and under ``cProfile`` (bit-sweep adds a fourth
with the metrics registry on, for the stack counters) -- and prints
every per-layer metric of ``BENCHMARK.json``.

Each repetition is timed up to its rendered output; the output check
(see :func:`perfbench.pipeline.check`) runs after the clock stops.  A
mismatch or an exception counts as a failed operation.  The last line
of standard output is the result object; the line before it stamps the
environment (Python, ``nproc``, working filesystem, ``host.ref_s``).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Metrics by name ({"value", "unit"}) and the raw samples behind them.
Result = Tuple[Dict[str, dict], Dict[str, List[float]]]

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Working files go here, inside the checkout, and are removed after.
WORK_ROOT = ROOT / ".perfbench-work"


def host_reference() -> float:
    """Seconds for a fixed pure-Python kernel (a host-speed diagnostic)."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total = (total + i * i) % 1_000_003
    return time.perf_counter() - started


def filesystem(path: Path) -> str:
    """The filesystem type ``path`` lives on, from ``/proc/mounts``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    entries = json.loads(BENCHMARK.read_text(encoding="utf-8"))[kind]
    return {entry["name"]: entry["unit"] for entry in entries}


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from perfbench.pipeline import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="root seed of the request (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed loop runs (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def warm_up(workload, work: Path, seed: int) -> None:
    """Run the request once at its small warm-up size."""
    warm = work / "warm-up"
    workload.setup(warm, workload.warmup, seed)
    workload.reset(warm, workload.warmup, seed)
    workload.run(warm, workload.warmup, seed)()
    shutil.rmtree(warm, ignore_errors=True)


def setup_child(workload, work: Path, seed: int) -> int:
    """Everything a fresh process does before its first timed repetition."""
    workload.setup(work, workload.params, seed)
    warm_up(workload, work, seed)
    return 0


def timed_setup(args: argparse.Namespace, work: Path) -> List[float]:
    """Set the fixture up in fresh processes; the last one's is kept."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-child", str(work)],
            check=True, cwd=str(ROOT),
        )
        seconds.append(time.perf_counter() - started)
    return seconds


class Ledger:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self, workload, seed: int) -> None:
        from perfbench.pipeline import committed

        self.workload = workload
        self.reference = committed(workload.name, seed)
        self.committed = self.reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, outcome, error: Optional[str]) -> None:
        from perfbench.pipeline import check

        self.attempted += 1
        if error is None and self.reference is None:
            self.reference = {"fingerprint": outcome.fingerprint, "items": outcome.items}
        problems = [error] if error is not None else check(
            self.workload, outcome, self.reference
        )
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def measure(args: argparse.Namespace, workload, work: Path, ledger: Ledger) -> Result:
    """The end-to-end metrics (``--trace 0``) and the samples behind them."""
    from perfbench.pipeline import timed

    setups = timed_setup(args, work)
    warm_up(workload, work, args.seed)
    samples: List[float] = []
    started = time.perf_counter()
    while True:
        workload.reset(work, workload.params, args.seed)
        gc.collect()
        seconds, outcome, error = timed(
            lambda: workload.run(work, workload.params, args.seed)
        )
        ledger.record(outcome, error)
        samples.append(seconds)
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * statistics.median(samples) >= args.seconds:
            break
    values = {
        "tables_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units("end_to_end").items()
    }, {"tables_s": samples, "setup_s": setups}


def traced(args: argparse.Namespace, workload, work: Path, ledger: Ledger) -> Result:
    """The per-layer metrics (``--trace 1``) and the repetition times."""
    from perfbench import trace
    from perfbench.pipeline import timed

    workload.setup(work, workload.params, args.seed)
    warm_up(workload, work, args.seed)

    def repetition(**options):
        workload.reset(work, workload.params, args.seed)
        gc.collect()
        seconds, outcome, error = timed(
            lambda: workload.run(work, workload.params, args.seed, **options)
        )
        ledger.record(outcome, error)
        return seconds, outcome

    plain_s, _ = repetition()
    spans = trace.Spans()
    with trace.installed(spans):
        traced_s, outcome = repetition(trace=True)
    profile = cProfile.Profile()
    profile.enable()
    try:
        repetition()
    finally:
        profile.disable()
    facts = dict(outcome.facts if outcome else {})
    if workload.name == "bit-sweep":
        _, metered = repetition(with_metrics=True)
        facts.update(metered.facts if metered else {})
    values = layer_values(spans, facts, outcome, plain_s, traced_s)
    values.update(trace.module_self_times(profile, SRC))
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in metric_units("per_layer").items()
    }
    # Modules under 1% of every workload are not listed one by one.
    metrics["src.other.self_s"]["value"] += sum(
        value for name, value in values.items()
        if name.endswith(".self_s") and name not in metrics
    )
    return metrics, {"tables_s": [plain_s, traced_s]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(spans, facts, outcome, plain_s: float, traced_s: float) -> Dict[str, float]:
    """Per-layer metric values from one traced repetition."""
    s = spans.get
    counts = spans.counts
    items = outcome.items if outcome else 0
    hits = outcome.counts.get("cache_hits", 0) if outcome else 0
    misses = outcome.counts.get("cache_misses", 0) if outcome else 0
    attributed = sum(s(name) for name in (
        "sim.run", "parallel.shard.summarise", "parallel.cache.get",
        "parallel.cache.put", "collection.store.ingest",
    ))
    return {
        "sim.run_s": s("sim.run"),
        "sim.events": counts["sim.events"],
        "sim.events_per_s": _ratio(counts["sim.events"], s("sim.run")),
        "sim.sim_s_per_s": _ratio(counts["sim.simulated_s"], s("sim.run")),
        "sim.cycles": counts["sim.cycles"],
        "parallel.shard.summarise_s": s("parallel.shard.summarise"),
        "parallel.shard.encode_s": s("parallel.shard.encode"),
        "parallel.shard.decode_s": s("parallel.shard.decode"),
        "parallel.shard.payload_mb": facts.get("parallel.shard.payload_mb", 0.0),
        "parallel.cache.get_s": s("parallel.cache.get"),
        "parallel.cache.put_s": s("parallel.cache.put"),
        "parallel.cache.hits": hits,
        "parallel.cache.misses": misses,
        "parallel.cache.hit_ratio": _ratio(hits, hits + misses),
        "parallel.sweep.pool_s": s("parallel.sweep.pool"),
        "parallel.sweep.residual_s": (
            s("parallel.sweep") - attributed if s("parallel.sweep") else 0.0
        ),
        "obs.journal.events": facts.get("obs.journal.events", 0),
        "obs.journal.kb": facts.get("obs.journal.kb", 0.0),
        "collection.repository.merge_s": s("collection.repository.merge"),
        "collection.store.ingest_s": s("collection.store.ingest"),
        "collection.store.ingest_per_s": _ratio(items, s("collection.store.ingest")),
        "collection.store.mb": facts.get("collection.store.mb", 0.0),
        "collection.store.scan_s": s("collection.store.scan"),
        "core.merge.stream_s": s("core.merge.stream"),
        "core.coalescence.coalesce_s": s("core.coalescence.coalesce"),
        "core.relationship.build_s": s("core.relationship.build"),
        "core.sira_analysis.build_s": s("core.sira_analysis.build"),
        "core.summary.statistics_s": s("core.summary.statistics"),
        "core.summary.render_s": s("core.summary.render"),
        "core.summary.items_per_s": _ratio(items, s("core.summary.render")),
        "collection.items": items,
        **{name: value for name, value in facts.items()
           if name.startswith(("bluetooth.", "faults."))},
        "trace.overhead_ratio": _ratio(traced_s, plain_s),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, one process each, with a summary table."""
    from perfbench.pipeline import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode or not lines:
            print(f"{name}: exit {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for metric, value in result["metrics"].items():
            rows.append(f"{name:<16} {metric:<34} {value['value']:>14.6g} {value['unit']}")
        rows.append(
            f"{name:<16} {'failed/attempted':<34} "
            f"{result['failed']:>7}/{result['attempted']}"
        )
    print("\n".join(rows))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The script's own directory must not shadow standard modules
    # (``trace``): import the benchmark as the ``perfbench`` package.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    from perfbench.pipeline import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_child is not None:
        return setup_child(workload, Path(args.setup_child), args.seed)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger(workload, args.seed)
    reference_before = host_reference()
    try:
        if args.trace:
            metrics, samples = traced(args, workload, work, ledger)
        else:
            metrics, samples = measure(args, workload, work, ledger)
        filesystem_kind = filesystem(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    reference_after = host_reference()
    if args.trace:
        metrics["host.ref_s"]["value"] = (reference_before + reference_after) / 2
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": (ledger.reference or {}).get("fingerprint"),
        "items": (ledger.reference or {}).get("items"),
        "committed_fingerprint": ledger.committed,
        "problems": ledger.problems,
        "samples": samples,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "filesystem": filesystem_kind,
            "host.ref_s": [reference_before, reference_after],
            "process_s": time.perf_counter() - _PROCESS_START,
        },
    }))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
