"""Command-line interface.

Main subcommands::

    repro-bt run --hours 24 --seed 7 --out results/        # run + dump
    repro-bt sweep --seeds 8 --jobs 4 --out sweep/          # multi-seed pool
    repro-bt sweep --backend serial --cache-dir ~/.cache/bt # pluggable exec
    repro-bt sweep --rare-boost 8 --target-ci 0.1           # adaptive strata
    repro-bt top sweep/ --follow                            # live sweep status
    repro-bt analyze results/                               # re-analyze a dump
    repro-bt report --hours 24 --seed 7                     # full paper report
    repro-bt report sweep/ --check                          # journal post-mortem
    repro-bt obs --hours 8 --metrics-out m.txt              # instrumented run
    repro-bt cache info --cache-dir ~/.cache/bt             # shard cache admin
    repro-bt lint src                                       # determinism lint

Every campaign-executing subcommand routes through the unified
:mod:`repro.api` facade.

``run`` runs the two testbeds and dumps the repository (JSONL) plus
every rendered table/figure into the output directory; ``analyze``
rebuilds the analyses from a previous dump without re-simulating;
``report`` runs baseline + masked campaigns and prints the whole
evaluation section to stdout; ``obs`` runs a fully instrumented campaign
and prints the observability summary (metrics, engine profile, fault
propagation paths); ``lint`` runs the determinism & sim-safety static
analysis (rules DET001-DET007, exits non-zero on findings — see
:mod:`repro.analysis`); ``sweep`` replicates one campaign over N
deterministically derived seeds on a process pool, checkpoints each
shard, writes the pooled mean/CI statistics table, and (by default)
narrates itself to a run journal watched by a stall watchdog — disable
with ``--no-journal``, tune with ``--heartbeat-interval`` /
``--stall-after`` / ``--stall-policy`` / ``--max-retries``.  ``sweep``
also takes ``--backend`` (serial / process pool / subprocess / SSH, all
byte-identical), ``--cache-dir`` (content-addressed shard reuse across
runs; ``cache info`` / ``cache prune`` administer the store),
``--rare-boost`` / ``--boost-seeds`` (an importance-sampled stratum
that tightens the rare failure classes without bias) and
``--target-ci`` (an adaptive stopping rule on the pooled 95% CIs).
``top``
renders a live (or final) single-screen status over that journal;
``report <dir>`` renders the post-mortem timeline and straggler table
from it (``--check`` validates the journal against the schema and exits
non-zero on violations).  ``run`` accepts ``--metrics-out`` /
``--trace-out`` to instrument a normal run; ``-v/-vv`` raises the
logging verbosity everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import api, configure_logging
from repro.collection.repository import CentralRepository
from repro.collection.store import FailureStore
from repro.core.dependability import build_dependability_report
from repro.obs import Observability
from repro.recovery.masking import MaskingPolicy
from repro.reporting import (
    render_dependability_table,
    render_obs_summary,
)


def infer_node_nap_pairs(repository: FailureStore) -> List[Tuple[str, str]]:
    """Recover (PANU, NAP) pairs from a store's node inventory.

    The NAP of each testbed is the host that never writes user-level
    reports (it only records system-level data).  Works against any
    :class:`~repro.collection.store.FailureStore` backend; only the
    node-name set is held in memory, and each node is probed for its
    first report rather than scanning every report.
    """
    nodes = repository.nodes()
    test_nodes = {
        node for node in nodes
        if next(repository.iter_records(kind="test", node=node), None) is not None
    }
    naps: Dict[str, str] = {}
    for node in nodes:
        testbed = node.split(":", 1)[0]
        if node not in test_nodes and testbed not in naps:
            naps[testbed] = node
    pairs = []
    for node in nodes:
        testbed = node.split(":", 1)[0]
        if node in test_nodes and testbed in naps:
            pairs.append((node, naps[testbed]))
    return pairs


def _analyses_text(
    repository: FailureStore,
    pairs: List[Tuple[str, str]],
) -> str:
    """Render every analysis derivable from a failure store alone."""
    from repro.core.summary import summarize_repository

    return summarize_repository(repository, pairs).render()


def _observability_for(args: argparse.Namespace) -> Optional[Observability]:
    """Build the Observability bundle a command's flags ask for."""
    if not (getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)):
        return None
    return Observability()


def _export_obs(obs: Optional[Observability], args: argparse.Namespace) -> None:
    """Write the --metrics-out / --trace-out artifacts, if requested."""
    if obs is None:
        return
    if getattr(args, "metrics_out", None):
        obs.write_metrics(args.metrics_out)
        print(f"Prometheus metrics written to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        obs.write_trace(args.trace_out)
        print(f"Propagation trace written to {args.trace_out}")


def _reject_batch_observability(args: argparse.Namespace) -> Optional[str]:
    """The error message when batch fidelity meets per-packet flags."""
    if getattr(args, "fidelity", "bit") != "batch":
        return None
    offending = [
        flag
        for attr, flag in (
            ("metrics_out", "--metrics-out"),
            ("trace_out", "--trace-out"),
        )
        if getattr(args, attr, None)
    ]
    if not offending:
        return None
    return (
        f"--fidelity batch does not support {'/'.join(offending)}: "
        "per-packet instrumentation needs the bit-accurate engine "
        "(drop the flag or use --fidelity bit)"
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Run a campaign, dump repository + analysis to --out."""
    error = _reject_batch_observability(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    masking = MaskingPolicy.all_on() if args.masking else MaskingPolicy.all_off()
    obs = _observability_for(args)
    result = api.run(
        duration=args.hours * 3600.0,
        seed=args.seed,
        masking=masking,
        fidelity=args.fidelity,
        observability=obs,
        store=args.store,
    )
    out = Path(args.out)
    result.repository.flush(out)
    text = _analyses_text(result.repository, result.node_nap_pairs())
    (out / "analysis.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    _export_obs(obs, args)
    print(f"\nRepository and analysis written to {out}/")
    if result.store_path is not None:
        print(f"Columnar failure store written to {result.store_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a deterministic multi-seed sweep across a pluggable backend."""
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    error = _reject_batch_observability(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    backend = args.backend
    if backend is not None:
        from repro.parallel.backends import resolve_backend

        try:
            backend = resolve_backend(backend)
        except ValueError as bad:
            print(bad, file=sys.stderr)
            return 2
    try:
        if args.rare_boost < 1.0:
            raise ValueError("--rare-boost must be >= 1")
        if args.boost_seeds < 0:
            raise ValueError("--boost-seeds must be >= 0")
        if args.boost_seeds and args.rare_boost == 1.0:
            raise ValueError("--boost-seeds needs --rare-boost > 1")
        if args.target_ci is not None and args.target_ci <= 0:
            raise ValueError("--target-ci must be > 0")
        if args.target_ci is not None and args.max_seeds < max(args.seeds, 2):
            raise ValueError("--max-seeds must be >= max(--seeds, 2)")
    except ValueError as bad:
        print(bad, file=sys.stderr)
        return 2
    masking = MaskingPolicy.all_on() if args.masking else MaskingPolicy.all_off()
    out = Path(args.out)

    def progress(shard, reused: bool) -> None:
        verb = "reused" if reused else "finished"
        print(
            f"  shard seed {shard.seed}: {verb} "
            f"({shard.total_items} items, {shard.wall_time:.1f} s)"
        )

    telemetry = None
    if not args.no_journal:
        from repro.obs.journal import JOURNAL_NAME, SweepTelemetry

        telemetry = SweepTelemetry(
            journal=out / JOURNAL_NAME,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_deadline=args.stall_after,
            policy=args.stall_policy,
            max_retries=args.max_retries,
            openmetrics_out=args.openmetrics_out,
        )
    print(
        f"Sweeping {args.seeds} seeds x {args.hours:.0f} h "
        f"(root seed {args.seed}, {args.jobs} job(s))..."
    )
    result = api.sweep(
        args.seeds,
        jobs=args.jobs,
        checkpoint_dir=out / "shards",
        with_metrics=args.metrics_out is not None,
        progress=progress,
        telemetry=telemetry,
        backend=backend,
        cache_dir=args.cache_dir,
        rare_boost=args.rare_boost,
        boost_seeds=args.boost_seeds,
        target_ci=args.target_ci,
        max_seeds=args.max_seeds,
        duration=args.hours * 3600.0,
        seed=args.seed,
        masking=masking,
        fidelity=args.fidelity,
        store=args.store,
    )
    text = result.render()
    (out / "sweep.txt").write_text(text + "\n", encoding="utf-8")
    if args.store is None:
        # Legacy JSONL materialisation: forces the full merge in memory.
        result.repository.flush(out / "repository")
    else:
        print(f"Columnar failure store written to {result.store_path}")
    if args.metrics_out:
        from repro.obs import render_prometheus

        Path(args.metrics_out).write_text(
            render_prometheus(result.metrics), encoding="utf-8"
        )
        print(f"Merged Prometheus metrics written to {args.metrics_out}")
    print()
    print(text)
    shard_root = args.cache_dir or out / "shards"
    print(
        f"\n{len(result.shards)} shard(s) ({result.reused} reused, "
        f"{result.cached} from cache) on backend '{result.backend}' in "
        f"{result.wall_time:.1f} s; sweep table and merged repository "
        f"written to {out}/, shards stored in {shard_root}/"
    )
    if result.target_ci is not None:
        verdict = "converged" if result.converged else "NOT converged"
        print(
            f"Adaptive stop: {verdict} at {len(result.shards)} seed(s) "
            f"(target 95% CI width {result.target_ci:g})"
        )
    if result.journal is not None:
        print(
            f"Run journal: {result.journal} "
            f"(inspect with 'repro-bt top {out}' or "
            f"'repro-bt report {out}')"
        )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Administer the content-addressed shard cache (info / prune)."""
    from repro.parallel.cache import CACHE_ENV, ShardCache

    root = args.cache_dir or os.environ.get(CACHE_ENV)
    if not root:
        print(
            f"no cache directory: pass --cache-dir or set ${CACHE_ENV}",
            file=sys.stderr,
        )
        return 2
    cache = ShardCache(root)
    if args.action == "info":
        stats = cache.stats()
        print(f"Shard cache at {cache.root}")
        print(f"  entries: {stats.entries}")
        print(f"  size:    {stats.total_bytes} bytes")
        return 0
    # prune
    if args.max_bytes is None or args.max_bytes < 0:
        print("prune needs --max-bytes >= 0", file=sys.stderr)
        return 2
    report = cache.prune(args.max_bytes)
    print(
        f"pruned {report['dropped']} entr{'y' if report['dropped'] == 1 else 'ies'} "
        f"({report['freed_bytes']} bytes freed, "
        f"{report['kept_bytes']} bytes kept)"
    )
    return 0


def _journal_path(target: str) -> Path:
    """Resolve a journal target: a journal file or a sweep directory."""
    from repro.obs.journal import JOURNAL_NAME

    path = Path(target)
    if path.is_dir():
        return path / JOURNAL_NAME
    return path


def cmd_top(args: argparse.Namespace) -> int:
    """Render the live single-screen sweep status over a run journal."""
    from repro.obs.campaign import SweepMonitor, render_top
    from repro.obs.journal import JournalReader

    path = _journal_path(args.target)
    if not path.exists():
        print(f"no run journal at {path}", file=sys.stderr)
        return 1
    reader = JournalReader(path)
    monitor = SweepMonitor()
    while True:
        monitor.feed(reader.poll())
        text = render_top(monitor, time.time(), deadline=args.stall_after)
        if not args.follow:
            print(text)
            return 0
        # Home the cursor and clear below: a flicker-free live screen.
        print(f"\x1b[H\x1b[J{text}", flush=True)
        if monitor.finished:
            return 0
        time.sleep(args.interval)


def _journal_report(args: argparse.Namespace) -> int:
    """The journal branch of ``report``: post-mortem or --check."""
    from repro.obs.campaign import render_report
    from repro.obs.journal import JOURNAL_VERSION, read_journal, validate_journal

    path = _journal_path(args.target)
    errors = validate_journal(path)
    if args.check:
        if errors:
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
            print(f"journal FAILED validation: {path}", file=sys.stderr)
            return 1
        events = read_journal(path)
        print(
            f"journal OK: {path} ({len(events)} event(s), "
            f"schema v{JOURNAL_VERSION})"
        )
        return 0
    if not path.exists():
        print(f"no run journal at {path}", file=sys.stderr)
        return 1
    print(render_report(read_journal(path)))
    if errors:
        print(
            f"\nwarning: {len(errors)} schema violation(s); "
            f"run 'repro-bt report {args.target} --check' for details",
            file=sys.stderr,
        )
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run a fully instrumented campaign and print the obs summary."""
    obs = Observability()
    api.run(duration=args.hours * 3600.0, seed=args.seed, observability=obs)
    print(render_obs_summary(obs))
    _export_obs(obs, args)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism static analysis; exit 1 on findings."""
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _open_failure_store(target: str) -> FailureStore:
    """Open either persisted backend: a JSONL directory or a SQLite file."""
    path = Path(target)
    if path.is_file():
        from repro.collection.store import SQLiteStore

        return SQLiteStore.open(path)
    return CentralRepository.open(path)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Re-analyze a previously persisted repository or columnar store."""
    from repro.collection.store import StoreError

    try:
        repository = _open_failure_store(args.directory)
    except StoreError as bad:
        print(f"{args.directory}: {bad}", file=sys.stderr)
        return 1
    if repository.total_items == 0:
        print(f"no records found under {args.directory}", file=sys.stderr)
        return 1
    pairs = infer_node_nap_pairs(repository)
    print(_analyses_text(repository, pairs))
    repository.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Query a columnar failure store: records, counters, tables, pairs."""
    import json

    from repro.collection.store import StoreError

    path = Path(args.store)
    if not path.exists():
        print(f"no failure store at {path}", file=sys.stderr)
        return 2
    try:
        store = _open_failure_store(args.store)
    except StoreError as bad:
        print(f"{path}: {bad}", file=sys.stderr)
        return 2
    try:
        if args.summary:
            for key, value in sorted(store.summary().items()):
                print(f"{key}: {value}")
            return 0
        if args.tables:
            pairs = infer_node_nap_pairs(store)
            print(_analyses_text(store, pairs))
            return 0
        if args.relationships:
            from repro.core.relationship import build_relationship_table
            from repro.reporting import render_relationship_table

            pairs = infer_node_nap_pairs(store)
            table = build_relationship_table(store, pairs)
            print(render_relationship_table(table))
            lines = []
            for user_type in sorted(table.observed, key=lambda u: u.name):
                cause = table.strongest_cause(user_type)
                if cause is None:
                    continue
                pct = table.row_percentages(user_type).get(cause, 0.0)
                lines.append(f"  {user_type.value} <- {cause} ({pct:.1f}% of evidence)")
            if lines:
                print("\nStrongest error->failure pairs:")
                print("\n".join(lines))
            return 0
        if args.kind != "test" and args.sira is not None:
            print("--sira filters user-level (test) records only", file=sys.stderr)
            return 2
        severity_of = None
        if args.sira is not None:
            from repro.core.sira_analysis import record_severity

            severity_of = record_severity
        shown = 0
        for record in store.iter_records(
            kind=args.kind,
            node=args.node,
            testbed=args.testbed,
            start=args.start,
            end=args.end,
        ):
            if severity_of is not None and severity_of(record) != args.sira:
                continue
            print(json.dumps(record.to_dict(), sort_keys=True))
            shown += 1
            if args.limit is not None and shown >= args.limit:
                break
        print(f"{shown} record(s)", file=sys.stderr)
        return 0
    finally:
        store.close()


def cmd_report(args: argparse.Namespace) -> int:
    """Full paper report — or, given a sweep dir, the journal post-mortem."""
    if args.target is not None:
        return _journal_report(args)
    if args.check:
        print("--check needs a journal target", file=sys.stderr)
        return 2
    print(f"Baseline campaign ({args.hours:.0f} h, seed {args.seed})...")
    baseline = api.run(duration=args.hours * 3600.0, seed=args.seed)
    print(f"Masked campaign   ({args.hours:.0f} h, seed {args.seed + 1})...")
    masked = api.run(
        duration=args.hours * 3600.0,
        seed=args.seed + 1,
        masking=MaskingPolicy.all_on(),
    )
    print()
    print(_analyses_text(baseline.repository, baseline.node_nap_pairs()))
    report = build_dependability_report(
        baseline.unmasked_failures(),
        masked.unmasked_failures(),
        masked.masked_count(),
    )
    print()
    print(render_dependability_table(report))
    print(
        f"\nAvailability improvement vs reboot-only: "
        f"{report.availability_improvement_vs_reboot:.1f}% | "
        f"reliability improvement: {report.reliability_improvement:.0f}%"
    )
    return 0


def cmd_scorecard(args: argparse.Namespace) -> int:
    """Grade the paper's claims; exit 1 when the pass rate drops."""
    from repro.core.scorecard import evaluate

    print(f"Baseline campaign ({args.hours:.0f} h, seed {args.seed})...")
    baseline = api.run(duration=args.hours * 3600.0, seed=args.seed)
    print(f"Masked campaign   ({args.hours:.0f} h, seed {args.seed + 1})...")
    masked = api.run(
        duration=args.hours * 3600.0,
        seed=args.seed + 1,
        masking=MaskingPolicy.all_on(),
    )
    scorecard = evaluate(baseline, masked)
    print()
    print(scorecard.render())
    return 0 if scorecard.pass_rate >= 0.9 else 1


def build_parser() -> argparse.ArgumentParser:
    """The repro-bt argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bt",
        description="Bluetooth PAN failure-data campaigns and analyses "
        "(reproduction of Cinque et al., DSN 2006).",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise logging verbosity (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one campaign through repro.api and dump it"
    )
    run.add_argument("--hours", type=float, default=24.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--masking", action="store_true",
                     help="enable the three masking strategies")
    run.add_argument("--out", default="campaign_out")
    run.add_argument("--fidelity", choices=("bit", "batch"),
                     default="bit",
                     help="execution mode: bit-accurate per-packet "
                          "engine (default) or vectorised batch "
                          "fast path (~10x faster, statistically "
                          "equivalent, no per-packet flags)")
    run.add_argument("--metrics-out", default=None,
                     help="write Prometheus text exposition here")
    run.add_argument("--trace-out", default=None,
                     help="write the JSONL propagation trace here")
    run.add_argument("--store", default=None,
                     help="also spill the repository into a columnar "
                          "SQLite failure store at this path "
                          "(query it with 'repro-bt query')")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a multi-seed sweep across a process pool"
    )
    sweep.add_argument("--hours", type=float, default=16.0)
    sweep.add_argument("--seed", type=int, default=0,
                       help="root seed the shard seeds derive from")
    sweep.add_argument("--seeds", type=int, default=4,
                       help="number of replicate campaigns to run")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial, same results)")
    sweep.add_argument("--masking", action="store_true",
                       help="enable the three masking strategies")
    sweep.add_argument("--fidelity", choices=("bit", "batch"), default="bit",
                       help="execution mode: bit-accurate per-packet engine "
                            "(default) or vectorised batch fast path")
    sweep.add_argument("--out", default="sweep_out",
                       help="output directory; without --cache-dir its "
                            "shards/ subdirectory is the shard store, so "
                            "re-running resumes")
    sweep.add_argument("--metrics-out", default=None,
                       help="write the merged Prometheus exposition here")
    sweep.add_argument("--no-journal", action="store_true",
                       help="disable the run journal / watchdog telemetry")
    sweep.add_argument("--heartbeat-interval", type=float, default=2.0,
                       help="worker liveness ping cadence, wall seconds")
    sweep.add_argument("--stall-after", type=float, default=30.0,
                       help="flag a started shard stalled after this much "
                            "silence (wall seconds)")
    sweep.add_argument("--stall-policy", choices=("log", "requeue", "abort"),
                       default="log",
                       help="what the watchdog does about a stalled shard")
    sweep.add_argument("--max-retries", type=int, default=1,
                       help="extra attempts per shard under --stall-policy "
                            "requeue")
    sweep.add_argument("--openmetrics-out", default=None,
                       help="refresh an OpenMetrics textfile here while "
                            "the sweep runs")
    sweep.add_argument("--backend", default=None,
                       help="execution backend: 'process' (default), "
                            "'serial', 'subprocess', or 'ssh:host1,host2' — "
                            "all byte-identical")
    sweep.add_argument("--cache-dir", default=os.environ.get("REPRO_BT_CACHE"),
                       help="content-addressed shard cache root (default: "
                            "$REPRO_BT_CACHE); repeated/overlapping sweeps "
                            "reuse completed shards")
    sweep.add_argument("--rare-boost", type=float, default=1.0,
                       help="importance-sampling boost (> 1) for the rare "
                            "failure classes in a second seed stratum")
    sweep.add_argument("--boost-seeds", type=int, default=0,
                       help="boosted-stratum size (default: matches --seeds "
                            "when --rare-boost > 1)")
    sweep.add_argument("--target-ci", type=float, default=None,
                       help="grow the seed strata until every pooled "
                            "statistic's 95%% CI is under this relative "
                            "width (e.g. 0.1 = 10%%)")
    sweep.add_argument("--max-seeds", type=int, default=64,
                       help="seed budget for --target-ci growth")
    sweep.add_argument("--store", default=None,
                       help="spill every shard into a columnar SQLite "
                            "failure store at this path instead of "
                            "materialising the merged JSONL repository; "
                            "an existing store there is replaced "
                            "(query it with 'repro-bt query')")
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or prune the content-addressed shard cache"
    )
    cache.add_argument("action", choices=("info", "prune"),
                       help="info: entry count and size; prune: drop "
                            "oldest entries down to --max-bytes")
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: $REPRO_BT_CACHE)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="size budget the store is pruned down to")
    cache.set_defaults(func=cmd_cache)

    top = sub.add_parser(
        "top", help="single-screen live status of a (running) sweep journal"
    )
    top.add_argument("target",
                     help="sweep output directory or journal.jsonl path")
    top.add_argument("--follow", action="store_true",
                     help="keep refreshing until the sweep finishes")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period with --follow, seconds")
    top.add_argument("--stall-after", type=float, default=30.0,
                     help="highlight shards silent past this many seconds")
    top.set_defaults(func=cmd_top)

    lint = sub.add_parser(
        "lint",
        help="determinism & sim-safety static analysis (DET001-DET007)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="re-analyze a persisted repository (JSONL dir or SQLite store)",
    )
    analyze.add_argument("directory",
                         help="JSONL repository directory or columnar "
                              "SQLite store file")
    analyze.set_defaults(func=cmd_analyze)

    query = sub.add_parser(
        "query",
        help="query a persisted failure store: records, counters, tables",
    )
    query.add_argument("store",
                       help="columnar SQLite store file (from --store) or "
                            "JSONL repository directory")
    query.add_argument("--kind", choices=("test", "system"), default="test",
                       help="record stream to list (default: test)")
    query.add_argument("--node", default=None,
                       help="only records from this node, e.g. random:panu-1")
    query.add_argument("--testbed", default=None,
                       help="only records from this testbed ('random' or "
                            "'realistic')")
    query.add_argument("--start", type=float, default=None,
                       help="window start, sim seconds (inclusive)")
    query.add_argument("--end", type=float, default=None,
                       help="window end, sim seconds (inclusive)")
    query.add_argument("--sira", type=int, default=None,
                       help="only user failures cleared by this SIRA level "
                            "(1-7); test records only")
    query.add_argument("--limit", type=int, default=None,
                       help="stop after this many records")
    query.add_argument("--summary", action="store_true",
                       help="print the headline counters instead of records")
    query.add_argument("--tables", action="store_true",
                       help="render the full Table 1-4 analysis text "
                            "(byte-identical to 'repro-bt analyze')")
    query.add_argument("--relationships", action="store_true",
                       help="render the mined error->failure relationship "
                            "pairs (Table 2) with the strongest cause per "
                            "failure class")
    query.set_defaults(func=cmd_query)

    report = sub.add_parser(
        "report",
        help="full paper-style report, or a sweep-journal post-mortem",
    )
    report.add_argument("target", nargs="?", default=None,
                        help="sweep output directory or journal.jsonl: "
                             "render its post-mortem instead of running "
                             "campaigns")
    report.add_argument("--hours", type=float, default=24.0)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--check", action="store_true",
                        help="validate the journal against the schema and "
                             "exit non-zero on violations (needs a target)")
    report.set_defaults(func=cmd_report)

    scorecard = sub.add_parser(
        "scorecard", help="grade the paper's claims against fresh campaigns"
    )
    scorecard.add_argument("--hours", type=float, default=16.0)
    scorecard.add_argument("--seed", type=int, default=77)
    scorecard.set_defaults(func=cmd_scorecard)

    obs = sub.add_parser(
        "obs", help="run an instrumented campaign and print the obs summary"
    )
    obs.add_argument("--hours", type=float, default=8.0)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--metrics-out", default=None,
                     help="write Prometheus text exposition here")
    obs.add_argument("--trace-out", default=None,
                     help="write the JSONL propagation trace here")
    obs.set_defaults(func=cmd_obs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — the Unix
        # convention is to exit quietly, not dump a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
