"""One sweep shard: run a campaign replicate, ship a compact summary.

A live :class:`~repro.core.campaign.CampaignResult` drags the whole
simulator object graph along (testbeds, stacks, scheduled callbacks) —
far too heavy, and not picklable, for crossing a process boundary.
:class:`ShardResult` is the wire format instead: the repository as rows
(:mod:`repro.collection.store`), aggregated cycle statistics, the
metrics snapshot, and the per-seed Table 1-4 scalars, all JSON-able so
the same payload serves the process pool *and* the on-disk checkpoint
files.

:func:`run_shard` is the pool's worker entry point and is deliberately a
module-level function: it must be importable by name under every
multiprocessing start method (fork, spawn, forkserver).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.collection.repository import CentralRepository
from repro.collection.store import Row, check_rows, share_text
from repro.core.campaign import CampaignResult, CampaignSpec
from repro.core.summary import campaign_statistics, importance_estimates
from repro.obs.journal import (
    SHARD_COMPLETED,
    SHARD_FAILED,
    SHARD_HEARTBEAT,
    SHARD_PROGRESS,
    SHARD_STARTED,
    JournalWriter,
    ShardTelemetry,
    peak_rss_kb,
)

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.sim import Simulator

#: Version tag of the shard payload schema; bumped on layout changes so
#: stale checkpoint files are recomputed instead of mis-parsed.
#: 2: added the ``events`` engine-event counter.
#: 3: added ``boost`` and the importance-sampling ``estimates`` dict.
#: 4: ``repository`` records as positional rows instead of dicts.
PAYLOAD_VERSION = 4


@dataclass
class ShardResult:
    """Everything one campaign replicate contributes to a sweep."""

    seed: int
    duration: float
    #: Wall-clock seconds the replicate took inside its worker.
    wall_time: float
    #: The central repository as :meth:`CentralRepository.to_payload`
    #: rows; None once a sweep has released them to its shard store
    #: (read them back through the sweep, not the shard).
    repository_payload: Optional[Dict[str, List[Row]]]
    #: (PANU, NAP) log-identifier pairs, for relationship analyses.
    node_nap_pairs: List[Tuple[str, str]]
    #: Aggregated per-testbed cycle statistics (client stats summed).
    cycle_stats: Dict[str, Dict[str, object]]
    #: Flat Table 1-4 scalars (see :func:`campaign_statistics`).
    statistics: Dict[str, float]
    #: Metrics registry snapshot (empty when the shard ran unmetered).
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: Engine events the replicate processed (deterministic per spec+seed).
    events: int = 0
    #: Importance-sampling boost the replicate ran under (1.0 = nominal).
    boost: float = 1.0
    #: Reweighted Table 1-4 estimates when ``boost != 1`` (see
    #: :func:`repro.core.summary.importance_estimates`); empty otherwise.
    estimates: Dict[str, float] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_campaign(
        cls,
        result: CampaignResult,
        wall_time: float = 0.0,
        spec: Optional[CampaignSpec] = None,
    ) -> "ShardResult":
        """Summarize a finished campaign into shippable form.

        ``spec`` lets a boosted replicate attach its reweighted
        estimates; without it (or at ``rare_boost == 1``) the shard is
        nominal and byte-identical to the pre-boost payload semantics.
        """
        pairs = result.node_nap_pairs()
        metrics: Dict[str, dict] = {}
        if result.observability is not None:
            metrics = result.observability.registry.snapshot()
        boost = 1.0
        estimates: Dict[str, float] = {}
        if spec is not None and spec.rare_boost != 1.0:
            boost = spec.rare_boost
            tuning = spec.injector_tuning()
            assert tuning is not None
            estimates = importance_estimates(
                result.repository, result.duration, boost, tuning.boosted
            )
        return cls(
            seed=result.seed,
            duration=result.duration,
            wall_time=wall_time,
            repository_payload=result.repository.to_payload(),
            node_nap_pairs=[tuple(pair) for pair in pairs],
            cycle_stats=_aggregate_cycle_stats(result),
            statistics=campaign_statistics(
                result.repository, pairs, result.duration
            ),
            metrics=metrics,
            events=result.events_processed,
            boost=boost,
            estimates=estimates,
        )

    # -- views ---------------------------------------------------------------

    def repository(self) -> CentralRepository:
        """This shard's repository, rebuilt from the payload."""
        if self.repository_payload is None:
            raise ValueError(
                f"shard {self.seed} holds no rows: its sweep released them "
                "to the shard store (read SweepResult.repository instead)"
            )
        return CentralRepository.from_payload(self.repository_payload)

    @property
    def total_items(self) -> int:
        return int(self.statistics.get("total_failure_data_items", 0.0))

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        """The shard as plain JSON-able data (checkpoint format)."""
        return {
            "version": PAYLOAD_VERSION,
            "seed": self.seed,
            "duration": self.duration,
            "wall_time": self.wall_time,
            "repository": self.repository_payload,
            "node_nap_pairs": [list(pair) for pair in self.node_nap_pairs],
            "cycle_stats": self.cycle_stats,
            "statistics": self.statistics,
            "metrics": self.metrics,
            "events": self.events,
            "boost": self.boost,
            "estimates": self.estimates,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardResult":
        """Rebuild a shard from :meth:`to_payload` data."""
        if payload.get("version") != PAYLOAD_VERSION:
            raise ValueError(
                f"shard payload version {payload.get('version')!r} "
                f"!= {PAYLOAD_VERSION}"
            )
        check_rows(payload["repository"])
        share_text(payload["repository"])
        return cls(
            seed=int(payload["seed"]),
            duration=float(payload["duration"]),
            wall_time=float(payload["wall_time"]),
            repository_payload=payload["repository"],
            node_nap_pairs=[tuple(pair) for pair in payload["node_nap_pairs"]],
            cycle_stats=payload["cycle_stats"],
            statistics=payload["statistics"],
            metrics=payload.get("metrics", {}),
            events=int(payload.get("events", 0)),
            boost=float(payload.get("boost", 1.0)),
            estimates=payload.get("estimates", {}),
        )


def _aggregate_cycle_stats(result: CampaignResult) -> Dict[str, Dict[str, object]]:
    """Sum every client's cycle counters, per testbed."""
    aggregated: Dict[str, Dict[str, object]] = {}
    for name in sorted(result.testbeds):
        cycles_by_type: Dict[str, int] = {}
        entry: Dict[str, object] = {
            "cycles": 0,
            "failures": 0,
            "masked": 0,
            "idle_ok_sum": 0.0,
            "idle_ok_count": 0,
            "idle_fail_sum": 0.0,
            "idle_fail_count": 0,
        }
        for stats in result.client_stats(name):
            entry["cycles"] += stats.cycles
            entry["failures"] += stats.failures
            entry["masked"] += stats.masked
            entry["idle_ok_sum"] += stats.idle_ok_sum
            entry["idle_ok_count"] += stats.idle_ok_count
            entry["idle_fail_sum"] += stats.idle_fail_sum
            entry["idle_fail_count"] += stats.idle_fail_count
            for key, count in stats.cycles_by_packet_type.items():
                cycles_by_type[key] = cycles_by_type.get(key, 0) + count
        entry["cycles_by_packet_type"] = dict(sorted(cycles_by_type.items()))
        aggregated[name] = entry
    return aggregated


class _Heartbeat:
    """Wall-clock liveness pings from a worker's daemon thread.

    Emits ``shard_heartbeat`` every ``interval`` wall seconds until
    stopped.  All payload lands in the non-deterministic envelope; the
    last sim-time seen by the progress probe rides along so a live
    monitor can show where a silent-looking shard actually is.
    """

    def __init__(self, writer: JournalWriter, seed: int, interval: float) -> None:
        self._writer = writer
        self._seed = seed
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"shard-{seed}-heartbeat", daemon=True
        )
        self.sim_time = 0.0

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._writer.emit(
                SHARD_HEARTBEAT,
                seed=self._seed,
                wall={"sim_time": self.sim_time, "rss_peak_kb": peak_rss_kb()},
            )

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 5.0)


class _ProgressProbe:
    """Read-only sim probe emitting deterministic ``shard_progress``.

    Called from :func:`repro.core.campaign._execute_campaign` at fixed
    fractions of the campaign duration — sim-time driven, so the
    deterministic fields (sim_time, frac, pending) are identical across
    reruns at any job count.
    """

    def __init__(
        self,
        writer: JournalWriter,
        seed: int,
        duration: float,
        heartbeat: Optional[_Heartbeat] = None,
    ) -> None:
        self._writer = writer
        self._seed = seed
        self._duration = duration
        self._heartbeat = heartbeat

    def __call__(self, sim: "Simulator") -> None:
        if self._heartbeat is not None:
            self._heartbeat.sim_time = sim.now
        self._writer.emit(
            SHARD_PROGRESS,
            seed=self._seed,
            sim_time=sim.now,
            frac=round(sim.now / self._duration, 6),
            pending=sim.pending_events(),
        )


def _instrumented_shard(
    spec: CampaignSpec,
    observability: Optional["Observability"],
    telemetry: ShardTelemetry,
    started: float,
) -> ShardResult:
    """The journaled variant of the worker body."""
    with JournalWriter(telemetry.journal, telemetry.fingerprint) as writer:
        writer.emit(SHARD_STARTED, seed=spec.seed, index=telemetry.index)
        heartbeat = _Heartbeat(writer, spec.seed, telemetry.heartbeat_interval)
        heartbeat.start()
        on_progress: Optional[Callable[["Simulator"], None]] = None
        if telemetry.progress_interval > 0:
            on_progress = _ProgressProbe(
                writer, spec.seed, spec.duration, heartbeat
            )
        try:
            result = spec._execute(
                observability=observability,
                on_progress=on_progress,
                progress_interval=telemetry.progress_interval or None,
            )
            wall_time = time.perf_counter() - started
            shard = ShardResult.from_campaign(result, wall_time=wall_time, spec=spec)
            result.sim.close()
            rate = shard.events / wall_time if wall_time > 0 else 0.0
            writer.emit(
                SHARD_COMPLETED,
                seed=spec.seed,
                index=telemetry.index,
                duration=spec.duration,
                total_items=shard.total_items,
                statistics=shard.statistics,
                events=shard.events,
                metrics=shard.metrics,
                wall={
                    "wall_time": round(wall_time, 6),
                    "events_per_sec": round(rate, 3),
                    "rss_peak_kb": peak_rss_kb(),
                },
            )
            return shard
        except BaseException as error:
            writer.emit(
                SHARD_FAILED,
                seed=spec.seed,
                index=telemetry.index,
                error=f"{type(error).__name__}: {error}",
            )
            raise
        finally:
            heartbeat.stop()


def run_shard(
    spec: CampaignSpec,
    with_metrics: bool = False,
    telemetry: Optional[ShardTelemetry] = None,
) -> ShardResult:
    """Run one campaign replicate and summarize it — the pool worker.

    ``with_metrics`` attaches a metrics-only
    :class:`~repro.obs.Observability` bundle (no tracer, no profiler:
    those do not merge across processes) and ships the registry
    snapshot back on the shard.

    ``telemetry`` (a picklable :class:`~repro.obs.journal.ShardTelemetry`)
    makes the worker narrate its lifecycle to the sweep run journal:
    started / sim-time progress / wall-clock heartbeats / completed or
    failed.  ``None`` keeps the legacy silent fast path — no journal
    file is opened, no probe is armed, no thread is spawned.
    """
    observability: Optional["Observability"] = None
    if with_metrics:
        from repro.obs import Observability

        observability = Observability(metrics=True, tracing=False, profiling=False)
    started = time.perf_counter()
    if telemetry is not None:
        return _instrumented_shard(spec, observability, telemetry, started)
    result = spec._execute(observability=observability)
    shard = ShardResult.from_campaign(
        result, wall_time=time.perf_counter() - started, spec=spec
    )
    # The summary is all a sweep keeps: free the replicate now, by
    # reference counting, rather than at the next full collection.
    result.sim.close()
    return shard


__all__ = ["PAYLOAD_VERSION", "ShardResult", "run_shard"]
