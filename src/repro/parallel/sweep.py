"""The multi-seed campaign sweep orchestrator.

The paper's statistics come from one 18-month deployment; statistically
defensible reproduction needs *replicates* — the same campaign re-run on
independent seeds, pooled into mean / confidence-interval views of the
Table 1-4 numbers.  This module is that harness:

* shard seeds derive deterministically from the root seed
  (:mod:`repro.parallel.seeds`) — never from worker count or timing;
* *where* shards run is pluggable (:mod:`repro.parallel.backends`):
  serial in-process, the local process pool, or standalone worker
  interpreters dispatched locally or over SSH;
* shards are reused before they are run, from one digest-checked
  shard store (:mod:`repro.parallel.cache`) keyed by fingerprint x
  seed: the shared cache root when one is given, otherwise the sweep's
  own checkpoint directory — resumed, repeated or overlapping sweeps
  simulate only what no prior run has;
* a *boosted stratum* of rare-event importance-sampled replicates
  (``rare_boost``/``boost_seeds``) can ride along; its reweighted
  estimates join the pooled view without biasing it
  (:func:`repro.parallel.stats.pool_stratified`);
* ``target_ci`` turns the sweep into a stopping rule: seed strata keep
  growing (prefix-stably, so every earlier shard is reused) until every
  pooled statistic's 95% CI is within the requested relative width;
* merging is canonical — shards are folded in ascending-seed order and
  pooled reductions use correctly rounded sums — so the merged tables
  are byte-identical at any ``jobs``, for any ordering of ``seeds``,
  and under every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import get_logger
from repro.collection.repository import CentralRepository
from repro.collection.store import Row, atomic_store
from repro.core.campaign import CampaignSpec
from repro.obs.campaign import SweepMonitor, SweepWatchdog, write_sweep_textfile
from repro.obs.journal import (
    SHARD_CACHE_HIT,
    SHARD_COMPLETED,
    SHARD_SCHEDULED,
    SHARD_STARTED,
    SWEEP_ABORTED,
    SWEEP_COMPLETED,
    SWEEP_STARTED,
    JournalReader,
    JournalWriter,
    ShardTelemetry,
    SweepTelemetry,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots

from .backends import (
    ShardPlan,
    SweepBackend,
    SweepStalledError,
    resolve_backend,
)
from .cache import ShardCache
from .checkpoint import sweep_fingerprint
from .seeds import resolve_seeds, shard_seeds
from .shard import ShardResult, run_shard
from .stats import PooledStat, pool_statistics, pool_stratified

log = get_logger("parallel.sweep")

#: Per-seed summary columns of the rendered sweep report.  Wall-clock
#: timing is deliberately absent: render output must be byte-identical
#: across runs and job counts (timing lives on the shards themselves).
_PER_SEED_HEADER = (
    f"{'seed':>16}  {'items':>8}  {'user':>7}  {'unmasked':>8}  "
    f"{'MTTF(s)':>10}  {'avail':>7}"
)


@dataclass
class SweepResult:
    """Everything a multi-seed sweep produced, merged canonically."""

    spec: CampaignSpec
    #: Seeds in the order they were requested.
    seeds: Tuple[int, ...]
    #: Shards in canonical (ascending-seed) order — the merge order.
    shards: List[ShardResult]
    jobs: int
    wall_time: float
    #: How many shards the sweep's own checkpoint directory served
    #: (the shard store when no shared cache root is given).
    reused: int = 0
    #: How many shards the shared cache root served byte-identical.
    cached: int = 0
    #: Name of the backend that executed the fresh shards.
    backend: str = "process"
    #: Rare-event stratum: importance-sampled replicates (ascending
    #: seed), tilted by ``boost``.  Their reweighted estimates join
    #: :meth:`pooled`; their raw repositories/metrics stay out of the
    #: merged views (they are deliberately non-nominal samples).
    boosted_shards: List[ShardResult] = field(default_factory=list)
    boost: float = 1.0
    #: The ``target_ci`` stopping rule this sweep ran under (None = off)
    #: and whether it was met before ``max_seeds`` capped the growth.
    target_ci: Optional[float] = None
    converged: Optional[bool] = None
    #: Run journal the sweep narrated itself to (None when telemetry off).
    journal: Optional[Path] = None
    #: Columnar store the nominal record stream was spilled to
    #: (:meth:`into_store` / ``store=``; None when the sweep kept
    #: everything in memory).
    store_path: Optional[Path] = None
    _repository: Optional[CentralRepository] = field(
        default=None, repr=False, compare=False
    )
    #: The shard store the nominal shards' rows are read back from
    #: (None when the sweep had neither a cache nor a checkpoint
    #: directory, so its shards keep their rows), and the metrics flag
    #: that, with :attr:`spec`, names their entries.
    _shard_store: Optional[ShardCache] = field(
        default=None, repr=False, compare=False
    )
    _with_metrics: bool = field(default=False, repr=False, compare=False)

    # -- merged views --------------------------------------------------------

    @property
    def repository(self) -> CentralRepository:
        """All nominal shards' records in one repository (union, cached)."""
        if self._repository is None:
            merged = CentralRepository()
            for shard in self.shards:
                merged.merge(CentralRepository.from_payload(self._rows(shard)))
            self._repository = merged
        return self._repository

    def _rows(self, shard: ShardResult) -> Dict[str, List[Row]]:
        """One nominal shard's rows: held on the shard, else read back.

        A sweep with a shard store releases each shard's rows once the
        store holds them, so they are read back from it here, under the
        digest check every read makes.  An entry pruned, truncated or
        tampered with since the sweep is recomputed instead (a shard is
        a pure function of spec and seed) and stored again: the rows
        returned are always the shard's own.
        """
        if shard.repository_payload is not None:
            return shard.repository_payload
        fingerprint = sweep_fingerprint(self.spec, self._with_metrics)
        stored = None
        if self._shard_store is not None:
            stored = self._shard_store.get(fingerprint, shard.seed)
        if stored is None:
            log.warning(
                "sweep: shard %d is not in the shard store; re-running it",
                shard.seed,
            )
            stored = run_shard(self.spec.with_seed(shard.seed), self._with_metrics)
            if self._shard_store is not None:
                self._shard_store.put(fingerprint, shard.seed, stored)
        assert stored.repository_payload is not None
        return stored.repository_payload

    def into_store(self, target: Union[str, Path]) -> Path:
        """Spill every nominal shard's records into a columnar SQLite store.

        The out-of-core replacement for :attr:`repository`: each shard's
        rows go to ``executemany`` as they are
        (:meth:`~repro.collection.store.SQLiteStore.ingest_payload`), one
        shard at a time in canonical (ascending-seed) order, so the
        merged stream is never built as one list or repository.  A sweep
        with a shard store holds no rows at all: its shards released
        them once stored, and each is read back from the store, ingested
        and dropped before the next, so at most one shard's rows are
        live and the peak stays flat in the seed count.  Because the
        in-memory merge concatenates shard row lists in exactly this
        order before its stable time-sort, the store's iteration order
        (``ORDER BY time, id``) matches the merged repository record for
        record, and every streaming analysis is byte-identical over
        either.

        All shards go in as one transaction into a fresh store at a
        sibling temp path, which ``os.replace`` then publishes
        (:func:`~repro.collection.store.atomic_store`): ``target``
        holds exactly this sweep's records, whatever it held before,
        and a spill that fails part-way leaves it untouched.  Returns
        the store path (also recorded on :attr:`store_path`).
        """
        target = Path(target)
        with atomic_store(target) as store:
            for shard in self.shards:
                store.ingest_payload(self._rows(shard))
        self.store_path = target
        return target

    @property
    def metrics(self) -> MetricsRegistry:
        """All nominal shards' metric snapshots merged into one registry."""
        return merge_snapshots(shard.metrics for shard in self.shards)

    def node_nap_pairs(self) -> List[Tuple[str, str]]:
        """Distinct (PANU, NAP) pairs across shards, in merge order."""
        pairs: List[Tuple[str, str]] = []
        seen = set()
        for shard in self.shards:
            for pair in shard.node_nap_pairs:
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        return pairs

    # -- pooled statistics ---------------------------------------------------

    def pooled(self) -> Dict[str, PooledStat]:
        """Mean / 95% CI of every statistic across the replicates.

        With a boosted stratum present, its unbiased reweighted
        estimates join the pool for every key they can estimate
        (:func:`repro.parallel.stats.pool_stratified`); a plain sweep
        pools the nominal statistics exactly as before.
        """
        per_seed = [shard.statistics for shard in self.shards]
        if not self.boosted_shards:
            return pool_statistics(per_seed)
        return pool_stratified(
            per_seed, [shard.estimates for shard in self.boosted_shards]
        )

    # -- rendering -----------------------------------------------------------

    def render_statistics(self) -> str:
        """The pooled Table 1-4 statistics as a fixed-width table.

        Deterministic to the byte for a given spec + seed set: shard
        order, job count and backend cannot change a character of it.
        """
        lines = [
            f"{'statistic':<42}  {'mean':>14}  {'95% CI':>12}  "
            f"{'min':>14}  {'max':>14}"
        ]
        for key, stat in self.pooled().items():
            lines.append(
                f"{key:<42}  {stat.mean:>14.4f}  ±{stat.ci95:>11.4f}  "
                f"{stat.minimum:>14.4f}  {stat.maximum:>14.4f}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Per-seed summary plus the pooled statistics table."""
        mask = "on" if self.spec.masking.any_enabled else "off"
        lines = [
            f"Campaign sweep: {len(self.shards)} seeds x "
            f"{self.spec.duration:.0f} s simulated, masking {mask} "
            f"(root seed {self.spec.seed})",
        ]
        if self.boosted_shards:
            lines.append(
                f"Boosted stratum: {len(self.boosted_shards)} seeds x "
                f"rare-event boost {self.boost:g} (reweighted estimates "
                f"pooled; path statistics from the nominal stratum)"
            )
        lines.extend(["", _PER_SEED_HEADER])
        for shard in self.shards:
            stats = shard.statistics
            lines.append(
                f"{shard.seed:>16}  {shard.total_items:>8}  "
                f"{int(stats['user_level_reports']):>7}  "
                f"{int(stats['unmasked_user_failures']):>8}  "
                f"{stats['mttf_s']:>10.1f}  {stats['availability']:>7.4f}"
            )
        lines.append("")
        lines.append(self.render_statistics())
        return "\n".join(lines)


class _SweepTelemetryContext:
    """Journal + monitor + watchdog wiring for one monitored sweep."""

    def __init__(
        self,
        telemetry: SweepTelemetry,
        fingerprint: str,
        resolved: Sequence[int],
        spec: CampaignSpec,
    ) -> None:
        self.telemetry = telemetry
        self.path = Path(telemetry.journal)
        self.writer = JournalWriter(self.path, fingerprint)
        self.fingerprint = fingerprint
        self.reader = JournalReader(self.path)
        self.monitor = SweepMonitor()
        self.watchdog = SweepWatchdog(self.monitor, telemetry.heartbeat_deadline)
        self.index = {seed: i for i, seed in enumerate(resolved)}
        #: Progress probes fire at fixed fractions of the campaign — in
        #: *simulated* seconds, so their payload is run-invariant.
        self.progress_interval = spec.duration / telemetry.progress_ticks
        self._aborted = False

    def shard_telemetry(self, seed: int) -> ShardTelemetry:
        return ShardTelemetry(
            journal=str(self.path),
            fingerprint=self.fingerprint,
            index=self.index[seed],
            heartbeat_interval=self.telemetry.heartbeat_interval,
            progress_interval=self.progress_interval,
        )

    def note_reused(self, shard: ShardResult, source: str) -> None:
        """Narrate a shard-store hit as a synthetic lifecycle.

        ``shard_cache_hit`` and the ``wall.source`` naming the store
        root are the only traces of reuse: the canonical scheduled /
        started / completed lifecycle of a fully-reused sweep is
        byte-identical to a fresh one.  (In-flight ``shard_progress``
        ticks belong to execution and are absent from a reused shard —
        the one canonical difference.)
        """
        reused = {"reused": True, "source": source}
        seed, index = shard.seed, self.index[shard.seed]
        self.writer.emit(SHARD_CACHE_HIT, seed=seed, index=index)
        self.writer.emit(SHARD_SCHEDULED, seed=seed, index=index, wall=reused)
        self.writer.emit(SHARD_STARTED, seed=seed, index=index, wall=reused)
        self.writer.emit(
            SHARD_COMPLETED,
            seed=seed,
            index=index,
            duration=shard.duration,
            total_items=shard.total_items,
            statistics=shard.statistics,
            events=shard.events,
            metrics=shard.metrics,
            wall=reused,
        )

    def refresh(self, now: float) -> None:
        """Tail new journal events into the monitor; refresh exports."""
        self.monitor.feed(self.reader.poll())
        if self.telemetry.openmetrics_out is not None:
            write_sweep_textfile(self.monitor, self.telemetry.openmetrics_out, now)

    def abort(self, reason: str) -> None:
        """Emit the terminal ``sweep_aborted`` marker (first cause wins)."""
        if self._aborted:
            return
        self._aborted = True
        self.writer.emit(SWEEP_ABORTED, reason=reason)

    def close(self) -> None:
        self.writer.close()


def _run_stratum(
    spec: CampaignSpec,
    stratum_seeds: Sequence[int],
    jobs: int,
    with_metrics: bool,
    backend: SweepBackend,
    shard_store: Optional[ShardCache],
    source: str,
    ctx: Optional[_SweepTelemetryContext],
    progress: Optional[Callable[[ShardResult, bool], None]],
) -> Tuple[List[ShardResult], int]:
    """Run one stratum: serve each seed from ``shard_store`` or run it.

    Returns the stratum's shards in canonical order and how many of
    them ``shard_store`` served.  A shard is stored only after it
    *completes*, atomically and under a digest that every read
    re-checks, so neither a killed worker nor a tampered or truncated
    entry can ever be served.  The stratum fingerprint is half of each
    key, so the nominal and boosted strata share one store root.

    Once a shard is in ``shard_store`` and ``progress`` has seen it, it
    releases its rows (:meth:`SweepResult._rows` reads them back), so
    the sweep holds no rows the store already holds.  A boosted shard
    releases them unconditionally: only its estimates are ever read.
    """
    if not stratum_seeds:
        return [], 0
    fingerprint = sweep_fingerprint(spec, with_metrics)
    keep_rows = shard_store is None and spec.rare_boost == 1.0

    shards: Dict[int, ShardResult] = {}
    for seed in stratum_seeds:
        loaded = (
            shard_store.get(fingerprint, seed) if shard_store is not None else None
        )
        if loaded is not None:
            shards[seed] = loaded
            if ctx is not None:
                ctx.note_reused(loaded, source)
            if progress is not None:
                progress(loaded, True)
            loaded.repository_payload = None
    hits = len(shards)

    pending = tuple(seed for seed in stratum_seeds if seed not in shards)

    def _complete(shard: ShardResult) -> None:
        shards[shard.seed] = shard
        if shard_store is not None:
            shard_store.put(fingerprint, shard.seed, shard)
        if progress is not None:
            progress(shard, False)
        if not keep_rows:
            shard.repository_payload = None

    if pending:
        backend.run(
            ShardPlan(
                spec=spec,
                pending=pending,
                with_metrics=with_metrics,
                jobs=jobs,
                runner=run_shard,
                complete=_complete,
                ctx=ctx,
            )
        )
    return [shards[seed] for seed in sorted(stratum_seeds)], hits


def _sweep_pass(
    seeds: Union[int, Sequence[int]],
    jobs: int,
    spec: CampaignSpec,
    with_metrics: bool,
    progress: Optional[Callable[[ShardResult, bool], None]],
    telemetry: Optional[SweepTelemetry],
    backend: SweepBackend,
    shard_store: Optional[ShardCache],
    source: str,
    rare_boost: float,
    boost_seeds: int,
) -> SweepResult:
    """One full sweep execution: nominal stratum plus optional boosted."""
    resolved = resolve_seeds(seeds, spec.seed)
    boost_list: Tuple[int, ...] = ()
    boosted_spec: Optional[CampaignSpec] = None
    if boost_seeds:
        boost_list = shard_seeds(spec.seed, boost_seeds, stratum=1)
        boosted_spec = spec.with_boost(rare_boost)
    fingerprint = sweep_fingerprint(spec, with_metrics)

    ctx: Optional[_SweepTelemetryContext] = None
    if telemetry is not None:
        ctx = _SweepTelemetryContext(
            telemetry, fingerprint, tuple(resolved) + boost_list, spec
        )
        extra: Dict[str, object] = {}
        if boost_list:
            extra = {
                "boost": rare_boost,
                "boost_seeds": [int(seed) for seed in boost_list],
            }
        ctx.writer.emit(
            SWEEP_STARTED,
            root_seed=spec.seed,
            seeds=[int(seed) for seed in resolved],
            wall={"backend": backend.name},
            **extra,
        )

    started = time.perf_counter()
    try:
        shards, hits = _run_stratum(
            spec, resolved, jobs, with_metrics, backend,
            shard_store, source, ctx, progress,
        )
        boosted: List[ShardResult] = []
        if boosted_spec is not None:
            boosted, boosted_hits = _run_stratum(
                boosted_spec, boost_list, jobs, with_metrics, backend,
                shard_store, source, ctx, progress,
            )
            hits += boosted_hits
        if ctx is not None:
            ctx.writer.emit(
                SWEEP_COMPLETED, seeds=[int(seed) for seed in resolved]
            )
            ctx.refresh(time.time())
    except BaseException as error:
        if ctx is not None and not isinstance(error, SweepStalledError):
            # Stall aborts already narrated themselves with a precise
            # reason; anything else gets a generic terminal marker.
            ctx.abort(f"{type(error).__name__}: {error}")
        raise
    finally:
        if ctx is not None:
            ctx.close()

    if hits:
        log.info("sweep: served %d shard(s) from the %s", hits, source)
    return SweepResult(
        spec=spec,
        seeds=resolved,
        shards=shards,
        jobs=jobs,
        wall_time=time.perf_counter() - started,
        reused=hits if source == "checkpoint" else 0,
        cached=hits if source == "cache" else 0,
        backend=backend.name,
        boosted_shards=boosted,
        boost=rare_boost if boosted else 1.0,
        journal=ctx.path if ctx is not None else None,
        _shard_store=shard_store,
        _with_metrics=with_metrics,
    )


def _ci_converged(pooled: Dict[str, PooledStat], target: float) -> bool:
    """Whether every pooled statistic's 95% CI meets the target width.

    The gate is on *relative* half-width (``ci95 / |mean|``); a
    zero-mean statistic is gated on absolute half-width instead, so an
    all-zero key (e.g. a class the campaign never produced) passes
    rather than stalling the loop forever.
    """
    for stat in pooled.values():
        if stat.n < 2:
            return False
        scale = abs(stat.mean)
        if scale > 0.0:
            if stat.ci95 / scale > target:
                return False
        elif stat.ci95 > target:
            return False
    return True


def _execute_sweep(
    seeds: Union[int, Sequence[int]],
    jobs: int = 1,
    spec: Optional[CampaignSpec] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    with_metrics: bool = False,
    progress: Optional[Callable[[ShardResult, bool], None]] = None,
    telemetry: Optional[SweepTelemetry] = None,
    backend: Union[None, str, SweepBackend] = None,
    cache: Union[None, str, Path, ShardCache] = None,
    rare_boost: float = 1.0,
    boost_seeds: int = 0,
    target_ci: Optional[float] = None,
    max_seeds: int = 64,
    store: Union[None, str, Path] = None,
) -> SweepResult:
    """The sweep executor behind :mod:`repro.api` and the shim.

    ``seeds`` is either a count (shard seeds are then derived from
    ``spec.seed``) or an explicit seed sequence.  ``jobs`` caps the
    backend's concurrency; ``backend`` picks where shards execute
    (:func:`repro.parallel.backends.resolve_backend` — the default is
    the historical local process pool, and every backend produces *the
    same result to the byte*).  Completed shards go to one
    digest-checked shard store (:class:`~repro.parallel.cache.ShardCache`)
    as they finish: rooted at ``cache`` when given (shared across
    sweeps; hits count as :attr:`SweepResult.cached`), otherwise at
    ``checkpoint_dir`` (this sweep's resume store; hits count as
    :attr:`SweepResult.reused`).  A re-invocation reuses every shard
    stored under the sweep fingerprint.  ``progress`` (if given) is
    called with ``(shard, reused)`` as each shard becomes available.

    ``rare_boost`` > 1 adds a boosted stratum of ``boost_seeds``
    importance-sampled replicates (default: as many as the nominal
    stratum) whose reweighted estimates tighten the rare-class
    statistics without biasing them.  ``target_ci`` keeps doubling the
    nominal stratum (and growing the boosted stratum with it) until
    every pooled statistic's 95% CI is within that relative width or
    ``max_seeds`` is reached — prefix-stable seed derivation plus the
    shard store mean each extension only simulates the new seeds.

    ``telemetry`` (a :class:`~repro.obs.journal.SweepTelemetry`) makes
    the sweep narrate itself to an append-only run journal: the
    orchestrator logs scheduling decisions, every worker streams
    lifecycle/heartbeat/progress events, and a watchdog flags shards
    that go silent past the heartbeat deadline — logging, requeueing or
    aborting per ``telemetry.policy``.  The journal's deterministic
    projection (:func:`repro.obs.journal.canonical_journal`) and the
    merged tables stay byte-identical at any ``jobs``.

    ``store`` spills the final nominal record stream into the columnar
    SQLite store at that path (:meth:`SweepResult.into_store`) once the
    sweep — including any ``target_ci`` growth — has settled.
    """
    if spec is None:
        spec = CampaignSpec()
    if spec.rare_boost != 1.0:
        raise ValueError(
            "sweep spec must be nominal (rare_boost=1); pass the sweep's "
            "rare_boost argument instead so the nominal stratum stays unbiased"
        )
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if rare_boost < 1.0:
        raise ValueError("rare_boost must be >= 1")
    if boost_seeds < 0:
        raise ValueError("boost_seeds must be >= 0")
    if boost_seeds and rare_boost == 1.0:
        raise ValueError("boost_seeds requires rare_boost > 1")
    backend_obj = resolve_backend(backend)
    shard_store: Optional[ShardCache] = None
    source = "cache"
    if isinstance(cache, ShardCache):
        shard_store = cache
    elif cache is not None:
        shard_store = ShardCache(cache)
    elif checkpoint_dir is not None:
        shard_store, source = ShardCache(checkpoint_dir), "checkpoint"

    def _boost_count(nominal_count: int) -> int:
        if rare_boost == 1.0:
            return 0
        return boost_seeds if boost_seeds else nominal_count

    if target_ci is None:
        nominal = seeds if isinstance(seeds, int) else len(tuple(seeds))
        result = _sweep_pass(
            seeds, jobs, spec, with_metrics, progress,
            telemetry, backend_obj, shard_store, source, rare_boost,
            _boost_count(nominal),
        )
        if store is not None:
            result.into_store(store)
        return result

    if not isinstance(seeds, int):
        raise ValueError(
            "target_ci grows the seed count and needs `seeds` as a count, "
            "not an explicit seed list"
        )
    if target_ci <= 0:
        raise ValueError("target_ci must be > 0")
    if max_seeds < max(seeds, 2):
        raise ValueError("max_seeds must be >= the initial seed count (and >= 2)")

    count = max(seeds, 2)  # one replicate has no interval to gate on
    total_wall = 0.0
    while True:
        result = _sweep_pass(
            count, jobs, spec, with_metrics, progress,
            telemetry, backend_obj, shard_store, source, rare_boost,
            _boost_count(count),
        )
        total_wall += result.wall_time
        converged = _ci_converged(result.pooled(), target_ci)
        if converged or count >= max_seeds:
            if not converged:
                log.warning(
                    "sweep: target CI %.4g not reached at the %d-seed cap",
                    target_ci,
                    count,
                )
            result.target_ci = target_ci
            result.converged = converged
            result.wall_time = total_wall
            if store is not None:
                result.into_store(store)
            return result
        grown = min(max_seeds, count * 2)
        log.info(
            "sweep: CI target %.4g not met with %d seeds; growing to %d",
            target_ci,
            count,
            grown,
        )
        count = grown


__all__ = ["SweepResult", "SweepStalledError"]
