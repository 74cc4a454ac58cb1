"""Parallel multi-seed campaign sweeps.

Multi-seed replication is what makes the reproduced Tables 1-4
statistically defensible, and a serial 18-month replay is the wall-clock
bottleneck.  This package shards replicate campaigns across a pluggable
execution backend with four hard guarantees, all pinned by tests:

* **Deterministic sharding** — shard seeds derive from the root seed
  alone (:mod:`~repro.parallel.seeds`), so the same sweep at ``jobs=1``
  and ``jobs=4`` produces byte-identical merged tables.
* **Canonical merging** — shards fold in ascending-seed order and the
  pooled mean/CI reductions use correctly rounded sums
  (:mod:`~repro.parallel.stats`), so seed *ordering* cannot change a
  result either.
* **Backend invariance** — *where* shards run
  (:mod:`~repro.parallel.backends`: serial in-process, the local
  process pool, standalone workers local or over SSH) can change
  wall-clock time but never a byte of the merged output.
* **Reuse before recompute** — each completed shard is stored in one
  content-addressed, digest-validated shard store
  (:mod:`~repro.parallel.cache`) keyed by the sweep fingerprint
  (:mod:`~repro.parallel.checkpoint`) and the seed, rooted at a shared
  cache directory or at the sweep's own checkpoint directory; an
  interrupted, repeated or overlapping sweep simulates only the shards
  no prior run produced.

On top of the replication core, a sweep can carry a *boosted stratum*
of rare-event importance-sampled replicates (``rare_boost``) whose
reweighted estimates tighten the low-rate failure classes without
biasing them, and a ``target_ci`` stopping rule that grows the seed
strata until every pooled statistic's 95% CI is under a requested
relative width.

A running sweep can also narrate itself to an append-only run journal
(:mod:`repro.obs.journal`) watched by a stall watchdog — pass a
``telemetry`` bundle; the journal's canonical projection and the merged
tables stay byte-identical at any job count.

Typical use::

    from repro import api
    from repro.core.campaign import DAY

    result = api.sweep(
        8, jobs=4, duration=2 * DAY, seed=77,
        checkpoint_dir="sweep_out/shards",
        cache_dir="~/.cache/repro-bt",
        backend="process",
    )
    print(result.render())
"""

from .backends import (
    ProcessPoolBackend,
    SerialBackend,
    SubprocessBackend,
    SweepBackend,
    SweepBackendError,
    resolve_backend,
)
from .cache import CacheStats, ShardCache
from .checkpoint import sweep_fingerprint
from .seeds import resolve_seeds, shard_seed, shard_seeds
from .shard import ShardResult, run_shard
from .stats import (
    PooledStat,
    pool_statistics,
    pool_stratified,
    pool_values,
    t_critical_95,
)
from .sweep import SweepResult, SweepStalledError

__all__ = [
    "CacheStats",
    "PooledStat",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardCache",
    "ShardResult",
    "SubprocessBackend",
    "SweepBackend",
    "SweepBackendError",
    "SweepResult",
    "SweepStalledError",
    "pool_statistics",
    "pool_stratified",
    "pool_values",
    "resolve_backend",
    "resolve_seeds",
    "run_shard",
    "shard_seed",
    "shard_seeds",
    "sweep_fingerprint",
    "t_critical_95",
]
