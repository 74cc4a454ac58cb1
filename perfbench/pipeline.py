"""The benchmark's workloads: set-up, one repetition, and its output check.

Every repetition is one whole user request, timed from its start to the
rendered Tables 1-4.  It then hands back a digest that reduces what the
request printed to an :class:`Outcome`, outside the timed span: the
fingerprint hashes the canonical ``campaign_statistics`` JSON, which
only the check computes, together with every text the request rendered.
:func:`check` compares it with the fingerprint committed in
``fingerprints.json`` for the workload and seed (or, for a seed with no
committed entry, with the first repetition of the run) and with the
counts the workload must produce.

Working files (shard cache, checkpoints, journal, SQLite store) live
under a directory the caller passes in, which the caller removes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.trace import outside_request, span

HERE = Path(__file__).resolve().parent

#: Committed output fingerprints, per workload and root seed.
FINGERPRINTS = HERE / "fingerprints.json"

#: The root seed a run uses when ``--seed`` is not given.
DEFAULT_SEED = 2006


@dataclass(frozen=True)
class Params:
    """The size of one workload's request."""

    #: Simulated hours per seed.
    hours: float
    #: Seeds the request sweeps (batch-grow: N, grown to 2N).
    seeds: int


@dataclass
class Outcome:
    """What one repetition produced, reduced to what the check needs."""

    fingerprint: str
    items: int
    #: Named counts the check compares with their expected values.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Extra per-layer facts a traced repetition reports.
    facts: Dict[str, float] = field(default_factory=dict)


def fingerprint(statistics: Dict[str, float], *texts: str) -> str:
    """SHA-256 over the canonical statistics JSON and the rendered texts."""
    digest = hashlib.sha256()
    digest.update(json.dumps(statistics, sort_keys=True).encode("utf-8"))
    for text in texts:
        digest.update(b"\n\x00")
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def statistics(store, pairs) -> Dict[str, float]:
    """Pooled ``campaign_statistics``: the output check's own pass.

    Neither ``repro-bt sweep`` nor ``repro-bt analyze`` computes it, so it
    runs after the request's clock stops and outside the request's spans.
    """
    from repro.core import summary

    with outside_request("core.summary.statistics"):
        return summary.campaign_statistics(store, pairs)


#: What a repetition returns: the check's digest of the request's outputs.
Digest = Callable[[], Outcome]


def _fresh(path: Path) -> Path:
    """``path`` as an empty directory."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _telemetry(out: Path):
    from repro.obs.journal import JOURNAL_NAME, SweepTelemetry

    return SweepTelemetry(journal=out / JOURNAL_NAME)


def _journal_facts(out: Path) -> Dict[str, float]:
    from repro.obs.journal import JOURNAL_NAME

    journal = out / JOURNAL_NAME
    data = journal.read_bytes() if journal.exists() else b""
    return {"obs.journal.events": data.count(b"\n"), "obs.journal.kb": len(data) / 1024}


def _sweep(work: Path, params: Params, root_seed: int, fidelity: str, count: int,
           with_metrics: bool = False, **extra):
    """``repro-bt sweep`` as the CLI drives it, on the serial backend."""
    from repro import api

    out = _fresh(work / "out")
    with span("parallel.sweep"):
        return api.sweep(
            count,
            jobs=1,
            backend="serial",
            checkpoint_dir=out / "shards",
            telemetry=_telemetry(out),
            with_metrics=with_metrics,
            duration=params.hours * 3600.0,
            seed=root_seed,
            fidelity=fidelity,
            **extra,
        ), out


# -- batch-grow ----------------------------------------------------------------


def batch_grow_setup(work: Path, params: Params, root_seed: int) -> None:
    """Fill the shard cache with the request's first N seeds."""
    from repro import api

    cache = _fresh(work / "cache")
    api.sweep(
        params.seeds, jobs=1, backend="serial", cache_dir=cache,
        duration=params.hours * 3600.0, seed=root_seed, fidelity="batch",
    )


def batch_grow_reset(work: Path, params: Params, root_seed: int) -> None:
    """Drop the cache entries the previous repetition wrote (seeds N..2N)."""
    from repro.parallel.cache import ShardCache, shard_key
    from repro.parallel.checkpoint import sweep_fingerprint
    from repro.parallel.seeds import shard_seeds
    from repro.api import ExperimentConfig

    spec = ExperimentConfig(
        duration=params.hours * 3600.0, seed=root_seed, fidelity="batch"
    ).spec()
    sweep_id = sweep_fingerprint(spec, False)
    cache = ShardCache(work / "cache")
    for seed in shard_seeds(root_seed, 2 * params.seeds)[params.seeds:]:
        cache.entry_path(shard_key(sweep_id, seed)).unlink(missing_ok=True)
    (work / "failures.store").unlink(missing_ok=True)


def batch_grow(work: Path, params: Params, root_seed: int, trace: bool = False) -> Digest:
    """Grow the sweep from N to 2N seeds, spill it to SQLite, analyse it."""
    from repro import cli
    from repro.collection.store import SQLiteStore

    store_path = work / "failures.store"
    result, out = _sweep(
        work, params, root_seed, "batch", 2 * params.seeds,
        cache_dir=work / "cache", store=store_path,
    )
    pooled = result.render()
    store = SQLiteStore.open(store_path)
    try:
        pairs = cli.infer_node_nap_pairs(store)
        with span("core.summary.render"):
            tables = cli._analyses_text(store, pairs)
    finally:
        store.close()

    def digest() -> Outcome:
        store = SQLiteStore.open(store_path)
        try:
            stats = statistics(store, pairs)
            items = store.total_items
        finally:
            store.close()
        outcome = Outcome(
            fingerprint=fingerprint(stats, tables, pooled),
            items=items,
            counts={
                "cache_hits": result.cached,
                "cache_misses": len(result.shards) - result.cached - result.reused,
                "shard_items": sum(shard.total_items for shard in result.shards),
                "pairs": len(pairs),
            },
        )
        if trace:
            outcome.facts.update(_journal_facts(out))
            outcome.facts["parallel.shard.payload_mb"] = sum(
                path.stat().st_size for path in (work / "cache").rglob("*.json")
            ) / 1e6
            outcome.facts["collection.store.mb"] = store_path.stat().st_size / 1e6
        return outcome

    return digest


def batch_grow_expect(params: Params) -> Dict[str, int]:
    return {"cache_hits": params.seeds, "cache_misses": params.seeds, "pairs": 12}


# -- bit-sweep -----------------------------------------------------------------


def nothing(work: Path, params: Params, root_seed: int) -> None:
    return None


def bit_sweep(work: Path, params: Params, root_seed: int, trace: bool = False,
              with_metrics: bool = False) -> Digest:
    """A bit-fidelity sweep into memory, then the pooled table and summary."""
    from repro import cli

    result, out = _sweep(
        work, params, root_seed, "bit", params.seeds, with_metrics=with_metrics
    )
    repository = result.repository
    pairs = result.node_nap_pairs()
    pooled = result.render()
    with span("core.summary.render"):
        tables = cli._analyses_text(repository, pairs)

    def digest() -> Outcome:
        outcome = Outcome(
            fingerprint=fingerprint(statistics(repository, pairs), tables, pooled),
            items=repository.total_items,
            counts={
                "cache_hits": result.cached,
                "shards": len(result.shards),
                "shard_items": sum(shard.total_items for shard in result.shards),
                "pairs": len(pairs),
            },
        )
        if trace:
            outcome.facts.update(_journal_facts(out))
        if with_metrics:
            outcome.facts.update(_bit_counters(result.metrics))
        return outcome

    return digest


def bit_sweep_expect(params: Params) -> Dict[str, int]:
    return {"cache_hits": 0, "shards": params.seeds, "pairs": 12}


def _family_total(registry, name: str, field: str = "value") -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return float(sum(getattr(child, field) for _, child in family.samples()))


def _bit_counters(registry) -> Dict[str, float]:
    """Stack counters of a metered sweep.

    Campaigns sample each transfer's fate analytically, so payloads come
    from the per-transfer histogram; the per-packet ARQ and channel-state
    counters only move on the bit-accurate packet path.
    """
    payloads = _family_total(registry, "repro_baseband_transfer_payloads", "sum")
    transfers = _family_total(registry, "repro_baseband_transfer_payloads", "count")
    retransmissions = _family_total(registry, "repro_baseband_retransmissions_total")
    family = registry.get("repro_baseband_transfer_outcomes_total")
    completed = 0.0
    if family is not None:
        completed = sum(
            child.value for key, child in family.samples() if key == ("completed",)
        )
    return {
        "bluetooth.baseband.payloads": payloads,
        "bluetooth.baseband.transfers": transfers,
        "bluetooth.baseband.retransmissions": retransmissions,
        "bluetooth.baseband.retx_ratio": retransmissions / payloads if payloads else 0.0,
        "bluetooth.baseband.failed_transfer_ratio": (
            (transfers - completed) / transfers if transfers else 0.0
        ),
        "bluetooth.channel.transitions": _family_total(
            registry, "repro_channel_state_transitions_total"
        ),
        "bluetooth.bnep.connections": _family_total(
            registry, "repro_bnep_connections_total"
        ),
        "faults.injected": _family_total(registry, "repro_faults_injected_total"),
        "faults.evidence": _family_total(
            registry, "repro_faults_evidence_entries_total"
        ),
    }


# -- the workload table --------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: The request's size in timed repetitions, and the warm-up's.
    params: Params
    warmup: Params
    #: Builds the fixture the request needs (in a set-up child process).
    setup: Callable[[Path, Params, int], None]
    #: Returns the fixture to its set-up state before each repetition.
    reset: Callable[[Path, Params, int], None]
    #: One repetition of the request.
    run: Callable[..., Digest]
    #: Counts every repetition must produce.
    expect: Callable[[Params], Dict[str, int]]


#: Requests sweep many short seeds rather than a few long ones: the cost
#: of one seed's analysis varies by ~10% from seed to seed, and every
#: benchmark run uses another root seed, so more seeds per request keep
#: that variation out of the run-to-run spread.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "batch-grow",
            Params(hours=12.0, seeds=8),
            Params(hours=2.0, seeds=1),
            batch_grow_setup, batch_grow_reset, batch_grow, batch_grow_expect,
        ),
        Workload(
            "bit-sweep",
            Params(hours=12.0, seeds=8),
            Params(hours=1.0, seeds=1),
            nothing, nothing, bit_sweep, bit_sweep_expect,
        ),
    )
}


# -- the output check ----------------------------------------------------------


def committed(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The committed fingerprint entry for a workload and root seed."""
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def check(
    workload: Workload,
    outcome: Outcome,
    reference: Optional[Dict[str, object]],
) -> List[str]:
    """Every way ``outcome`` differs from what the request must produce.

    ``reference`` holds the expected ``fingerprint`` and ``items``: the
    committed entry for this seed, or the first repetition's outcome
    when the seed has none.
    """
    problems = []
    if reference is not None:
        if outcome.fingerprint != reference["fingerprint"]:
            problems.append(
                f"fingerprint {outcome.fingerprint[:16]} != "
                f"{str(reference['fingerprint'])[:16]}"
            )
        if outcome.items != reference["items"]:
            problems.append(f"items {outcome.items} != {reference['items']}")
    expected = dict(workload.expect(workload.params))
    expected["shard_items"] = outcome.items
    for key, value in expected.items():
        if outcome.counts.get(key) != value:
            problems.append(f"{key} {outcome.counts.get(key)} != {value}")
    return problems


def timed(run: Callable[[], Digest]) -> Tuple[float, Optional[Outcome], Optional[str]]:
    """Run one repetition: (request seconds, outcome or None, error or None).

    The clock stops once the request's outputs exist; their digest for
    the output check is taken after it.
    """
    started = time.perf_counter()
    seconds = None
    try:
        digest = run()
        seconds = time.perf_counter() - started
        return seconds, digest(), None
    except Exception as error:  # counted as a failed operation
        if seconds is None:
            seconds = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return seconds, None, f"{type(error).__name__}: {error}"
