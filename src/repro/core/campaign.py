"""End-to-end campaign drivers.

A *campaign* deploys the two testbeds (random + realistic workloads) on
one simulator, runs them for a stretch of simulated time, collects the
filtered failure data into a central repository, and hands everything
to the analysis functions.  The paper's campaign ran ~18 months of wall
clock; here the duration is a parameter — days of simulated time give
thousands of failure data items in seconds of CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import contextlib
import gc
from pathlib import Path

from repro.collection.records import TestLogRecord
from repro.collection.repository import CentralRepository
from repro.obs import Observability
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator
from repro.testbed.nodes import ALL_PROFILES, GIALLO, NodeProfile, VERDE, WIN
from repro.testbed.testbed import Testbed
from repro.workload.bluetest import CycleStats
from repro.workload.traffic import (
    FixedLengthWorkload,
    RandomWorkload,
    RealisticWorkload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import InjectorTuning

DAY = 86_400.0
#: Default campaign length used by examples and benchmarks.
DEFAULT_DURATION = 2 * DAY


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection around the simulation hot loop.

    A campaign allocates heavily but almost everything dies by reference
    counting; the generational collector only finds the few cycles left
    by exception tracebacks, at the price of scanning every young
    allocation.  Collection resumes (and catches up naturally) as soon
    as the loop exits.  No-op when the caller already disabled gc.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one campaign replicate needs, as plain immutable data.

    The spec is the unit shipped across process boundaries by the
    :mod:`repro.parallel` sweep pool (every field pickles without
    dragging a live simulator along) and the unit fingerprinted by
    sweep checkpoints, so two invocations agree on whether a completed
    shard can be reused.
    """

    duration: float = DEFAULT_DURATION
    seed: int = 0
    masking: MaskingPolicy = MaskingPolicy.all_off()
    workloads: Tuple[str, ...] = ("random", "realistic")
    profiles: Tuple[NodeProfile, ...] = ALL_PROFILES
    hardware_replacement: bool = True
    #: Execution mode: ``"bit"`` walks every Baseband payload through the
    #: event engine (the oracle); ``"batch"`` samples per-cycle outcomes
    #: in bulk from the memoised Gilbert–Elliott closed forms
    #: (:mod:`repro.sim.batch`) — statistically equivalent (4-sigma gate)
    #: and ~10x faster, but without per-packet observability.
    fidelity: str = "bit"
    #: Rare-event importance-sampling boost: > 1 multiplies the
    #: activation probability of the low-rate operation-drawn failure
    #: classes (:func:`repro.faults.calibration.rare_failure_types`).
    #: A boosted replicate's raw tables are *tilted*; the sweep pool
    #: reweights them (:func:`repro.core.summary.importance_estimates`)
    #: so pooled count estimates stay unbiased.
    rare_boost: float = 1.0

    def with_seed(self, seed: int) -> "CampaignSpec":
        """This spec re-rooted on another seed (all else equal)."""
        return replace(self, seed=int(seed))

    def with_boost(self, rare_boost: float) -> "CampaignSpec":
        """This spec with the importance-sampling boost replaced."""
        if rare_boost < 1.0:
            raise ValueError("rare_boost must be >= 1")
        return replace(self, rare_boost=float(rare_boost))

    def injector_tuning(self) -> Optional["InjectorTuning"]:
        """The fault-injector tuning this spec implies (None = default)."""
        if self.rare_boost == 1.0:
            return None
        from repro.faults.calibration import rare_failure_types
        from repro.faults.injector import InjectorTuning

        return InjectorTuning(
            rare_boost=self.rare_boost, boosted=rare_failure_types()
        )

    def _execute(
        self,
        observability: Optional[Observability] = None,
        on_progress: Optional[Callable[[Simulator], None]] = None,
        progress_interval: Optional[float] = None,
    ) -> "CampaignResult":
        """Execute this spec (the executor behind :mod:`repro.api`)."""
        if self.fidelity == "batch":
            # Lazy import: the bit engine stays importable without numpy.
            from repro.sim.batch import execute_batch_campaign

            return execute_batch_campaign(
                self,
                observability=observability,
                on_progress=on_progress,
                progress_interval=progress_interval,
            )
        if self.fidelity != "bit":
            raise ValueError(
                f"unknown fidelity: {self.fidelity!r} (expected 'bit' or 'batch')"
            )
        return _execute_campaign(
            duration=self.duration,
            seed=self.seed,
            masking=self.masking,
            workloads=self.workloads,
            profiles=self.profiles,
            hardware_replacement=self.hardware_replacement,
            observability=observability,
            on_progress=on_progress,
            progress_interval=progress_interval,
            tuning=self.injector_tuning(),
        )

    def fingerprint_data(self) -> Dict[str, object]:
        """Seed-independent identity of the run, as JSON-able data.

        Sweep checkpoints hash this (together with the seed list) to
        decide whether shard files on disk belong to the sweep being
        resumed.  The seed is deliberately excluded: it varies per
        shard within one sweep.
        """
        data: Dict[str, object] = {
            "duration": self.duration,
            "masking": {
                "bind_wait": self.masking.bind_wait,
                "retry": self.masking.retry,
                "sdp_before_pan": self.masking.sdp_before_pan,
            },
            "workloads": list(self.workloads),
            "profiles": [p.name for p in self.profiles],
            "hardware_replacement": self.hardware_replacement,
        }
        # Only non-default fidelity enters the fingerprint: bit-mode
        # sweep checkpoints written before fidelity existed stay valid.
        if self.fidelity != "bit":
            data["fidelity"] = self.fidelity
        # Same back-compat rule for the importance-sampling boost: a
        # boosted spec computes a genuinely different (tilted) shard, so
        # it must never share a fingerprint — or a cache key — with the
        # nominal spec, while unboosted fingerprints stay unchanged.
        if self.rare_boost != 1.0:
            data["rare_boost"] = self.rare_boost
        return data


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    duration: float
    seed: int
    masking: MaskingPolicy
    repository: CentralRepository
    testbeds: Dict[str, Testbed]
    sim: Simulator
    #: Observability bundle active during the run (None when off): holds
    #: the metrics registry, the propagation tracer and the engine
    #: profiler for post-run export.
    observability: Optional[Observability] = None
    #: Engine events processed during the main run loop, not counting
    #: the progress probe's own firings (0 when unknown, e.g. results
    #: built by legacy paths).
    events_processed: int = 0
    #: Columnar store the run's records were spilled to when
    #: ``ExperimentConfig(store=...)`` asked for one (None otherwise).
    store_path: Optional[Path] = None

    # -- convenience accessors -------------------------------------------------

    def unmasked_failures(self, testbed: Optional[str] = None) -> List[TestLogRecord]:
        """Failure reports that actually manifested (masked ones excluded)."""
        return [
            r
            for r in self.repository.iter_records(kind="test", testbed=testbed)
            if not r.masked
        ]

    def masked_count(self, testbed: Optional[str] = None) -> int:
        """How many failures the masking strategies absorbed."""
        return sum(
            1
            for r in self.repository.iter_records(kind="test", testbed=testbed)
            if r.masked
        )

    def node_nap_pairs(self) -> List[Tuple[str, str]]:
        """(PANU, its NAP) log-identifier pairs across all testbeds."""
        pairs = []
        for testbed in self.testbeds.values():
            for panu in testbed.panus:
                pairs.append((panu.id, testbed.nap.id))
        return pairs

    def client_stats(self, testbed: Optional[str] = None) -> List[CycleStats]:
        """Aggregate cycle statistics of every client, optionally filtered."""
        stats = []
        for name, bed in self.testbeds.items():
            if testbed is not None and name != testbed:
                continue
            stats.extend(client.stats for client in bed.clients())
        return stats

    def cycles_by_packet_type(self, testbed: str = "random") -> Dict[str, int]:
        """Cycles run per Baseband packet type (normalises fig. 3a)."""
        merged: Dict[str, int] = {}
        for stats in self.client_stats(testbed):
            for key, count in stats.cycles_by_packet_type.items():
                merged[key] = merged.get(key, 0) + count
        return merged


def _execute_campaign(
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    masking: MaskingPolicy = MaskingPolicy.all_off(),
    workloads: Sequence[str] = ("random", "realistic"),
    profiles: Sequence[NodeProfile] = ALL_PROFILES,
    hardware_replacement: bool = True,
    observability: Optional[Observability] = None,
    on_progress: Optional[Callable[[Simulator], None]] = None,
    progress_interval: Optional[float] = None,
    tuning: Optional["InjectorTuning"] = None,
) -> CampaignResult:
    """The campaign executor behind :mod:`repro.api` and the shims.

    Pass an :class:`~repro.obs.Observability` bundle to instrument the
    run: it is activated around testbed construction and execution (so
    every layer binds live metrics) and returned on the result for
    export.  ``None`` (the default) runs with the null registry —
    near-zero overhead.

    ``on_progress`` (with a positive ``progress_interval``) arms a
    read-only periodic probe over the running simulator: called once at
    t=0 and then every ``progress_interval`` simulated seconds.  The
    probe fires at maximum tie-break priority — strictly *after* every
    ordinary event at the same instant — and must not schedule or mutate
    sim state, so arming it cannot perturb the campaign's event order.
    """
    if duration <= 0:
        raise ValueError("campaign duration must be positive")
    factories: Dict[str, Callable] = {
        "random": RandomWorkload,
        "realistic": RealisticWorkload,
    }
    sim = Simulator()
    streams = RandomStreams(seed)
    repository = CentralRepository()
    testbeds: Dict[str, Testbed] = {}
    scope = (
        observability.activate(sim)
        if observability is not None
        else contextlib.nullcontext()
    )
    with scope:
        for name in workloads:
            if name not in factories:
                raise ValueError(f"unknown workload: {name!r}")
            bed = Testbed(
                sim,
                name,
                factories[name],
                repository,
                streams,
                masking=masking,
                profiles=profiles,
                tuning=tuning,
            )
            if hardware_replacement:
                bed.schedule_hardware_replacement(duration / 2.0)
            bed.start()
            testbeds[name] = bed
        probe = None
        probe_firings = 0
        if on_progress is not None and progress_interval:
            on_progress(sim)

            def observe() -> None:
                nonlocal probe_firings
                probe_firings += 1
                on_progress(sim)

            # Maximum tie-break priority: the probe observes each instant
            # only after every same-time sim event has run.
            probe = sim.schedule_periodic(
                progress_interval, observe, priority=1 << 30
            )
        try:
            with _gc_paused():
                # The probe's firings are telemetry, not campaign work:
                # the count must not depend on whether the run is observed.
                events_processed = sim.run_until(duration) - probe_firings
        finally:
            if probe is not None:
                probe.cancel()
        if on_progress is not None:
            on_progress(sim)
        for bed in testbeds.values():
            bed.final_collection()
    return CampaignResult(
        duration=duration,
        seed=seed,
        masking=masking,
        repository=repository,
        testbeds=testbeds,
        sim=sim,
        observability=observability,
        events_processed=events_processed,
    )


def run_connection_length_experiment(
    duration: float = 2 * DAY,
    seed: int = 0,
) -> CampaignResult:
    """The figure-3b experiment: special random WL on Verde and Win.

    N fixed to 10000 packets, L_S = L_R = 1691 bytes (the BNEP MTU),
    run (in the paper) for two months on exactly those two machines.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    repository = CentralRepository()
    bed = Testbed(
        sim,
        "random",
        FixedLengthWorkload,
        repository,
        streams,
        masking=MaskingPolicy.all_off(),
        profiles=(GIALLO, VERDE, WIN),
    )
    bed.start()
    with _gc_paused():
        sim.run_until(duration)
    bed.final_collection()
    return CampaignResult(
        duration=duration,
        seed=seed,
        masking=MaskingPolicy.all_off(),
        repository=repository,
        testbeds={"random": bed},
        sim=sim,
    )


__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "run_connection_length_experiment",
    "DAY",
    "DEFAULT_DURATION",
]
