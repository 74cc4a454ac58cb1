"""The unified experiment API.

One façade fronts every way of executing the paper's campaign:

* :class:`ExperimentConfig` — keyword-only description of a campaign
  (duration, seed, masking, workloads, node profiles, hardware
  replacement) with two verbs: :meth:`~ExperimentConfig.run` executes a
  single replicate, :meth:`~ExperimentConfig.sweep` replicates it
  across N deterministic seeds on a process pool.
* :func:`run` / :func:`sweep` — one-shot module-level conveniences that
  build the config and execute it in a single call.

Every caller (the ``repro-bt`` CLI, the examples, the benchmarks)
executes campaigns through these verbs, which share one executor,
:meth:`repro.core.campaign.CampaignSpec._execute`.

Quickstart::

    from repro import api

    result = api.run(duration=86_400.0, seed=7)
    print(len(result.unmasked_failures()))

    sweep = api.sweep(8, jobs=4, duration=86_400.0, seed=7)
    print(sweep.render())
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple, Union

from repro.core.campaign import (
    CampaignResult,
    CampaignSpec,
    DEFAULT_DURATION,
)
from repro.obs import Observability
from repro.recovery.masking import MaskingPolicy
from repro.testbed.nodes import ALL_PROFILES, NodeProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.journal import SweepTelemetry
    from repro.parallel.backends import SweepBackend
    from repro.parallel.shard import ShardResult
    from repro.parallel.sweep import SweepResult


class ExperimentConfig:
    """Keyword-only description of one campaign experiment.

    The config is the façade's unit of reuse: build it once, then
    :meth:`run` it for a single replicate or :meth:`sweep` it across
    seeds.  Every field mirrors a
    :class:`~repro.core.campaign.CampaignSpec` field (the process-pool
    wire format); :meth:`spec` converts between the two.

    All constructor arguments are keyword-only — campaign call sites
    historically mixed positional ``duration``/``seed`` orders, which
    this surface makes impossible.
    """

    __slots__ = (
        "duration",
        "seed",
        "masking",
        "workloads",
        "profiles",
        "hardware_replacement",
        "fidelity",
        "backend",
        "store",
    )

    #: Valid :attr:`fidelity` values.
    FIDELITIES = ("bit", "batch")

    def __init__(
        self,
        *,
        duration: float = DEFAULT_DURATION,
        seed: int = 0,
        masking: Optional[MaskingPolicy] = None,
        workloads: Sequence[str] = ("random", "realistic"),
        profiles: Sequence[NodeProfile] = ALL_PROFILES,
        hardware_replacement: bool = True,
        fidelity: str = "bit",
        backend: Union[None, str, "SweepBackend"] = None,
        store: Union[None, str, Path] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("experiment duration must be positive")
        if fidelity not in self.FIDELITIES:
            raise ValueError(
                f"unknown fidelity: {fidelity!r} (expected 'bit' or 'batch')"
            )
        if isinstance(backend, str):
            # Fail at config time, not mid-sweep.
            from repro.parallel.backends import resolve_backend

            resolve_backend(backend)
        #: Simulated seconds each replicate runs for.
        self.duration = float(duration)
        #: Root seed (sweeps derive per-shard seeds from it).
        self.seed = int(seed)
        #: The three §5 masking strategies (all off by default).
        self.masking = MaskingPolicy.all_off() if masking is None else masking
        #: Which testbeds to deploy ("random" and/or "realistic").
        self.workloads: Tuple[str, ...] = tuple(workloads)
        #: Node hardware/OS profiles to instantiate per testbed.
        self.profiles: Tuple[NodeProfile, ...] = tuple(profiles)
        #: Replace Bluetooth dongles at the campaign midpoint (§3).
        self.hardware_replacement = bool(hardware_replacement)
        #: Execution mode: ``"bit"`` (per-packet oracle, the default) or
        #: ``"batch"`` (vectorised fast path, ~10x faster, statistically
        #: equivalent within 4 sigma, no per-packet observability).
        self.fidelity = fidelity
        #: Where :meth:`sweep` executes its shards: ``None`` (the local
        #: process pool), ``"serial"``, ``"process"``, ``"subprocess"``,
        #: ``"ssh:host1,host2"``, or a
        #: :class:`~repro.parallel.backends.SweepBackend` instance.
        #: Deliberately *not* part of :meth:`spec` or the sweep
        #: fingerprint — the backend cannot change a result byte.
        self.backend = backend
        if store is not None and not isinstance(store, (str, Path)):
            raise ValueError(
                f"store must be a path to a SQLite failure store, got {store!r}"
            )
        #: Optional path to a columnar SQLite failure store
        #: (:class:`repro.collection.store.SQLiteStore`).  :meth:`run`
        #: appends the replicate's records there; :meth:`sweep` replaces
        #: the store with every nominal shard's records, spilled
        #: shard-by-shard, so the merged stream never has to
        #: materialise in RAM.  Like ``backend``,
        #: deliberately *not* part of :meth:`spec` or the sweep
        #: fingerprint — where records land cannot change a result byte.
        self.store = None if store is None else Path(store)

    def __repr__(self) -> str:
        return (
            f"ExperimentConfig(duration={self.duration!r}, seed={self.seed!r}, "
            f"masking={self.masking!r}, workloads={self.workloads!r}, "
            f"profiles={tuple(p.name for p in self.profiles)!r}, "
            f"hardware_replacement={self.hardware_replacement!r}, "
            f"fidelity={self.fidelity!r}, backend={self.backend!r}, "
            f"store={self.store!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.spec() == other.spec()

    # -- conversions ---------------------------------------------------------

    def spec(self) -> CampaignSpec:
        """This config as the immutable, picklable campaign spec."""
        return CampaignSpec(
            duration=self.duration,
            seed=self.seed,
            masking=self.masking,
            workloads=self.workloads,
            profiles=self.profiles,
            hardware_replacement=self.hardware_replacement,
            fidelity=self.fidelity,
        )

    @classmethod
    def from_spec(cls, spec: CampaignSpec) -> "ExperimentConfig":
        """Lift a legacy :class:`CampaignSpec` into the façade."""
        return cls(
            duration=spec.duration,
            seed=spec.seed,
            masking=spec.masking,
            workloads=spec.workloads,
            profiles=spec.profiles,
            hardware_replacement=spec.hardware_replacement,
            fidelity=spec.fidelity,
        )

    def replace(self, **changes: object) -> "ExperimentConfig":
        """A copy of this config with keyword fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return ExperimentConfig(**fields)  # type: ignore[arg-type]

    # -- execution -----------------------------------------------------------

    def run(
        self, observability: Optional[Observability] = None
    ) -> CampaignResult:
        """Execute one replicate of this experiment.

        Pass an :class:`~repro.obs.Observability` bundle to instrument
        the run (metrics, propagation tracing, engine profiling); it is
        activated around the whole campaign and returned on the result.

        With :attr:`store` set, the replicate's records are also
        appended to the columnar SQLite store at that path (created on
        first use) and ``result.store_path`` records where.
        """
        result = self.spec()._execute(observability=observability)
        if self.store is not None:
            from repro.collection.store import SQLiteStore

            with SQLiteStore(self.store) as store:
                store.ingest_store(result.repository)
            result.store_path = self.store
        return result

    def sweep(
        self,
        seeds: Union[int, Sequence[int]],
        *,
        jobs: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        with_metrics: bool = False,
        progress: Optional[Callable[["ShardResult", bool], None]] = None,
        telemetry: Optional["SweepTelemetry"] = None,
        backend: Union[None, str, "SweepBackend"] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        rare_boost: float = 1.0,
        boost_seeds: int = 0,
        target_ci: Optional[float] = None,
        max_seeds: int = 64,
        store: Union[None, str, Path] = None,
    ) -> "SweepResult":
        """Replicate this experiment across seeds and merge canonically.

        ``seeds`` is a count (shard seeds derive from :attr:`seed`) or
        an explicit seed sequence.  ``jobs`` caps backend concurrency;
        ``backend`` overrides :attr:`backend` for this sweep (every
        backend produces byte-identical results).  Completed shards go
        to one digest-checked shard store, rooted at ``cache_dir`` when
        given (shared, so repeated or overlapping sweeps reuse completed
        shards byte-identically) and otherwise at ``checkpoint_dir``
        (which makes the sweep resumable).  With a shard store the
        returned shards hold no rows (``repository_payload`` is None):
        :attr:`SweepResult.repository` and the spill read them back
        from the store, so the sweep's memory stays flat in its seeds.
        ``progress`` is called with ``(shard, reused)`` as shards
        complete.  ``telemetry`` (a
        :class:`~repro.obs.journal.SweepTelemetry`) turns on the run
        journal, live monitoring and the stall watchdog — see
        :mod:`repro.obs.campaign`.

        ``rare_boost`` > 1 adds ``boost_seeds`` importance-sampled
        replicates (default: the nominal stratum size) that tighten the
        rare failure-class statistics without biasing them;
        ``target_ci`` keeps growing the strata (up to ``max_seeds``)
        until every pooled statistic's 95% CI is under that relative
        width.  The merged tables are byte-identical with telemetry on
        or off.  See :mod:`repro.parallel` for the determinism
        guarantees.

        ``store`` (overriding :attr:`store`) spills every nominal
        shard's records into the columnar SQLite store at that path as
        the sweep completes — shard by shard, in canonical seed order,
        so the merged record stream is queryable and analysable
        out-of-core without ever materialising in RAM.  The store is
        built beside that path and renamed into place, replacing any
        store already there (:meth:`SweepResult.into_store`).
        """
        from repro.parallel.sweep import _execute_sweep

        return _execute_sweep(
            seeds,
            jobs=jobs,
            spec=self.spec(),
            checkpoint_dir=checkpoint_dir,
            with_metrics=with_metrics,
            progress=progress,
            telemetry=telemetry,
            backend=self.backend if backend is None else backend,
            cache=cache_dir,
            rare_boost=rare_boost,
            boost_seeds=boost_seeds,
            target_ci=target_ci,
            max_seeds=max_seeds,
            store=self.store if store is None else store,
        )


def run(
    *, observability: Optional[Observability] = None, **config: object
) -> CampaignResult:
    """Build an :class:`ExperimentConfig` from keywords and run it once.

    ``api.run(duration=86_400.0, seed=7)`` runs one simulated day on
    seed 7.
    """
    return ExperimentConfig(**config).run(  # type: ignore[arg-type]
        observability=observability
    )


def sweep(
    seeds: Union[int, Sequence[int]],
    *,
    jobs: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    with_metrics: bool = False,
    progress: Optional[Callable[["ShardResult", bool], None]] = None,
    telemetry: Optional["SweepTelemetry"] = None,
    backend: Union[None, str, "SweepBackend"] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    rare_boost: float = 1.0,
    boost_seeds: int = 0,
    target_ci: Optional[float] = None,
    max_seeds: int = 64,
    store: Union[None, str, Path] = None,
    **config: object,
) -> "SweepResult":
    """Build an :class:`ExperimentConfig` from keywords and sweep it.

    Sweep-control keywords (``jobs``, ``checkpoint_dir``,
    ``with_metrics``, ``progress``, ``telemetry``, ``backend``,
    ``cache_dir``, ``rare_boost``, ``boost_seeds``, ``target_ci``,
    ``max_seeds``, ``store``) go to the orchestrator; everything else
    describes the campaign, exactly as :func:`run` takes it.
    """
    return ExperimentConfig(**config).sweep(  # type: ignore[arg-type]
        seeds,
        jobs=jobs,
        checkpoint_dir=checkpoint_dir,
        with_metrics=with_metrics,
        progress=progress,
        telemetry=telemetry,
        backend=backend,
        cache_dir=cache_dir,
        rare_boost=rare_boost,
        boost_seeds=boost_seeds,
        target_ci=target_ci,
        max_seeds=max_seeds,
        store=store,
    )


__all__ = ["ExperimentConfig", "run", "sweep"]
