"""Testbed deployment: 1 NAP + 6 heterogeneous PANUs, per the paper.

Two such testbeds ran in two labs — one driven by the Random workload,
one by the Realistic workload — with the same hardware/software
configuration.  Both shipped their filtered failure data to the same
central repository.  Mid-campaign the hardware was replaced with
identical units to reduce aging effects; the swap is reproduced as a
synchronous stack reset on every node.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.bluetooth.channel import ChannelConfig
from repro.collection.repository import CentralRepository
from repro.faults.injector import FaultInjector, InjectorTuning
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator
from repro.workload.traffic import WorkloadModel
from .interference import InterferenceSource
from .node import NapNode, PanuNode
from .nodes import ALL_PROFILES, NodeProfile


class Testbed:
    """One deployed testbed (NAP plus PANUs) on a shared simulator."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        model_factory: Callable[[], WorkloadModel],
        repository: CentralRepository,
        streams: RandomStreams,
        masking: MaskingPolicy = MaskingPolicy.all_off(),
        profiles: Sequence[NodeProfile] = ALL_PROFILES,
        channel_config_factory: Optional[Callable[[NodeProfile], ChannelConfig]] = None,
        tuning: Optional[InjectorTuning] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.repository = repository
        self.masking = masking
        scoped = streams.fork(f"testbed/{name}")
        self._streams = scoped
        self.injector = FaultInjector(scoped.stream("injector"), tuning=tuning)
        nap_profiles = [p for p in profiles if p.is_nap]
        if len(nap_profiles) != 1:
            raise ValueError("a testbed needs exactly one NAP profile")
        self.nap = NapNode(sim, nap_profiles[0], scoped, repository, name)
        self.panus: List[PanuNode] = []
        for profile in profiles:
            if profile.is_nap:
                continue
            channel_config = (
                channel_config_factory(profile) if channel_config_factory else None
            )
            self.panus.append(
                PanuNode(
                    sim,
                    profile,
                    self.nap,
                    self.injector,
                    scoped,
                    repository,
                    model_factory(),
                    masking,
                    name,
                    channel_config=channel_config,
                )
            )

        self.interference: Optional[InterferenceSource] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every node's workload, collection daemon and noise."""
        self.nap.start()
        for panu in self.panus:
            panu.start()
        if self.interference is not None:
            self.interference.start()

    def enable_interference(
        self,
        mean_interval: float = 7200.0,
        mean_duration: float = 300.0,
        factor: float = 8.0,
    ) -> InterferenceSource:
        """Attach a shared interferer to this lab (call before start)."""
        self.interference = InterferenceSource(
            self.sim,
            [panu.channel for panu in self.panus],
            self._streams.stream("interference"),
            mean_interval=mean_interval,
            mean_duration=mean_duration,
            factor=factor,
        )
        return self.interference

    def schedule_hardware_replacement(self, at: float) -> None:
        """Swap all hardware for identical units at simulated time ``at``."""
        self.sim.schedule_at(at, self._replace_all)

    def _replace_all(self) -> None:
        for panu in self.panus:
            panu.replace_hardware()

    def final_collection(self) -> None:
        """Run one last LogAnalyzer round so no tail data is lost."""
        self.nap.analyzer.collect_once()
        for panu in self.panus:
            panu.analyzer.collect_once()

    # -- convenience -----------------------------------------------------------

    def clients(self):
        return [panu.client for panu in self.panus]

    def node_ids(self) -> List[str]:
        return [self.nap.id] + [p.id for p in self.panus]

    def total_cycles(self) -> int:
        return sum(c.stats.cycles for c in self.clients())


__all__ = ["Testbed"]
