"""Redundant, overlapped piconets — the paper's future-work proposal.

For critical scenarios (wireless robot control, aircraft maintenance)
the paper concludes that "extensive fault tolerance techniques should be
adopted, such as using redundant, overlapped piconets, other than SIRAs
and masking".  This extension implements exactly that: every PANU is in
radio range of *two* NAPs (two overlapping piconets), stays attached to
the primary, and fails over to the backup when a failure's damage is
confined to the connection or the BT stack (severity <= 3, i.e. the
damage a different piconet genuinely routes around).  Deeper damage
(application or OS level) still goes through the SIRA cascade — no
amount of radio redundancy fixes a wedged host.
"""

from __future__ import annotations

from typing import Generator, List

from repro.bluetooth.channel import Channel, ChannelConfig
from repro.bluetooth.errors import BTError
from repro.bluetooth.stack import BluetoothStack
from repro.collection.log_analyzer import LogAnalyzer
from repro.collection.logs import SystemLog, TestLog
from repro.collection.records import RecoveryAttempt
from repro.collection.repository import CentralRepository
from repro.core.campaign import CampaignResult
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator, Timeout
from repro.testbed.node import LogNoise, NapNode, node_id
from repro.testbed.nodes import GIALLO, NodeProfile, PANU_PROFILES
from repro.workload.bluetest import BlueTestClient
from repro.workload.traffic import RandomWorkload, WorkloadModel

#: Name recorded for a successful piconet failover in recovery logs.
FAILOVER_ACTION = "piconet_failover"
#: Re-attaching to the overlapped piconet: page + L2CAP + BNEP + switch.
FAILOVER_DURATION = 2.0
#: Damage at or below this severity is confined to the link/stack and is
#: cleared by moving to the other piconet.
FAILOVER_MAX_SCOPE = 3

#: Profile of the second, overlapped NAP.
SECONDO = NodeProfile(
    name="Secondo",
    os="Linux",
    distribution="Mandrake",
    kernel="2.4.21-0.13mdk",
    cpu="P4 1.60GHz",
    ram_mb=128,
    bt_stack="BlueZ 2.10",
    bt_hardware="Anycom CC3030",
    transport="usb",
    distance=0.0,
    is_nap=True,
)


class RedundantBlueTestClient(BlueTestClient):
    """A BlueTest client backed by two overlapped piconets.

    Holds one full stack per NAP; ``self.stack`` is the active one.
    On a failure whose damage scope is link/stack-confined, the client
    fails over to the other stack instead of walking the SIRA cascade.
    """

    def __init__(self, backup_stack: BluetoothStack, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backup_stack = backup_stack
        self.failovers = 0

    def _handle_failure(self, error: BTError, params, packet_type) -> Generator:
        scope = getattr(error, "scope", 1)
        if 1 <= scope <= FAILOVER_MAX_SCOPE:
            yield from self._failover(error, params, packet_type)
            return None
        yield from super()._handle_failure(error, params, packet_type)
        return None

    def _failover(self, error: BTError, params, packet_type) -> Generator:
        self.failovers += 1
        self.stats.failures += 1
        if self._connection is not None:
            self._connection.force_close()
            self._connection = None
        # The damaged stack is left behind; clean it for later fallback.
        self.stack.reset()
        self.stack, self.backup_stack = self.backup_stack, self.stack
        yield Timeout(FAILOVER_DURATION)
        attempt = RecoveryAttempt(
            action=FAILOVER_ACTION, succeeded=True, duration=FAILOVER_DURATION
        )
        self._record(error, params, packet_type, masked=False, attempts=[attempt])
        return None


class RedundantPanuNode:
    """One PANU attached to two overlapped piconets."""

    def __init__(
        self,
        sim: Simulator,
        profile: NodeProfile,
        primary: NapNode,
        backup: NapNode,
        injector,
        streams: RandomStreams,
        repository: CentralRepository,
        model: WorkloadModel,
        masking: MaskingPolicy,
        testbed_name: str,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.id = node_id(testbed_name, profile.name)
        self.system_log = SystemLog(
            self.id, streams.stream(f"syslog/{self.id}"), clock=lambda: sim.now
        )
        self.test_log = TestLog(self.id)

        def build_stack(nap: NapNode, tag: str) -> BluetoothStack:
            channel = Channel(
                ChannelConfig(distance=max(profile.distance, 0.1)),
                streams.stream(f"channel/{self.id}/{tag}"),
            )
            return BluetoothStack(
                sim,
                profile.traits,
                self.system_log,
                injector,
                streams.stream(f"stack/{self.id}/{tag}"),
                channel,
                nap.service,
                neighbourhood=[primary.profile.name, backup.profile.name],
                transport_kind=profile.transport,
            )

        primary_stack = build_stack(primary, "primary")
        backup_stack = build_stack(backup, "backup")
        self.client = RedundantBlueTestClient(
            backup_stack,
            sim,
            primary_stack,
            self.test_log,
            model,
            streams.stream(f"workload/{self.id}"),
            masking=masking,
            distance=profile.distance,
            testbed_name=testbed_name,
        )
        self.analyzer = LogAnalyzer(
            self.id,
            self.test_log,
            self.system_log,
            repository,
            phase=streams.stream(f"analyzer/{self.id}").uniform(0, 60),
        )
        self.noise = LogNoise(sim, self.system_log, streams.stream(f"noise/{self.id}"))

    def start(self) -> None:
        """Start the client, collection daemon and noise process."""
        from repro.sim import spawn

        self.client.start()
        self.analyzer.start(self.sim)
        spawn(self.sim, self.noise.run(), name=f"noise:{self.id}")


class RedundantTestbed:
    """A testbed whose PANUs see two overlapped piconets."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        model_factory,
        repository: CentralRepository,
        streams: RandomStreams,
        masking: MaskingPolicy = MaskingPolicy.all_off(),
    ) -> None:
        from repro.faults.injector import FaultInjector

        self.sim = sim
        self.name = name
        scoped = streams.fork(f"testbed/{name}")
        self.injector = FaultInjector(scoped.stream("injector"))
        self.primary = NapNode(sim, GIALLO, scoped, repository, name)
        self.backup = NapNode(sim, SECONDO, scoped.fork("backup"), repository, name)
        #: Alias so CampaignResult helpers treat this like a Testbed.
        self.nap = self.primary
        self.panus: List[RedundantPanuNode] = [
            RedundantPanuNode(
                sim, profile, self.primary, self.backup, self.injector,
                scoped, repository, model_factory(), masking, name,
            )
            for profile in PANU_PROFILES
        ]

    def start(self) -> None:
        """Start both NAPs and every redundant PANU."""
        self.primary.start()
        self.backup.start()
        for panu in self.panus:
            panu.start()

    def final_collection(self) -> None:
        """One last LogAnalyzer round on every node."""
        self.primary.analyzer.collect_once()
        self.backup.analyzer.collect_once()
        for panu in self.panus:
            panu.analyzer.collect_once()

    def clients(self):
        return [p.client for p in self.panus]

    def total_failovers(self) -> int:
        return sum(c.failovers for c in self.clients())


def run_redundant_campaign(
    duration: float,
    seed: int = 0,
    masking: MaskingPolicy = MaskingPolicy.all_off(),
) -> CampaignResult:
    """Run the random-workload testbed with redundant piconets."""
    sim = Simulator()
    streams = RandomStreams(seed)
    repository = CentralRepository()
    bed = RedundantTestbed(
        sim, "random", RandomWorkload, repository, streams, masking=masking
    )
    bed.start()
    events_processed = sim.run_until(duration)
    bed.final_collection()
    return CampaignResult(
        duration=duration,
        seed=seed,
        masking=masking,
        repository=repository,
        testbeds={"random": bed},  # type: ignore[dict-item]
        sim=sim,
        events_processed=events_processed,
    )


def failover_replay_ttr(record) -> float:
    """TTR this failure would have under redundant piconets.

    Link/stack-scoped failures (severity <= FAILOVER_MAX_SCOPE) are
    cleared by a failover; deeper damage keeps its measured cascade
    cost.  Replaying a plain campaign's records through this function
    gives a same-failure-stream comparison, exactly like the paper's
    manual-scenario derivations.
    """
    from repro.core.sira_analysis import record_severity

    severity = record_severity(record)
    if severity is None:
        return 0.0
    if severity <= FAILOVER_MAX_SCOPE:
        return FAILOVER_DURATION
    return record.time_to_recover


def failover_replay_mttr(records) -> float:
    """Mean replayed TTR over recoverable failures."""
    from repro.core.sira_analysis import record_severity

    samples = [
        failover_replay_ttr(r)
        for r in records
        if record_severity(r) is not None
    ]
    return sum(samples) / len(samples) if samples else 0.0


__all__ = [
    "RedundantBlueTestClient",
    "RedundantPanuNode",
    "RedundantTestbed",
    "run_redundant_campaign",
    "failover_replay_ttr",
    "failover_replay_mttr",
    "FAILOVER_ACTION",
    "FAILOVER_DURATION",
    "FAILOVER_MAX_SCOPE",
    "SECONDO",
]
