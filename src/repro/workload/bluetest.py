"""The BlueTest workload client.

One client runs on every PANU.  Each cycle it emulates a BT user:
inquiry/scan (if S), SDP search (if SDP), PAN connect + bind when no
connection is up, data transfer against the BlueTest server on the NAP,
disconnect when the connection's cycle budget is exhausted, then a
Pareto-distributed passive off time.

The client is *instrumented*: every failure produces a Test Log report
with the node status, and triggers either a masking strategy or the
SIRA cascade.  It also keeps the aggregate cycle statistics (cycles per
packet type, idle times before failed/failure-free cycles) that the
paper's §6 analyses need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.bluetooth.errors import BTError
from repro.bluetooth.packets import PacketType
from repro.bluetooth.pan import PanConnection
from repro.bluetooth.stack import BluetoothStack
from repro.collection.logs import TestLog
from repro.collection.messages import render_user_message
from repro.collection.records import TestLogRecord, _add_slots
from repro.obs.trace import CLASSIFICATION_LAYER, get_tracer
from repro.recovery.masking import MaskingPolicy, RetryMasker
from repro.recovery.sira import RecoveryEngine
from repro.sim import Simulator, Timeout, spawn
from .traffic import CycleParams, WorkloadModel

#: Packet type the BT stack itself picks when the workload leaves the
#: choice open (realistic WL): the highest-throughput ACL type.
STACK_CHOICE = PacketType.DH5


@_add_slots
@dataclass
class CycleStats:
    """Aggregate per-client counters for the §6 analyses.

    Mutated once per cycle on the campaign hot path, hence the
    ``__slots__`` (added post-hoc for py3.9 compatibility).
    """

    cycles: int = 0
    failures: int = 0
    masked: int = 0
    cycles_by_packet_type: Dict[str, int] = field(default_factory=dict)
    idle_ok_sum: float = 0.0
    idle_ok_count: int = 0
    idle_fail_sum: float = 0.0
    idle_fail_count: int = 0


class BlueTestClient:
    """The instrumented PANU-side workload of one node."""

    def __init__(
        self,
        sim: Simulator,
        stack: BluetoothStack,
        test_log: TestLog,
        model: WorkloadModel,
        rng: random.Random,
        masking: MaskingPolicy = MaskingPolicy.all_off(),
        distance: float = 1.0,
        testbed_name: str = "random",
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.test_log = test_log
        self.model = model
        self.rng = rng
        self.masking = masking
        self.distance = distance
        self.testbed_name = testbed_name
        self.stats = CycleStats()
        self.retry_masker = RetryMasker(rng)
        self.recovery = RecoveryEngine(rng, sim=sim)
        self._connection: Optional[PanConnection] = None
        self._cycles_left_on_connection = 0
        self._cycle_index_on_connection = 0

    # -- main loop -----------------------------------------------------------

    def run(self) -> Generator:
        """The 24/7 workload process: one BlueTest cycle per iteration.

        The per-cycle bookkeeping and the cycle body share this one
        generator frame because the loop resumes once per simulated
        event: a helper generator per cycle would add a frame to every
        resume.
        """
        stats = self.stats
        model = self.model
        rng = self.rng
        masking = self.masking
        stack = self.stack
        pan = stack.pan
        counts = stats.cycles_by_packet_type
        while True:
            params = model.next_cycle(rng)
            yield Timeout(params.idle_time)
            stats.cycles += 1
            connection = self._connection
            had_connection = connection is not None and connection.alive
            packet_type = params.packet_type or STACK_CHOICE
            key = packet_type.code
            counts[key] = counts.get(key, 0) + 1
            failed = False
            try:
                if not had_connection:
                    # Cycles that continue an established connection
                    # skip the search phases — the point of exploiting
                    # caching (paper §3).
                    if params.scan_flag:
                        yield from stack.inquiry()
                    did_sdp = False
                    if params.sdp_flag or masking.sdp_before_pan:
                        yield from stack.sdp_search_nap()
                        did_sdp = True
                    if connection is not None:
                        connection.force_close()
                        self._connection = None
                    connection = yield from pan.connect(sdp_performed=did_sdp)
                    self._connection = connection
                    self._cycles_left_on_connection = model.cycles_per_connection(rng)
                    self._cycle_index_on_connection = 0
                    # Application set-up work before the socket is bound.
                    yield Timeout(rng.uniform(0.5, 2.0))
                    yield from pan.bind(connection, wait_ready=masking.bind_wait)
                self._cycle_index_on_connection += 1
                yield from self._connection.transfer(
                    packet_type,
                    params.n_logical,
                    params.send_size,
                    params.recv_size,
                    application=params.application,
                )
                self._cycles_left_on_connection -= 1
                if self._cycles_left_on_connection <= 0:
                    yield from self._connection.disconnect()
                    self._connection = None
            except BTError as error:
                failed = True
                yield from self._handle_failure(error, params, packet_type)
            if had_connection:
                # Idle-time bookkeeping only counts T_W between
                # consecutive cycles on the same connection (§6, fn. 8).
                if failed:
                    stats.idle_fail_sum += params.idle_time
                    stats.idle_fail_count += 1
                else:
                    stats.idle_ok_sum += params.idle_time
                    stats.idle_ok_count += 1

    def start(self, sim: Optional[Simulator] = None):
        """Spawn the client's run loop; returns the process handle."""
        return spawn(sim or self.sim, self.run(), name=f"bluetest:{self.node_name}")

    @property
    def node_name(self) -> str:
        return self.stack.traits.name

    # -- failure handling ------------------------------------------------------

    def _handle_failure(
        self, error: BTError, params: CycleParams, packet_type: PacketType
    ) -> Generator:
        failure = error.user_failure
        if failure is None:
            raise error  # protocol-invariant violation: a genuine bug
        masked = False
        if self.masking.applies_retry(failure):
            masked = yield from self.retry_masker.attempt_mask(failure, self.masking)
        if masked:
            self.stats.masked += 1
            self._record(error, params, packet_type, masked=True, attempts=())
            return None
        self.stats.failures += 1
        attempts = yield from self.recovery.recover(
            error, self._recovery_side_effect
        )
        self._record(error, params, packet_type, masked=False, attempts=attempts)
        return None

    def _record(self, error, params, packet_type, masked, attempts) -> None:
        """Write the Test Log report and close the propagation trace."""
        self._close_trace(error, masked)
        record = TestLogRecord(
            time=self.sim.now,
            node=self.test_log.node,  # "<testbed>:<host>", matching the system log
            testbed=self.testbed_name,
            workload=params.application,
            message=render_user_message(self.rng, error.user_failure),
            phase=error.user_failure.group.value,
            packet_type=packet_type.value,
            packets_sent=getattr(error, "packets_sent", 0),
            packets_expected=params.n_logical,
            scan_flag=params.scan_flag,
            sdp_flag=params.sdp_flag,
            distance=self.distance,
            cycle_on_connection=self._cycle_index_on_connection,
            idle_before_cycle=params.idle_time,
            masked=masked,
            recovery=attempts,
        )
        self.test_log.append(record)

    def _close_trace(self, error: BTError, masked: bool) -> None:
        """Stamp the user-level classification onto the error's trace span.

        The classification event is the last hop of the propagation
        chain (channel → baseband → L2CAP/BNEP → classification); the
        span is then closed with the failure/masked verdict.
        """
        trace_id = getattr(error, "trace_id", 0)
        tracer = get_tracer()
        if not (tracer.enabled and trace_id):
            return
        failure = error.user_failure.name.lower()
        tracer.event(
            trace_id,
            layer=CLASSIFICATION_LAYER,
            what=failure,
            node=self.node_name,
            masked=masked,
        )
        tracer.end_span(trace_id, status="masked" if masked else "failure")

    def _recovery_side_effect(self, level: int) -> None:
        """State clearing applied as each SIRA level is attempted."""
        if level >= 2 and self._connection is not None:
            self._connection.force_close()
            self._connection = None
        if level >= 3:
            self.stack.reset()
        if level >= 4:
            # Application restart: all client-side session state is gone.
            self.stack.sdp.invalidate()
            self._cycles_left_on_connection = 0
        if level >= 6:
            self.stack.host.note_reboot()
            self.stack.reset()
            self.stack.system_log.set_time(self.sim.now)
            self.stack.system_log.info("kernel", "kernel: system boot")


__all__ = ["BlueTestClient", "CycleStats", "STACK_CHOICE"]
