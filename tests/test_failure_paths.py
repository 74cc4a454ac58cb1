"""Failure-injection coverage: every phase's failure path, forced.

The campaign tests exercise failures statistically; these tests *force*
each failure type through a scripted injector and verify the exact
end-to-end behaviour: the right exception, the right report phase, the
right log evidence, and the right recovery side effects.
"""

import random
from typing import Optional

import pytest

from repro.bluetooth import errors as bt_errors
from repro.collection.logs import TestLog
from repro.core.classification import classify_user_record
from repro.core.failure_model import SystemFailureType, UserFailureType
from repro.faults.calibration import Origin
from repro.faults.injector import FaultActivation
from repro.recovery.masking import MaskingPolicy
from repro.sim import Interrupt, Simulator
from repro.workload.bluetest import BlueTestClient
from repro.workload.traffic import CycleParams, RandomWorkload

from conftest import drive, make_stack


class ScriptedInjector:
    """Injector stub that fails exactly one chosen operation."""

    def __init__(self, fail_operation: Optional[str], failure: Optional[UserFailureType],
                 scope: int = 2, evidence=None):
        self.fail_operation = fail_operation
        self.failure = failure
        self.scope = scope
        self.evidence = evidence or []
        self.fired = 0

    def draw_operation_fault(self, operation, node, busy=False, sdp_performed=True):
        if operation == self.fail_operation and self.fired == 0:
            self.fired += 1
            return FaultActivation(
                user_failure=self.failure, scope=self.scope, evidence=self.evidence
            )
        return None

    def activate(self, failure, node, detail=""):
        return FaultActivation(user_failure=failure, scope=self.scope, evidence=[])

    def transfer_hazards(self, node, application):
        from repro.faults.injector import TransferHazards

        return TransferHazards(
            break_hazard=0.0, mismatch_hazard=0.0, latent_defect=False,
            latent_multiplier=1.0, latent_packets=1.0,
        )


def scripted_stack(sim, operation, failure, scope=2, evidence=None, **kwargs):
    stack = make_stack(sim, **kwargs)
    stack.injector = ScriptedInjector(operation, failure, scope, evidence)
    stack.pan.injector = stack.injector
    return stack


OPERATION_CASES = [
    ("inquiry", UserFailureType.INQUIRY_SCAN_FAILED, bt_errors.InquiryScanError),
    ("sdp_search", UserFailureType.SDP_SEARCH_FAILED, bt_errors.SdpSearchError),
    ("sdp_search", UserFailureType.NAP_NOT_FOUND, bt_errors.NapNotFoundError),
    ("l2cap_connect", UserFailureType.CONNECT_FAILED, bt_errors.ConnectError),
    ("pan_connect", UserFailureType.PAN_CONNECT_FAILED, bt_errors.PanConnectError),
    ("bind", UserFailureType.BIND_FAILED, bt_errors.BindError),
    (
        "sw_role_request",
        UserFailureType.SW_ROLE_REQUEST_FAILED,
        bt_errors.SwitchRoleRequestError,
    ),
    (
        "sw_role_command",
        UserFailureType.SW_ROLE_COMMAND_FAILED,
        bt_errors.SwitchRoleCommandError,
    ),
]


class TestForcedOperationFailures:
    @pytest.mark.parametrize("operation,failure,error_cls", OPERATION_CASES)
    def test_operation_raises_typed_error(self, operation, failure, error_cls):
        sim = Simulator()
        stack = scripted_stack(sim, operation, failure, scope=3)

        def run_ops():
            yield from stack.inquiry()
            yield from stack.sdp_search_nap()
            connection = yield from stack.pan.connect()
            yield from stack.pan.bind(connection)
            yield from connection.disconnect()

        with pytest.raises(error_cls) as info:
            drive(sim, run_ops())
        assert info.value.user_failure is failure
        assert info.value.scope == 3

    def test_connect_failure_leaves_no_stale_state(self):
        sim = Simulator()
        stack = scripted_stack(
            sim, "l2cap_connect", UserFailureType.CONNECT_FAILED
        )
        with pytest.raises(bt_errors.ConnectError):
            drive(sim, stack.pan.connect())
        assert not stack.hci.connections
        assert stack.bnep.interface is None
        assert stack.nap.piconet.connecting == 0

    def test_role_switch_failure_cleans_partial_connection(self):
        sim = Simulator()
        stack = scripted_stack(
            sim, "sw_role_command", UserFailureType.SW_ROLE_COMMAND_FAILED
        )
        with pytest.raises(bt_errors.SwitchRoleCommandError):
            drive(sim, stack.pan.connect())
        assert not stack.hci.connections
        assert stack.bnep.interface is None
        assert "Verde" not in stack.nap.piconet.slaves

    def test_evidence_lands_in_correct_logs(self):
        sim = Simulator()
        evidence = [
            (SystemFailureType.HCI, "timeout", Origin.LOCAL),
            (SystemFailureType.SDP, "unavailable", Origin.NAP),
        ]
        stack = scripted_stack(
            sim, "l2cap_connect", UserFailureType.CONNECT_FAILED, evidence=evidence
        )
        with pytest.raises(bt_errors.ConnectError):
            drive(sim, stack.pan.connect())
        sim.run_until(sim.now + 400.0)  # let delayed evidence land
        local = [r.message for r in stack.system_log.records() if r.severity == "error"]
        nap = [r.message for r in stack.nap.system_log.records() if r.severity == "error"]
        assert any(m.startswith("hci:") for m in local)
        assert any(m.startswith("sdp:") and "(peer Verde)" in m for m in nap)


class ScriptedCycles(RandomWorkload):
    """Random-WL model that hands out scripted cycles, then stops the client.

    ``next_cycle`` returns ``cycles`` in order; once they run out it
    raises :class:`Interrupt`, which ends the client's 24/7 run loop
    without failing the simulation.
    """

    def __init__(self, cycles):
        super().__init__()
        self._cycles = list(cycles)

    def next_cycle(self, rng):
        if not self._cycles:
            raise Interrupt("script exhausted")
        return self._cycles.pop(0)


def cycle_params(scan=True, sdp=True):
    from repro.bluetooth.packets import PacketType

    return CycleParams(
        scan_flag=scan, sdp_flag=sdp, packet_type=PacketType.DH5,
        n_logical=5, send_size=200, recv_size=200, idle_time=0.0,
        application="random",
    )


def run_client(sim, client):
    """Run ``client`` through its scripted cycles and drain the simulator."""
    proc = client.start()
    sim.run()
    assert isinstance(proc.exception, Interrupt), proc.exception


class TestClientFailureHandling:
    def make_client(self, operation, failure, scope=2, cycles=1):
        sim = Simulator()
        stack = scripted_stack(sim, operation, failure, scope=scope)
        test_log = TestLog("random:Verde")
        client = BlueTestClient(
            sim, stack, test_log, ScriptedCycles([cycle_params()] * cycles),
            random.Random(5), masking=MaskingPolicy.all_off(),
            distance=0.5, testbed_name="random",
        )
        return sim, client, test_log

    @pytest.mark.parametrize("operation,failure,error_cls", OPERATION_CASES)
    def test_cycle_records_failure_with_correct_phase(
        self, operation, failure, error_cls
    ):
        sim, client, test_log = self.make_client(operation, failure, scope=2)
        run_client(sim, client)
        records = list(test_log.records())
        assert len(records) == 1
        record = records[0]
        assert classify_user_record(record) is failure
        assert record.phase == failure.group.value
        assert record.recovered_by == "bt_connection_reset"
        assert client.stats.failures == 1

    def test_recovery_side_effects_scope_three(self):
        sim, client, _ = self.make_client(
            "sdp_search", UserFailureType.SDP_SEARCH_FAILED, scope=3
        )
        run_client(sim, client)
        # Scope 3 walks levels 1..3; level 3 resets the BT stack.
        assert client.stack.stack_resets == 1

    def test_recovery_side_effects_scope_six_reboots(self):
        sim, client, _ = self.make_client(
            "sdp_search", UserFailureType.SDP_SEARCH_FAILED, scope=6
        )
        run_client(sim, client)
        assert client.stack.host.reboots == 1
        boot_lines = [
            r for r in client.stack.system_log.records()
            if "system boot" in r.message
        ]
        assert boot_lines

    def test_cycle_continues_after_failure(self):
        sim, client, _ = self.make_client(
            "l2cap_connect", UserFailureType.CONNECT_FAILED, scope=2, cycles=2
        )
        # The scripted injector fails once; the next cycle succeeds.
        run_client(sim, client)
        assert client.stats.cycles == 2
        assert client.stats.failures == 1

    def test_retry_masking_consumes_retryable_failure(self):
        sim = Simulator()
        stack = scripted_stack(
            sim, "sdp_search", UserFailureType.NAP_NOT_FOUND, scope=3
        )
        test_log = TestLog("random:Verde")
        client = BlueTestClient(
            sim, stack, test_log, ScriptedCycles([cycle_params()]), random.Random(0),
            masking=MaskingPolicy(retry=True), distance=0.5,
            testbed_name="random",
        )

        class AlwaysMasks(random.Random):
            def random(self):
                return 0.0  # below any positive effectiveness

        client.retry_masker._rng = AlwaysMasks()
        run_client(sim, client)
        records = list(test_log.records())
        assert len(records) == 1
        assert records[0].masked
        assert client.stats.masked == 1
        assert client.stats.failures == 0
