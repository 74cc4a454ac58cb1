"""Tests for the SIRA cascade and the masking strategies."""

import random

import pytest

from repro.bluetooth.errors import DataMismatchError, PacketLossError, SdpSearchError
from repro.core.failure_model import UserFailureType
from repro.faults import calibration as cal
from repro.recovery.masking import MaskingPolicy, RETRYABLE, RetryMasker
from repro.recovery.sira import (
    RecoveryEngine,
    SIRA_NAMES,
    standard_actions,
)
from repro.sim import Simulator

from conftest import drive


class TestSiraActions:
    def test_seven_actions_in_cost_order(self):
        actions = standard_actions()
        assert [a.name for a in actions] == SIRA_NAMES
        assert [a.level for a in actions] == list(range(1, 8))
        durations = [a.base_duration for a in actions]
        assert durations == sorted(durations)

    def test_multiple_actions_repeat(self):
        rng = random.Random(0)
        multi = standard_actions()[6]  # multiple_system_reboot
        for _ in range(100):
            duration = multi.sample_duration(rng)
            assert duration >= 2 * multi.base_duration
            assert duration <= cal.MAX_SYSTEM_REBOOTS * multi.base_duration

    def test_single_action_duration_fixed(self):
        rng = random.Random(0)
        single = standard_actions()[0]
        assert single.sample_duration(rng) == single.base_duration


class TestRecoveryEngine:
    def run_recovery(self, error, seed=0):
        sim = Simulator()
        levels = []
        engine = RecoveryEngine(random.Random(seed))
        attempts = drive(sim, engine.recover(error, levels.append))
        return sim, engine, attempts, levels

    def test_cascade_stops_at_scope(self):
        _, engine, attempts, levels = self.run_recovery(PacketLossError(scope=3))
        assert [a.action for a in attempts] == SIRA_NAMES[:3]
        assert [a.succeeded for a in attempts] == [False, False, True]
        assert levels == [1, 2, 3]
        assert engine.recoveries == 1

    def test_scope_one_recovers_immediately(self):
        _, _, attempts, _ = self.run_recovery(PacketLossError(scope=1))
        assert len(attempts) == 1
        assert attempts[0].succeeded

    def test_scope_seven_exhausts_cascade(self):
        sim, _, attempts, _ = self.run_recovery(SdpSearchError(scope=7))
        assert len(attempts) == 7
        assert attempts[-1].succeeded
        assert sim.now >= sum(cal.SIRA_DURATIONS[:6])

    def test_no_recovery_for_mismatch(self):
        _, engine, attempts, levels = self.run_recovery(DataMismatchError(scope=0))
        assert attempts == []
        assert levels == []
        assert engine.recoveries == 0

    def test_recovery_time_accumulates(self):
        sim, _, attempts, _ = self.run_recovery(PacketLossError(scope=4))
        total = sum(a.duration for a in attempts)
        assert sim.now == pytest.approx(total)
        assert total >= sum(cal.SIRA_DURATIONS[:4])

    def test_severity_helper(self):
        _, _, attempts, _ = self.run_recovery(PacketLossError(scope=5))
        assert RecoveryEngine.severity(attempts) == 5
        assert RecoveryEngine.severity([]) is None


class TestMaskingPolicy:
    def test_all_on_off(self):
        assert MaskingPolicy.all_on().any_enabled
        assert not MaskingPolicy.all_off().any_enabled

    def test_retryable_set(self):
        assert UserFailureType.SW_ROLE_COMMAND_FAILED in RETRYABLE
        assert UserFailureType.NAP_NOT_FOUND in RETRYABLE
        assert UserFailureType.SDP_SEARCH_FAILED in RETRYABLE
        assert UserFailureType.PACKET_LOSS not in RETRYABLE

    def test_applies_retry_requires_flag(self):
        on = MaskingPolicy(retry=True)
        off = MaskingPolicy(retry=False)
        assert on.applies_retry(UserFailureType.NAP_NOT_FOUND)
        assert not off.applies_retry(UserFailureType.NAP_NOT_FOUND)
        assert not on.applies_retry(UserFailureType.PACKET_LOSS)


class TestRetryMasker:
    def test_masking_effectiveness_near_configured(self):
        sim = Simulator()
        masker = RetryMasker(random.Random(1))
        policy = MaskingPolicy(retry=True)
        outcomes = []
        for _ in range(5000):
            outcomes.append(
                drive(sim, masker.attempt_mask(UserFailureType.NAP_NOT_FOUND, policy))
            )
        p = cal.RETRY_MASK_EFFECTIVENESS
        expected = 1.0 - (1.0 - p) ** cal.RETRY_MASK_ATTEMPTS
        assert sum(outcomes) / len(outcomes) == pytest.approx(expected, abs=0.02)
        assert masker.masked + masker.unmasked == 5000

    def test_non_retryable_never_masked(self):
        sim = Simulator()
        masker = RetryMasker(random.Random(2))
        policy = MaskingPolicy(retry=True)
        masked = drive(
            sim, masker.attempt_mask(UserFailureType.PACKET_LOSS, policy)
        )
        assert masked is False
        assert sim.now == 0.0  # no retries were even attempted

    def test_retries_take_wall_time(self):
        sim = Simulator()
        masker = RetryMasker(random.Random(3))
        policy = MaskingPolicy(retry=True)
        drive(sim, masker.attempt_mask(UserFailureType.SDP_SEARCH_FAILED, policy))
        assert sim.now >= cal.RETRY_MASK_WAIT
