"""Software-Implemented Recovery Actions (SIRAs).

Upon failure detection, recovery actions are attempted *in cascade*,
ordered by increasing cost (paper §4): when the i-th action does not
succeed, the (i+1)-th is performed.  The action that finally clears the
failure measures the failure's *severity*.

Success is determined by the fault's hidden damage scope (sampled at
injection time and carried on the exception): an action succeeds iff
its level reaches the scope.  The workload records every attempt, so
the analysis side can re-derive Table 3 from the logs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from repro.bluetooth.errors import BTError
from repro.collection.records import RecoveryAttempt
from repro.faults import calibration as cal
from repro.sim import SleepUntil, Simulator, Timeout

#: Canonical SIRA names, in cascade order (levels 1..7).
SIRA_NAMES: List[str] = [
    "ip_socket_reset",
    "bt_connection_reset",
    "bt_stack_reset",
    "application_restart",
    "multiple_application_restart",
    "system_reboot",
    "multiple_system_reboot",
]


@dataclass(frozen=True)
class SiraAction:
    """One recovery action: its level, name, and duration model."""

    level: int
    name: str
    base_duration: float
    max_repeats: int = 1

    def sample_duration(self, rng: random.Random) -> float:
        """Duration of one attempt (multiple-X actions repeat the base)."""
        if self.max_repeats <= 1:
            return self.base_duration
        repeats = rng.randint(2, self.max_repeats)
        return self.base_duration * repeats


def standard_actions() -> List[SiraAction]:
    """The paper's seven SIRAs with calibrated durations."""
    durations = cal.SIRA_DURATIONS
    return [
        SiraAction(1, SIRA_NAMES[0], durations[0]),
        SiraAction(2, SIRA_NAMES[1], durations[1]),
        SiraAction(3, SIRA_NAMES[2], durations[2]),
        SiraAction(4, SIRA_NAMES[3], durations[3]),
        SiraAction(5, SIRA_NAMES[4], durations[4], max_repeats=cal.MAX_APP_RESTARTS),
        SiraAction(6, SIRA_NAMES[5], durations[5]),
        SiraAction(7, SIRA_NAMES[6], durations[6], max_repeats=cal.MAX_SYSTEM_REBOOTS),
    ]


def _no_side_effect(level: int) -> None:
    """The side effect of a cascade whose owner clears no state."""


class RecoveryEngine:
    """Runs the SIRA cascade for one node's workload."""

    def __init__(
        self,
        rng: random.Random,
        actions: Optional[List[SiraAction]] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self._rng = rng
        self.actions = actions or standard_actions()
        self._sim = sim
        self.recoveries = 0
        self.unrecovered = 0

    def recover(
        self,
        error: BTError,
        side_effect: Optional[Callable[[int], None]] = None,
    ) -> Generator:
        """Run the cascade until the failure clears.

        ``side_effect`` is invoked with the level of every *attempted*
        action so the owning node can apply the matching state clearing
        (drop the connection, reset the stack, restart the app, reboot).
        It is passed per cascade rather than stored on the engine: the
        owner holds the engine, and a stored bound method of the owner
        would tie the two into a cycle only the cyclic collector frees.

        Returns the list of :class:`RecoveryAttempt` records (empty when
        the failure defines no recovery, e.g. data mismatch).

        When constructed with a simulator, consecutive attempts are
        *wait-chained*: the cascade's outcome is fully determined by the
        fault's damage scope, so the durations can be drawn up front (in
        cascade order, preserving the RNG stream) and slept through in
        one wake-up at the bit-identical final instant.  State-clearing
        side effects are applied, in cascade order, at that wake-up; a
        system reboot (level >= 6) writes a timestamped boot line, so
        the chain always breaks there to keep that timestamp in place.
        """
        attempts: List[RecoveryAttempt] = []
        scope = getattr(error, "scope", 1)
        if scope <= 0:
            return attempts  # no recovery defined (data mismatch)
        effect = side_effect or _no_side_effect
        sim = self._sim
        if sim is None:
            # Stepwise cascade for engines wired without a simulator.
            for action in self.actions:
                duration = action.sample_duration(self._rng)
                yield Timeout(duration)
                effect(action.level)
                succeeded = action.level >= scope
                attempts.append(
                    RecoveryAttempt(
                        action=action.name, succeeded=succeeded, duration=duration
                    )
                )
                if succeeded:
                    self.recoveries += 1
                    return attempts
            self.unrecovered += 1
            return attempts
        deadline = sim.now
        pending: List[int] = []  # levels whose side effects are due at the wake
        for action in self.actions:
            duration = action.sample_duration(self._rng)
            deadline += duration
            succeeded = action.level >= scope
            attempts.append(
                RecoveryAttempt(action=action.name, succeeded=succeeded, duration=duration)
            )
            pending.append(action.level)
            if succeeded or action.level >= 6:
                yield SleepUntil(deadline)
                for level in pending:
                    effect(level)
                pending.clear()
                if succeeded:
                    self.recoveries += 1
                    return attempts
        if pending:
            yield SleepUntil(deadline)
            for level in pending:
                effect(level)
        self.unrecovered += 1
        return attempts

    @staticmethod
    def severity(attempts: List[RecoveryAttempt]) -> Optional[int]:
        """Severity = level of the action that succeeded (paper §4)."""
        for index, attempt in enumerate(attempts, start=1):
            if attempt.succeeded:
                return index
        return None


__all__ = ["RecoveryEngine", "SiraAction", "SIRA_NAMES", "standard_actions"]
