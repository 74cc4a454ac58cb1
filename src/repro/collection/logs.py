"""Per-node log files: the Test Log and the System Log.

On each BT node both user-level and system-level failure data are stored
in two files (paper §3): the *Test Log*, containing user-level failure
reports, and the *System Log*, containing the error information
registered by applications and system daemons.  Here both are
append-only in-memory sequences with a cursor API used by the
LogAnalyzer daemon to extract "what's new since my last visit"; the
central repository persists what it ships.
"""

from __future__ import annotations

import random
from typing import Generic, List, Optional, Sequence, TypeVar

from repro.core.failure_model import SystemFailureType
from .messages import facility_for, render_system_message
from .records import SystemLogRecord, TestLogRecord

RecordT = TypeVar("RecordT")


class AppendOnlyLog(Generic[RecordT]):
    """An append-only record log with monotone timestamps and cursors."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._records: List[RecordT] = []

    def append(self, record: RecordT) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(self) -> Sequence[RecordT]:
        """All records appended so far (do not mutate)."""
        return self._records

    def since(self, cursor: int) -> List[RecordT]:
        """Records appended at or after position ``cursor``."""
        if cursor < 0:
            raise ValueError(f"negative cursor: {cursor}")
        return self._records[cursor:]

    @property
    def cursor(self) -> int:
        """Position just past the last record (pass back to :meth:`since`)."""
        return len(self._records)


class TestLog(AppendOnlyLog[TestLogRecord]):
    """User-level failure reports written by the BlueTest workload."""


class SystemLog(AppendOnlyLog[SystemLogRecord]):
    """System-level log of one host (BT stack modules, daemons, drivers).

    Stack layers call :meth:`error` with a failure type and message
    variant; the raw text is rendered through the shared vocabulary so
    that the analysis side has something realistic to classify.
    """

    def __init__(
        self,
        node: str,
        rng: Optional[random.Random] = None,
        clock: Optional["Callable[[], float]"] = None,
        vendor: str = "bluez",
    ) -> None:
        super().__init__(node)
        # No hidden fixed-seed fallback (DET006): a log constructed
        # without a stream can replay/load records but cannot render
        # new error text — error() raises until an rng is injected.
        self._rng = rng
        self._clock = 0.0
        self._clock_fn = clock
        self.vendor = vendor

    def set_time(self, now: float) -> None:
        """Update the log's notion of current time (set by the node)."""
        self._clock = now

    @property
    def now(self) -> float:
        """Current log time: the clock callback if wired, else set_time's."""
        return self._clock_fn() if self._clock_fn is not None else self._clock

    def error(
        self,
        failure: SystemFailureType,
        variant: str,
        peer: Optional[str] = None,
    ) -> SystemLogRecord:
        """Record an error entry for (failure, variant) at the current time.

        ``peer`` names the remote device involved, when the component
        knows it — BT daemons routinely log the peer BD_ADDR, and the
        analysis uses it to attribute NAP-side errors to the right PANU.
        """
        if self._rng is None:
            raise RuntimeError(
                f"SystemLog({self.node!r}) has no RNG stream: inject a "
                "random.Random (e.g. streams.stream('syslog/<node>')) to "
                "record errors"
            )
        message = render_system_message(self._rng, failure, variant, self.vendor)
        if peer:
            message = f"{message} (peer {peer})"
        record = SystemLogRecord(
            time=self.now,
            node=self.node,
            facility=facility_for(failure, self.vendor),
            severity="error",
            message=message,
        )
        self.append(record)
        return record

    def info(self, facility: str, message: str) -> SystemLogRecord:
        """Record a benign informational entry (background noise)."""
        record = SystemLogRecord(
            time=self.now,
            node=self.node,
            facility=facility,
            severity="info",
            message=message,
        )
        self.append(record)
        return record


__all__ = ["AppendOnlyLog", "TestLog", "SystemLog"]
