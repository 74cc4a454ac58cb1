"""The LogAnalyzer daemon.

One LogAnalyzer runs on every BT node (paper §3).  Periodically it
i) extracts the failure data appended to the Test Log and the System Log
since its previous visit, ii) filters them, and iii) sends the result to
the central repository.  Here it is a simulation process that wakes on a
fixed period (with a small phase offset per node so daemons do not fire
in lock-step).  Once a round has shipped, the node's logs rotate: what
has been shipped is not held (:meth:`AppendOnlyLog.release`).
"""

from __future__ import annotations

from repro.sim import Simulator
from .filtering import FilterStats, filter_system_records
from .logs import SystemLog, TestLog
from .repository import CentralRepository

DEFAULT_PERIOD = 600.0  # seconds between collection rounds


class LogAnalyzer:
    """Extract -> filter -> ship daemon for one node's pair of logs."""

    def __init__(
        self,
        node: str,
        test_log: TestLog,
        system_log: SystemLog,
        repository: CentralRepository,
        period: float = DEFAULT_PERIOD,
        phase: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError("collection period must be positive")
        self.node = node
        self.test_log = test_log
        self.system_log = system_log
        self.repository = repository
        self.period = period
        self.phase = phase
        # The first round ships only what the logs receive after this
        # point: batch fidelity builds its analyzers over logs whose
        # out-of-order buffer it has just released.
        self._test_cursor = test_log.cursor
        self._system_cursor = system_log.cursor
        self.rounds = 0
        self.shipped_test = 0
        self.shipped_system = 0
        self.filter_stats = FilterStats()

    def collect_once(self) -> None:
        """Run one extract/filter/ship round immediately, then rotate the logs.

        The repository now holds (the filtered part of) the batch, so
        the logs release it: each node keeps only what it appended since
        this round.  An empty window still counts as a round but ships
        nothing: the repository is left as it was.
        """
        test_log, system_log = self.test_log, self.system_log
        test_batch = test_log.since(self._test_cursor)
        self._test_cursor = test_log.cursor
        system_batch = system_log.since(self._system_cursor)
        self._system_cursor = system_log.cursor
        if not test_batch and not system_batch:
            self.rounds += 1
            return

        kept_system, stats = filter_system_records(system_batch)
        self._merge_stats(stats)

        self.shipped_test += self.repository.ingest_test(test_batch)
        self.shipped_system += self.repository.ingest_system(kept_system)
        self.rounds += 1
        test_log.release(self._test_cursor)
        system_log.release(self._system_cursor)

    def _merge_stats(self, stats: FilterStats) -> None:
        self.filter_stats.total += stats.total
        self.filter_stats.dropped_severity += stats.dropped_severity
        self.filter_stats.dropped_facility += stats.dropped_facility
        self.filter_stats.dropped_duplicate += stats.dropped_duplicate

    def start(self, sim: Simulator):
        """Arm the daemon on ``sim``; returns its periodic-timer handle.

        Runs on :meth:`Simulator.schedule_periodic`, so the per-round
        generator resume/re-schedule allocation churn of the historical
        process-based daemon is gone: one event object is re-armed
        forever.  The firing schedule is unchanged — first collection at
        ``phase + period``, then every ``period`` seconds.
        """
        return sim.schedule_periodic(
            self.period, self.collect_once, first_delay=self.phase + self.period
        )


__all__ = ["LogAnalyzer", "DEFAULT_PERIOD"]
