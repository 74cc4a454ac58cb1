"""User failure-SIRA relationship and failure severity (Table 3).

Every unmasked failure report carries the cascade of recovery attempts
the workload performed.  Counting which action finally succeeded, per
failure type, gives the effectiveness of each SIRA (an estimate of the
probability that the action goes through), and the level of that action
is the failure's *severity*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.collection.records import RecoveryAttempt, TestLogRecord
from repro.collection.store import MASKED, RECOVERY, Row, _recovery_attempts, _remember, _test_row
from repro.recovery.sira import SIRA_NAMES
from .classification import classify_user_record
from .failure_model import UserFailureType


@dataclass
class SiraTable:
    """The mined failure-SIRA relationship."""

    #: counts[user][sira_name] -> number of failures recovered by it.
    counts: Dict[UserFailureType, Dict[str, int]] = field(default_factory=dict)
    #: Failures per type with no recovery defined (data mismatch).
    unrecovered: Dict[UserFailureType, int] = field(default_factory=dict)

    def add(self, user: UserFailureType, action: Optional[str]) -> None:
        """Count one failure recovered by ``action`` (None: unrecoverable)."""
        if action is None:
            self.unrecovered[user] = self.unrecovered.get(user, 0) + 1
            return
        self.counts.setdefault(user, {})[action] = (
            self.counts.setdefault(user, {}).get(action, 0) + 1
        )

    def add_test(self, row: Row, user: Optional[UserFailureType]) -> None:
        """Fold one failure report's row: unmasked, classified ones are counted."""
        if row[MASKED] or user is None:
            return
        self.add(user, recovery_outcome(row[RECOVERY])[1])

    def total(self, user: UserFailureType) -> int:
        return sum(self.counts.get(user, {}).values()) + self.unrecovered.get(user, 0)

    def observed_types(self) -> List[UserFailureType]:
        """Every failure type seen, in stable (paper-label) order.

        Enum members hash by identity, so iterating the raw key-set
        directly would order rows differently across sweep processes
        (DET003); sorting by the paper's label fixes the order.
        """
        return sorted(set(self.counts) | set(self.unrecovered), key=lambda u: u.value)

    def grand_total(self) -> int:
        return sum(self.total(u) for u in self.observed_types())

    # -- derived views ---------------------------------------------------------

    def row_percentages(self, user: UserFailureType) -> Dict[str, float]:
        """One Table 3 row: success share of each SIRA for this failure."""
        row = self.counts.get(user, {})
        total = sum(row.values())
        if total == 0:
            return {}
        return {name: 100.0 * row.get(name, 0) / total for name in SIRA_NAMES}

    def total_row(self) -> Dict[str, float]:
        """The Total row: SIRA success shares over all recovered failures."""
        merged: Dict[str, int] = {}
        for row in self.counts.values():
            for name, count in row.items():
                merged[name] = merged.get(name, 0) + count
        total = sum(merged.values())
        if total == 0:
            return {}
        return {name: 100.0 * merged.get(name, 0) / total for name in SIRA_NAMES}

    def shares(self) -> Dict[UserFailureType, float]:
        """The TOT column: each type's share of all failures (%)."""
        grand = self.grand_total()
        if grand == 0:
            return {}
        return {u: 100.0 * self.total(u) / grand for u in self.observed_types()}

    def severity_distribution(self, user: UserFailureType) -> Dict[int, float]:
        """Severity (1..7) distribution of one failure type (%)."""
        row = self.row_percentages(user)
        return {level: row.get(name, 0.0) for level, name in enumerate(SIRA_NAMES, 1)}

    def mean_severity(self, user: UserFailureType) -> Optional[float]:
        """Average severity (1..7) of one failure type, if observed."""
        dist = self.severity_distribution(user)
        total = sum(dist.values())
        if total == 0:
            return None
        return sum(level * pct for level, pct in dist.items()) / total

    def coverage(self, max_level: int = 3) -> float:
        """Fraction (%) of all failures recovered at or below ``max_level``.

        Level 3 = BT stack reset: recoveries a typical user could not
        perform without restarting the application or rebooting — the
        paper's failure-mode coverage definition for its testbed.
        """
        cheap = 0
        for user, row in self.counts.items():
            for name, count in row.items():
                if SIRA_NAMES.index(name) + 1 <= max_level:
                    cheap += count
        grand = self.grand_total()
        return 100.0 * cheap / grand if grand else 0.0


def _severity(attempts: Sequence[RecoveryAttempt]) -> Optional[int]:
    for index, attempt in enumerate(attempts, start=1):
        if attempt.succeeded:
            if attempt.action in SIRA_NAMES:
                return SIRA_NAMES.index(attempt.action) + 1
            return index  # non-SIRA action: fall back to cascade position
    if attempts:
        return len(SIRA_NAMES)  # cascade exhausted: maximal severity
    return None  # no recovery defined


def record_severity(record: TestLogRecord) -> Optional[int]:
    """Severity of one failure report: level of the successful action.

    The level comes from the action's *name* (its place in the SIRA
    ordering), not its position in the attempt list, so pruned cascades
    and extension actions (e.g. a piconet failover, which replaces the
    cheap levels) are rated correctly.
    """
    return _severity(record.recovery)


#: What a recovery cascade comes to: (severity, the action that cleared
#: the failure, the time spent recovering).
Outcome = Tuple[Optional[int], Optional[str], float]

#: Outcomes by ``recovery`` column text.
_OUTCOMES: Dict[str, Outcome] = {}


def recovery_outcome(text: str) -> Outcome:
    """:func:`record_severity`, ``recovered_by`` and ``time_to_recover`` of
    a ``recovery`` column text, memoised on the text (bounded like the
    store's memos): a campaign repeats a handful of attempt chains."""
    outcome = _OUTCOMES.get(text)
    if outcome is None:
        attempts = _recovery_attempts(text)
        recovered_by = next((a.action for a in attempts if a.succeeded), None)
        outcome = _remember(
            _OUTCOMES,
            text,
            (_severity(attempts), recovered_by, sum(a.duration for a in attempts)),
        )
    return outcome


def build_sira_table(records: Iterable[TestLogRecord]) -> SiraTable:
    """Mine Table 3 from unmasked failure reports."""
    table = SiraTable()
    for record in records:
        table.add_test(_test_row(record), classify_user_record(record))
    return table


__all__ = ["SiraTable", "build_sira_table", "record_severity", "recovery_outcome"]
