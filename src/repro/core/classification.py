"""Raw-message classification.

The repository stores free-text log messages; the first analysis step
classifies them into the failure-model types, just as the paper's
"accurate classification of the collected user failures' reports" did.
Classification is deliberately pattern-based and independent of the
message-producing code: changing a workload phrasing without updating
the patterns shows up as unclassified messages, which are reported
rather than silently dropped.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.collection.records import SystemLogRecord, TestLogRecord
from repro.collection.store import MESSAGE, Row, _system_row, _test_row
from .failure_model import SystemFailureType, UserFailureType

#: Ordered (pattern, type) pairs: first match wins, so the more specific
#: patterns (NAP-not-found before generic SDP) come first.
_USER_PATTERNS: List[Tuple[re.Pattern, UserFailureType]] = [
    (re.compile(r"nap service not found|returned no NAP", re.I), UserFailureType.NAP_NOT_FOUND),
    (re.compile(r"inquiry", re.I), UserFailureType.INQUIRY_SCAN_FAILED),
    (re.compile(r"sdp (?:search|service search)", re.I), UserFailureType.SDP_SEARCH_FAILED),
    (re.compile(r"pan connect|pan connection", re.I), UserFailureType.PAN_CONNECT_FAILED),
    (re.compile(r"l2cap connect|establish l2cap", re.I), UserFailureType.CONNECT_FAILED),
    (re.compile(r"bind", re.I), UserFailureType.BIND_FAILED),
    (
        re.compile(r"(?:switch role|role switch) request", re.I),
        UserFailureType.SW_ROLE_REQUEST_FAILED,
    ),
    (
        re.compile(r"(?:switch role|role switch) command", re.I),
        UserFailureType.SW_ROLE_COMMAND_FAILED,
    ),
    (
        re.compile(r"expected packet|timeout waiting", re.I),
        UserFailureType.PACKET_LOSS,
    ),
    (
        re.compile(r"does not match|content corrupted", re.I),
        UserFailureType.DATA_MISMATCH,
    ),
]

#: System messages carry their component as a prefix token (BlueZ hosts).
_SYSTEM_PREFIXES: List[Tuple[str, SystemFailureType]] = [
    ("hci:", SystemFailureType.HCI),
    ("l2cap:", SystemFailureType.L2CAP),
    ("sdp:", SystemFailureType.SDP),
    ("bcsp:", SystemFailureType.BCSP),
    ("bnep:", SystemFailureType.BNEP),
    ("usb:", SystemFailureType.USB),
    ("hal:", SystemFailureType.HOTPLUG),
]

#: The Broadcom stack prefixes everything with "btw:"; the component is
#: identified by a keyword inside the message.
_BROADCOM_KEYWORDS: List[Tuple[str, SystemFailureType]] = [
    ("hci", SystemFailureType.HCI),
    ("l2cap", SystemFailureType.L2CAP),
    ("sdp", SystemFailureType.SDP),
    ("serial transport", SystemFailureType.BCSP),
    ("bnep", SystemFailureType.BNEP),
    ("pan adapter", SystemFailureType.BNEP),
    ("usb", SystemFailureType.USB),
]


def classify_user_message(message: str) -> Optional[UserFailureType]:
    """Map a Test Log message to its user-level failure type."""
    for pattern, failure_type in _USER_PATTERNS:
        if pattern.search(message):
            return failure_type
    return None


def classify_system_message(message: str) -> Optional[SystemFailureType]:
    """Map a System Log message to its system-level failure type."""
    text = message.strip().lower()
    for prefix, failure_type in _SYSTEM_PREFIXES:
        if text.startswith(prefix):
            return failure_type
    # Windows/Broadcom phrasing: "btw: <component> ..." and PnP events.
    if text.startswith("btw:"):
        for keyword, failure_type in _BROADCOM_KEYWORDS:
            if keyword in text:
                return failure_type
        return None
    if text.startswith("pnp:"):
        return SystemFailureType.HOTPLUG
    # Messages forwarded through the kernel facility keep their
    # component tag after the facility prefix ("kernel: bnep: ...").
    for prefix, failure_type in _SYSTEM_PREFIXES:
        if f" {prefix}" in text or f":{prefix}" in text:
            return failure_type
    return None


def classify_user_record(record: TestLogRecord) -> Optional[UserFailureType]:
    """Classify one Test Log report by its raw message."""
    return classify_user_message(record.message)


def classify_system_record(record: SystemLogRecord) -> Optional[SystemFailureType]:
    """Classify one System Log entry (errors only)."""
    if record.severity != "error":
        return None
    return classify_system_message(record.message)


class MessageClassifier:
    """Classify rows by message text, each distinct text once.

    A campaign repeats a small vocabulary of messages thousands of
    times, so one analysis pass keeps the verdict per text instead of
    re-running the patterns per record.  Classification stays purely
    text-based — the memo changes how often the patterns run, never
    what they return.  Each memo is cleared when it reaches
    :attr:`LIMIT` distinct texts, so its memory stays bounded however
    long the stream.
    """

    LIMIT = 1 << 14

    def __init__(self) -> None:
        self._user: Dict[str, Optional[UserFailureType]] = {}
        self._system: Dict[str, Optional[SystemFailureType]] = {}

    def user(self, row: Row) -> Optional[UserFailureType]:
        """:func:`classify_user_record` of a test row, memoised on the message text."""
        return self._lookup(self._user, row[MESSAGE], classify_user_message)

    def system(self, row: Row) -> Optional[SystemFailureType]:
        """:func:`classify_system_record` of a system row, memoised on the message text."""
        _, _, _, _, severity, message = row
        if severity != "error":
            return None
        return self._lookup(self._system, message, classify_system_message)

    def _lookup(self, memo: dict, text: str, classify: Callable[[str], object]):
        if text in memo:
            return memo[text]
        if len(memo) >= self.LIMIT:
            memo.clear()
        failure_type = memo[text] = classify(text)
        return failure_type


class ClassificationCounts:
    """Classified/unclassified message counts, folded one row at a time."""

    def __init__(self) -> None:
        self.user_total = self.user_classified = 0
        self.system_total = self.system_classified = 0

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Count one user report, classified when ``user_type`` is set."""
        self.user_total += 1
        if user_type is not None:
            self.user_classified += 1

    def add_system(self, row: Row, system_type: Optional[SystemFailureType]) -> None:
        """Count one system entry, classified when ``system_type`` is set."""
        self.system_total += 1
        if system_type is not None:
            self.system_classified += 1

    def report(self) -> Dict[str, int]:
        """The counts as :func:`classification_report` returns them."""
        return {
            "user_total": self.user_total,
            "user_classified": self.user_classified,
            "system_total": self.system_total,
            "system_classified": self.system_classified,
        }


def classification_report(
    user_records: Iterable[TestLogRecord],
    system_records: Iterable[SystemLogRecord],
) -> dict:
    """Counts of classified/unclassified messages in both streams."""
    counts = ClassificationCounts()
    for record in user_records:
        counts.add_test(_test_row(record), classify_user_record(record))
    for entry in system_records:
        counts.add_system(_system_row(entry), classify_system_record(entry))
    return counts.report()


__all__ = [
    "classify_user_message",
    "classify_system_message",
    "classify_user_record",
    "classify_system_record",
    "classification_report",
    "ClassificationCounts",
    "MessageClassifier",
]
