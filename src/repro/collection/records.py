"""Log record schemas of the collection infrastructure.

Two kinds of records exist, mirroring the paper's two data sources:

* :class:`TestLogRecord` — a *user-level* failure report written by the
  instrumented BlueTest workload, containing the failure as a user
  perceives it plus the BT node status at the time (workload type,
  packet type, packets sent/received, ...) and the outcome of the
  recovery actions.
* :class:`SystemLogRecord` — a *system-level* entry as written by BT
  stack modules, daemons and OS drivers to the host's system log.

Records carry **raw message strings**, not failure-type enums: the
analysis pipeline must classify them, as the paper's SAS analysis did.

A multi-seed campaign materialises hundreds of thousands of records, so
the schemas are tuned for bulk allocation: every record class carries
``__slots__`` (no per-instance ``__dict__``), the short categorical
strings (node, facility, severity, phase, testbed, workload) are
interned so equality checks inside the analysis pipeline reduce to
pointer comparisons, and ``TestLogRecord.recovery`` is stored as a
tuple (accepting any sequence at construction).

Inside the pipeline a record travels as a row
(:mod:`repro.collection.store`); records are built at the API edges,
where the JSONL repository and ``repro-bt query`` use an explicit,
reflection-free codec: ``to_dict`` is a dict literal in field order
(``dataclasses.asdict`` gives the same output at 20 to 35 times the
cost), and ``from_dict`` drops unknown keys (:func:`_known_fields`)
for records and attempts alike.  Adding a field means updating
``to_dict``, ``from_dict``, the column tuple and the row pair in
:mod:`repro.collection.store`; the deep lint (WIRE001) and
``tests/test_record_codec.py`` fail on a missed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from sys import intern
from typing import Any, Dict, Optional, Tuple

from repro import get_logger

log = get_logger("collection.records")


def _add_slots(cls):
    """Rebuild a dataclass with ``__slots__`` (py3.9-compatible).

    ``@dataclass(slots=True)`` only exists from Python 3.10; this is the
    standard recipe — recreate the class with ``__slots__`` naming its
    fields and without the class-level default values (the generated
    ``__init__`` carries its own defaults), so instances drop their
    per-record ``__dict__``.  The class also gets ``_FIELDS``, its
    field-name set, computed once here for the ``from_dict`` key check.
    """
    field_names = tuple(f.name for f in fields(cls))
    if "__slots__" not in cls.__dict__:
        cls_dict = dict(cls.__dict__)
        cls_dict["__slots__"] = field_names
        for name in field_names:
            cls_dict.pop(name, None)
        cls_dict.pop("__dict__", None)
        cls_dict.pop("__weakref__", None)
        new_cls = type(cls)(cls.__name__, cls.__bases__, cls_dict)
        new_cls.__qualname__ = cls.__qualname__
        cls = new_cls
    cls._FIELDS = frozenset(field_names)
    return cls


def _known_fields(cls, data: Dict[str, Any]) -> Dict[str, Any]:
    """Drop (and debug-log) keys a record schema does not know.

    Repositories dumped by newer versions of the package may carry extra
    per-record fields; loading should tolerate them rather than crash.
    """
    known = cls._FIELDS
    unknown = [key for key in data if key not in known]
    if unknown:
        log.debug("%s: ignoring unknown fields %s", cls.__name__, unknown)
        return {key: value for key, value in data.items() if key in known}
    return data


@_add_slots
@dataclass(frozen=True)
class SystemLogRecord:
    """One line of a host's system log."""

    time: float  # simulated seconds since campaign start
    node: str  # host name (e.g. "Verde")
    facility: str  # logging component ("kernel", "hcid", "sdpd", "hal", ...)
    severity: str  # "info" | "warning" | "error"
    message: str  # raw log text

    def __post_init__(self) -> None:
        # The categorical fields repeat across hundreds of thousands of
        # records; interning collapses them to shared instances.
        object.__setattr__(self, "node", intern(self.node))
        object.__setattr__(self, "facility", intern(self.facility))
        object.__setattr__(self, "severity", intern(self.severity))

    def to_dict(self) -> Dict[str, Any]:
        """The entry as plain data, keys in field order."""
        return {
            "time": self.time,
            "node": self.node,
            "facility": self.facility,
            "severity": self.severity,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemLogRecord":
        """Rebuild an entry from :meth:`to_dict` data (unknown keys dropped)."""
        if data.keys() != cls._FIELDS:
            data = _known_fields(cls, data)
        return cls(**data)


@_add_slots
@dataclass(frozen=True)
class RecoveryAttempt:
    """One software-implemented recovery action (SIRA) attempt."""

    action: str  # SIRA name, e.g. "bt_stack_reset"
    succeeded: bool
    duration: float  # seconds the attempt took

    def to_dict(self) -> Dict[str, Any]:
        """The attempt as plain data, keys in field order."""
        return {
            "action": self.action,
            "succeeded": self.succeeded,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecoveryAttempt":
        """Rebuild an attempt from :meth:`to_dict` data (unknown keys dropped).

        The one decoder for attempts, shared by JSONL records and the
        rows' ``recovery`` column.
        """
        if data.keys() != cls._FIELDS:
            data = _known_fields(cls, data)
        return cls(**data)


@_add_slots
@dataclass(frozen=True)
class TestLogRecord:
    """One user-level failure report from the BlueTest workload.

    ``recovery`` accepts any sequence of :class:`RecoveryAttempt` and is
    normalised to a tuple, so records are fully immutable and hashable.
    """

    time: float
    node: str
    testbed: str  # "random" | "realistic"
    workload: str  # emulated application ("random", "web", "p2p", ...)
    message: str  # raw failure text as the workload printed it
    phase: str  # BlueTest phase during which the failure manifested
    packet_type: Optional[str] = None  # Baseband packet type in use
    packets_sent: int = 0  # packets exchanged before the failure
    packets_expected: int = 0
    scan_flag: bool = False  # S: inquiry/scan performed this cycle
    sdp_flag: bool = False  # SDP: SDP search performed this cycle
    distance: float = 0.0  # antenna distance from the NAP (m)
    cycle_on_connection: int = 0  # 1-based index of the cycle on this connection
    idle_before_cycle: float = 0.0  # TW that preceded this cycle (s)
    masked: bool = False  # True if a masking strategy absorbed the failure
    recovery: Tuple[RecoveryAttempt, ...] = field(default=())

    def __post_init__(self) -> None:
        if type(self.recovery) is not tuple:
            object.__setattr__(self, "recovery", tuple(self.recovery))
        object.__setattr__(self, "node", intern(self.node))
        object.__setattr__(self, "testbed", intern(self.testbed))
        object.__setattr__(self, "workload", intern(self.workload))
        object.__setattr__(self, "phase", intern(self.phase))

    @property
    def recovered_by(self) -> Optional[str]:
        """Name of the SIRA that cleared the failure, if any."""
        for attempt in self.recovery:
            if attempt.succeeded:
                return attempt.action
        return None

    @property
    def time_to_recover(self) -> float:
        """Total time spent in recovery attempts for this failure."""
        return sum(a.duration for a in self.recovery)

    def to_dict(self) -> Dict[str, Any]:
        """The record as plain data, with ``recovery`` as a list.

        The serialised shape is list-typed (as it has always been) even
        though the in-memory field is a tuple, so dumped repositories
        stay stable across versions.
        """
        return {
            "time": self.time,
            "node": self.node,
            "testbed": self.testbed,
            "workload": self.workload,
            "message": self.message,
            "phase": self.phase,
            "packet_type": self.packet_type,
            "packets_sent": self.packets_sent,
            "packets_expected": self.packets_expected,
            "scan_flag": self.scan_flag,
            "sdp_flag": self.sdp_flag,
            "distance": self.distance,
            "cycle_on_connection": self.cycle_on_connection,
            "idle_before_cycle": self.idle_before_cycle,
            "masked": self.masked,
            "recovery": [attempt.to_dict() for attempt in self.recovery],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TestLogRecord":
        """Rebuild a report from :meth:`to_dict` data (unknown keys dropped)."""
        if data.keys() != cls._FIELDS:
            data = _known_fields(cls, data)
        payload = dict(data)
        attempts = payload.get("recovery")
        payload["recovery"] = (
            tuple(map(RecoveryAttempt.from_dict, attempts)) if attempts else ()
        )
        return cls(**payload)


__all__ = ["SystemLogRecord", "TestLogRecord", "RecoveryAttempt"]
