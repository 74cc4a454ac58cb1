"""Time-based merging of Test and System logs (step 1 of fig. 2).

For each node a merged stream is produced from its Test Log and System
Log, ordered by timestamp.  To discover error-propagation phenomena
from the NAP to the PANUs, the user-level data is additionally related
to the *NAP's* system log, so the merge can include a third source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.collection.records import SystemLogRecord, TestLogRecord
from repro.collection.store import TIME, FailureStore, Row
from .classification import MessageClassifier
from .failure_model import SystemFailureType, UserFailureType

#: What :func:`fold_store` hands every test row to.
TestSink = Callable[[Row, Optional[UserFailureType]], None]
#: What :func:`fold_store` hands every system row to.
SystemSink = Callable[[Row, Optional[SystemFailureType]], None]


class Source(enum.Enum):
    """Where a merged entry came from."""

    USER = "user"  # the node's Test Log
    SYSTEM_LOCAL = "system_local"  # the node's System Log
    SYSTEM_NAP = "system_nap"  # the NAP's System Log


@dataclass(frozen=True)
class MergedEntry:
    """One entry of a merged per-node log."""

    time: float
    source: Source
    record: Union[TestLogRecord, SystemLogRecord]


def merge_records(
    test_records: List[TestLogRecord],
    local_system: List[SystemLogRecord],
    nap_system: Optional[List[SystemLogRecord]] = None,
) -> List[MergedEntry]:
    """Merge up to three record streams into one time-ordered stream."""
    merged: List[MergedEntry] = []
    merged.extend(MergedEntry(r.time, Source.USER, r) for r in test_records)
    merged.extend(MergedEntry(r.time, Source.SYSTEM_LOCAL, r) for r in local_system)
    if nap_system:
        merged.extend(MergedEntry(r.time, Source.SYSTEM_NAP, r) for r in nap_system)
    merged.sort(key=lambda e: (e.time, e.source.value))
    return merged


def iter_node_logs(
    store: FailureStore,
    node: str,
    nap: Optional[str] = None,
    include_masked: bool = False,
) -> Iterator[MergedEntry]:
    """The merged log of ``node`` from any failure store, entry by entry.

    Masked failure reports are left out unless ``include_masked``; see
    :func:`merge_node_logs`.
    """
    tests: Iterable[TestLogRecord] = store.iter_records(kind="test", node=node)
    if not include_masked:
        tests = (r for r in tests if not r.masked)
    local_system = list(store.iter_records(kind="system", node=node))
    nap_system = list(store.iter_records(kind="system", node=nap)) if nap else None
    return iter(merge_records(list(tests), local_system, nap_system))


def fold_store(
    store: FailureStore,
    *,
    tests: Sequence[TestSink],
    systems: Sequence[SystemSink],
) -> None:
    """One time-ordered pass over a whole store, fanned out to accumulators.

    Reads exactly one test and one system row cursor (``iter_rows``) and
    merges them on ``(time, system-before-test)`` with an explicit
    two-way minimum (heapq-free, DET004).  Each row is classified once —
    by message text, through a :class:`MessageClassifier` local to this
    pass — and handed undecoded with its failure type to every sink of
    its kind, in stream order.  Every Table 1-4 statistic is such a sink,
    reading rows by column position (``row[MASKED]``), so a full render
    builds no record object.
    """
    classifier = MessageClassifier()
    test_stream = store.iter_rows(kind="test")
    system_stream = store.iter_rows(kind="system")
    test = next(test_stream, None)
    system = next(system_stream, None)
    while test is not None or system is not None:
        if system is not None and (test is None or system[TIME] <= test[TIME]):
            system_type = classifier.system(system)
            for system_sink in systems:
                system_sink(system, system_type)
            system = next(system_stream, None)
        else:
            user_type = classifier.user(test)
            for test_sink in tests:
                test_sink(test, user_type)
            test = next(test_stream, None)


def merge_node_logs(
    repository: FailureStore,
    node: str,
    nap: Optional[str] = None,
    include_masked: bool = False,
) -> List[MergedEntry]:
    """Build the merged log of ``node`` from the central repository.

    ``nap`` names the NAP whose system log should be merged in for the
    propagation analysis.  Masked failure reports are excluded by
    default: they never manifested to the user.
    """
    return list(iter_node_logs(repository, node, nap=nap, include_masked=include_masked))


__all__ = [
    "Source",
    "MergedEntry",
    "merge_records",
    "iter_node_logs",
    "fold_store",
    "merge_node_logs",
]
