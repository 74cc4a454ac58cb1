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
from repro.collection.store import FailureStore
from .classification import MessageClassifier
from .failure_model import SystemFailureType, UserFailureType

#: What :func:`fold_store` hands every test record to.
TestSink = Callable[[TestLogRecord, Optional[UserFailureType]], None]
#: What :func:`fold_store` hands every system entry to.
SystemSink = Callable[[SystemLogRecord, Optional[SystemFailureType]], None]


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


def iter_merged(
    test_records: Iterable[TestLogRecord],
    local_system: Iterable[SystemLogRecord],
    nap_system: Optional[Iterable[SystemLogRecord]] = None,
) -> Iterator[MergedEntry]:
    """Streaming merge of up to three *time-ordered* record streams.

    Byte-identical output to :func:`merge_records` when each input
    stream is already time-sorted (which :meth:`FailureStore.
    iter_records` guarantees): the sort key there is ``(time,
    source.value)``, and ``"system_local" < "system_nap" < "user"``
    lexicographically, so the rank order below reproduces the exact
    tie-break; ties *within* a stream keep stream order both ways
    (stable sort vs. consecutive head consumption).  Peak memory is
    three records instead of the concatenated streams.
    """
    # Heads are [rank, source, iterator, next_record]; the explicit
    # three-way minimum keeps the merge heapq-free (determinism lint
    # DET004 reserves heapq for the simulation engine's event queue).
    heads = []
    streams = (
        (0, Source.SYSTEM_LOCAL, local_system),
        (1, Source.SYSTEM_NAP, nap_system if nap_system is not None else ()),
        (2, Source.USER, test_records),
    )
    for rank, source, stream in streams:
        iterator = iter(stream)
        heads.append([rank, source, iterator, next(iterator, None)])
    while True:
        best = None
        for head in heads:
            record = head[3]
            if record is None:
                continue
            if best is None or (record.time, head[0]) < (best[3].time, best[0]):
                best = head
        if best is None:
            return
        yield MergedEntry(best[3].time, best[1], best[3])
        best[3] = next(best[2], None)


def iter_node_logs(
    store: FailureStore,
    node: str,
    nap: Optional[str] = None,
    include_masked: bool = False,
) -> Iterator[MergedEntry]:
    """Stream the merged log of ``node`` from any failure store.

    The out-of-core counterpart of :func:`merge_node_logs`: record
    streams come straight off the store's cursors and are merged on the
    fly, so no per-node list is ever materialised.
    """
    test_stream: Iterable[TestLogRecord] = store.iter_records(kind="test", node=node)
    if not include_masked:
        test_stream = (r for r in test_stream if not r.masked)
    local_system = store.iter_records(kind="system", node=node)
    nap_system = store.iter_records(kind="system", node=nap) if nap else None
    return iter_merged(test_stream, local_system, nap_system)


def fold_store(
    store: FailureStore,
    *,
    tests: Sequence[TestSink],
    systems: Sequence[SystemSink],
) -> None:
    """One time-ordered pass over a whole store, fanned out to accumulators.

    Reads exactly one test cursor and one system cursor and merges them
    on ``(time, system-before-test)`` with an explicit two-way minimum
    (heapq-free, DET004).  Each record is classified once — by message
    text, through a :class:`MessageClassifier` local to this pass — and
    handed with its failure type to every sink of its kind, in stream
    order.  Every Table 1-4 statistic is such a sink, so a full render
    decodes each stored row once instead of once per statistic.
    """
    classifier = MessageClassifier()
    test_stream: Iterator[TestLogRecord] = store.iter_records(kind="test")
    system_stream: Iterator[SystemLogRecord] = store.iter_records(kind="system")
    test = next(test_stream, None)
    system = next(system_stream, None)
    while test is not None or system is not None:
        if system is not None and (test is None or system.time <= test.time):
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
    "iter_merged",
    "iter_node_logs",
    "fold_store",
    "merge_node_logs",
]
