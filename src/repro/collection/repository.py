"""The central repository failure data is shipped to.

All LogAnalyzer daemons send their filtered extracts here.  The
repository is the single input of the analysis pipeline
(:mod:`repro.core`): it can be queried by node, by time window and by
record kind, and reports the same headline counters the paper does
(user-level reports vs system-level entries).

Since the storage-layer redesign this class is one of two conforming
:class:`repro.collection.store.FailureStore` backends — the in-memory
oracle, with :class:`repro.collection.store.SQLiteStore` as the
out-of-core columnar twin.  Both hold records as the store's rows and
stream them through :meth:`iter_rows` (undecoded, for the Table 1–4
fold) and the keyword-only :meth:`iter_records` surface in the same
order (time-sorted, ingestion-stable ties), which is what makes
Table 1–4 byte-identical across backends.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from .records import SystemLogRecord, TestLogRecord
from .store import _TIME, NODE, TESTBED, Row, atomic_writer, check_rows
from .store import _system_record, _system_row, _test_record, _test_row


class CentralRepository:
    """Accumulates failure data items from every node of every testbed,
    as rows encoded once on ingestion and decoded by the record methods."""

    def __init__(self) -> None:
        self._test: List[Row] = []
        self._system: List[Row] = []
        self._sorted = True
        # Cached bisect key arrays, rebuilt together with the sort (so
        # repeated windowed queries stop paying an O(n) list build each).
        self._test_times: List[float] = []
        self._system_times: List[float] = []
        # Directory bound by open()/flush(directory) for persistence.
        self._path: Optional[Path] = None

    # -- ingestion ---------------------------------------------------------

    def ingest_test(self, records: Iterable[TestLogRecord]) -> int:
        """Store user-level reports; returns the number ingested."""
        return self._extend(self._test, map(_test_row, records))

    def ingest_system(self, records: Iterable[SystemLogRecord]) -> int:
        """Store system-level entries; returns the number ingested."""
        return self._extend(self._system, map(_system_row, records))

    def _extend(self, rows: List[Row], new: Iterable[Row]) -> int:
        before = len(rows)
        rows.extend(new)
        self._sorted = False
        return len(rows) - before

    def merge(self, other: "CentralRepository") -> "CentralRepository":
        """Ingest every record of ``other`` into this repository.

        The shard-merge primitive of :mod:`repro.parallel`: each sweep
        worker ships its repository back as rows, and the aggregate
        repository is the union — a list extend per record kind.
        Returns ``self`` so merges chain.
        """
        self._extend(self._test, other._test)
        self._extend(self._system, other._system)
        return self

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._test.sort(key=_TIME)
            self._system.sort(key=_TIME)
            self._test_times = list(map(_TIME, self._test))
            self._system_times = list(map(_TIME, self._system))
            self._sorted = True

    # -- queries -----------------------------------------------------------

    @property
    def user_level_count(self) -> int:
        return len(self._test)

    @property
    def system_level_count(self) -> int:
        return len(self._system)

    @property
    def total_items(self) -> int:
        """Total failure data items collected (paper: 356,551)."""
        return len(self._test) + len(self._system)

    def _rows(self, kind: str) -> List[Row]:
        if kind == "test":
            rows = self._test
        elif kind == "system":
            rows = self._system
        else:
            raise ValueError(f"unknown record kind {kind!r} (expected 'test' or 'system')")
        self._ensure_sorted()
        return rows

    def iter_rows(self, *, kind: str) -> Iterator[Row]:
        """Stream every row of ``kind`` undecoded, in :meth:`iter_records` order."""
        return iter(self._rows(kind))

    def iter_records(
        self,
        *,
        kind: str,
        node: Optional[str] = None,
        testbed: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator:
        """Stream records of ``kind`` (``"test"`` / ``"system"``).

        The :class:`repro.collection.store.FailureStore` query surface:
        keyword-only filters (exact ``node``, exact ``testbed``,
        inclusive ``[start, end]`` window), records yielded time-ordered
        with ingestion-stable ties.  System records match ``testbed``
        on their node's testbed prefix (their ``testbed`` column).
        """
        rows = self._rows(kind)
        to_record = _test_record if kind == "test" else _system_record
        times = self._test_times if kind == "test" else self._system_times
        lo = bisect_left(times, start) if start is not None else 0
        hi = bisect_right(times, end) if end is not None else len(rows)
        for index in range(lo, hi):
            row = rows[index]
            if node is not None and row[NODE] != node:
                continue
            if testbed is not None and row[TESTBED] != testbed:
                continue
            yield to_record(row)

    def nodes(self) -> List[str]:
        """All node names present in either record stream, sorted."""
        names = {row[NODE] for row in self._test} | {row[NODE] for row in self._system}
        return sorted(names)

    def summary(self) -> Dict[str, int]:
        """Headline counters, analogous to the paper's §3 totals."""
        return {
            "user_level_reports": self.user_level_count,
            "system_level_entries": self.system_level_count,
            "total_failure_data_items": self.total_items,
        }

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> Dict[str, List[Row]]:
        """The whole repository as JSON-able rows, time-ordered.

        Compact wire format for cross-process shipping (sweep shards)
        and checkpoint files; :meth:`from_payload` round-trips it.
        """
        self._ensure_sorted()
        return {"test": list(self._test), "system": list(self._system)}

    @classmethod
    def from_payload(cls, payload: Dict[str, List[Row]]) -> "CentralRepository":
        """Rebuild a repository from :meth:`to_payload` rows (``ValueError`` if they are not)."""
        check_rows(payload)
        repo = cls()
        repo._extend(repo._test, payload["test"])
        repo._extend(repo._system, payload["system"])
        return repo

    def flush(self, directory: Union[None, str, Path] = None) -> None:
        """Persist the repository as two JSONL files, atomically.

        ``directory`` binds (and rebinds) the backing location; once
        bound — by :meth:`open` or a previous flush — plain ``flush()``
        re-publishes to the same place.  Files are written through the
        shared atomic-rename + fsync discipline, so a crashed flush
        never leaves a truncated repository behind.
        """
        if directory is not None:
            self._path = Path(directory)
        if self._path is None:
            raise ValueError(
                "no directory bound: pass flush(directory) or open the "
                "repository with CentralRepository.open(directory)"
            )
        self._ensure_sorted()
        self._path.mkdir(parents=True, exist_ok=True)
        with atomic_writer(self._path / "test_records.jsonl") as handle:
            for row in self._test:
                handle.write(json.dumps(_test_record(row).to_dict()) + "\n")
        with atomic_writer(self._path / "system_records.jsonl") as handle:
            for row in self._system:
                handle.write(json.dumps(_system_record(row).to_dict()) + "\n")

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "CentralRepository":
        """Open a JSONL-backed repository (empty if nothing is there yet).

        The in-memory counterpart of
        :meth:`repro.collection.store.SQLiteStore.open`: reads any
        records previously flushed to ``directory`` and binds the path
        so later :meth:`flush` calls persist back to it.
        """
        path = Path(directory)
        repo = cls()
        repo._path = path
        test_path = path / "test_records.jsonl"
        system_path = path / "system_records.jsonl"
        if test_path.exists():
            with open(test_path, "r", encoding="utf-8") as handle:
                repo.ingest_test(
                    [TestLogRecord.from_dict(json.loads(line)) for line in handle if line.strip()]
                )
        if system_path.exists():
            with open(system_path, "r", encoding="utf-8") as handle:
                repo.ingest_system(
                    [SystemLogRecord.from_dict(json.loads(line)) for line in handle if line.strip()]
                )
        return repo

    def close(self) -> None:
        """Protocol parity with on-disk stores; nothing to release."""


__all__ = ["CentralRepository"]
