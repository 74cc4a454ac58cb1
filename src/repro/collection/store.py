"""Pluggable failure-record stores behind the :class:`FailureStore` protocol.

The paper's analysis pipeline hangs off one artifact: the central
repository of 356,551 failure data items.  This module turns that
repository from a data structure into a subsystem — a keyword-only
protocol with two conforming backends:

* :class:`repro.collection.repository.CentralRepository` — the
  in-memory oracle, unchanged semantics;
* :class:`SQLiteStore` — an append-only, columnar, on-disk store (one
  table per record stream, typed columns, covering indexes) that lets
  Table 1–4 analyses stream over record sets far larger than RAM.

Both backends honour the same iteration contract: ``iter_records``
yields records ordered by ``time``, with ties broken by ingestion
order.  The in-memory backend gets this from Python's stable sort; the
SQLite backend from ``ORDER BY time, id`` over monotonically assigned
rowids.  The shared streaming analysis code in :mod:`repro.core`
therefore produces byte-identical tables over either backend.

The on-disk format carries a :data:`STORE_VERSION` stamp validated on
open (drift is registered with :mod:`repro.analysis.contracts` so the
deep lint catches writer/reader divergence), and all file publication
goes through the same atomic-rename + fsync discipline as the shard
cache (:func:`atomic_writer` is the shared primitive).
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

try:  # pragma: no cover - py3.9 fallback exercised only on old interpreters
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


from .records import RecoveryAttempt, SystemLogRecord, TestLogRecord

#: Version stamp of the SQLite store layout.  Bump whenever the table
#: schema or the row wire format below changes shape; stores written by
#: a different version refuse to open (:class:`StoreVersionError`).
STORE_VERSION = 1

#: Human-readable layout tag stored alongside the version stamp.
STORE_LAYOUT = "columnar-jsonl-recovery"

PathLike = Union[str, "os.PathLike[str]"]


class StoreError(ValueError):
    """The file is not a readable failure store (corrupt / wrong format)."""


class StoreVersionError(StoreError):
    """The store was written by an incompatible :data:`STORE_VERSION`."""


def testbed_of(node: str) -> str:
    """Testbed prefix of a qualified node name (``"random:Rosso"`` → ``"random"``)."""
    head, _, _ = node.partition(":")
    return head


# -- shared atomic-write discipline -----------------------------------------


@contextmanager
def atomic_writer(path: Path) -> Iterator[IO[str]]:
    """Open a temp file that atomically replaces ``path`` on success.

    The shard cache's publication discipline, factored out so every
    on-disk artifact (cache entries, JSONL repositories) shares it: a
    same-directory temp file (rename atomicity), fsync before rename
    (no empty/truncated file after a crash), and unconditional temp
    cleanup.  ``os.getpid()`` in the temp name keeps concurrent
    writers from clobbering each other's scratch space.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - benign cleanup race
                pass


@contextmanager
def atomic_store(path: PathLike) -> Iterator["SQLiteStore"]:
    """A fresh :class:`SQLiteStore` that atomically replaces ``path`` on success.

    :func:`atomic_writer`'s discipline for a database: the store is
    built at a same-directory temp path, committed (SQLite syncs the
    file on commit) and closed, then ``os.replace`` publishes it.  On
    any error the temp database and its rollback journal are removed
    and ``path`` keeps its previous contents, or stays absent.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    # A build left by a killed process with the same pid must not be
    # appended to.
    _remove_database(tmp)
    try:
        with SQLiteStore(tmp) as store:
            yield store
        os.replace(tmp, path)
    finally:
        _remove_database(tmp)


def _remove_database(path: Path) -> None:
    """Delete a database file and its rollback journal, if present."""
    path.unlink(missing_ok=True)
    path.with_name(path.name + "-journal").unlink(missing_ok=True)


# -- the protocol ------------------------------------------------------------


@runtime_checkable
class FailureStore(Protocol):
    """What the analysis pipeline requires of a failure-record store.

    Keyword-only query surface, streaming iterators, headline
    counters.  ``iter_records`` MUST yield records ordered by ``time``
    with ingestion-stable ties — the byte-identity of Table 1–4 across
    backends rests on that contract.
    """

    def ingest_test(self, records: Iterable[TestLogRecord]) -> int:
        """Append user-level reports; returns the number ingested."""
        ...

    def ingest_system(self, records: Iterable[SystemLogRecord]) -> int:
        """Append system-level entries; returns the number ingested."""
        ...

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

        Filters are keyword-only: exact ``node``, exact ``testbed``
        (system records match on their node's testbed prefix), and an
        inclusive ``[start, end]`` time window.
        """
        ...

    def nodes(self) -> List[str]:
        """All node names present in either record stream, sorted."""
        ...

    def summary(self) -> Dict[str, int]:
        """Headline counters, analogous to the paper's §3 totals."""
        ...

    def flush(self) -> None:
        """Make every ingested record durable (no-op for pure-memory stores)."""
        ...

    def close(self) -> None:
        """Release backing resources; the store must not be used afterwards."""
        ...

    @property
    def user_level_count(self) -> int: ...

    @property
    def system_level_count(self) -> int: ...

    @property
    def total_items(self) -> int: ...


# -- row wire format ---------------------------------------------------------
#
# Module-level producer/consumer pairs so repro.analysis.contracts can
# extract the written and read column sets from the AST (WIRE001) and
# check the version stamp handshake (WIRE003).

#: Encoder for the ``recovery`` column: the bytes of
#: ``json.dumps(..., separators=(",", ":"))``, built once rather than
#: per row (``json.dumps`` constructs a new encoder whenever it is
#: given non-default options).
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


#: Key order of :meth:`RecoveryAttempt.to_dict`.  An attempt dict in
#: this order is encoded as given; any other shape is normalised first.
_ATTEMPT_KEYS = ("action", "succeeded", "duration")


def _recovery_column(attempts: List[Dict[str, Any]]) -> str:
    """The ``recovery`` column: compact JSON of the attempt dicts."""
    if not attempts:
        return "[]"
    return _COMPACT_JSON.encode([
        attempt
        if tuple(attempt) == _ATTEMPT_KEYS
        else RecoveryAttempt.from_dict(attempt).to_dict()
        for attempt in attempts
    ])


def _test_row(data: Dict[str, Any]) -> Dict[str, object]:
    """Columnar row for one user-level report (writer side).

    ``data`` has the :meth:`TestLogRecord.to_dict` shape, whether it
    comes from a live record or straight from a shard payload.  A dict
    whose keys are not exactly the schema's goes through
    :meth:`TestLogRecord.from_dict` first, so unknown keys are dropped
    and missing defaulted keys filled, as on every other decode path.
    """
    if data.keys() != TestLogRecord._FIELDS:
        data = TestLogRecord.from_dict(data).to_dict()
    return {
        "time": data["time"],
        "node": data["node"],
        "testbed": data["testbed"],
        "workload": data["workload"],
        "message": data["message"],
        "phase": data["phase"],
        "packet_type": data["packet_type"],
        "packets_sent": data["packets_sent"],
        "packets_expected": data["packets_expected"],
        "scan_flag": int(data["scan_flag"]),
        "sdp_flag": int(data["sdp_flag"]),
        "distance": data["distance"],
        "cycle_on_connection": data["cycle_on_connection"],
        "idle_before_cycle": data["idle_before_cycle"],
        "masked": int(data["masked"]),
        "recovery": _recovery_column(data["recovery"]),
    }


def _test_record(row: sqlite3.Row) -> TestLogRecord:
    """Rebuild a user-level report from its columnar row (reader side)."""
    recovery = row["recovery"]
    return TestLogRecord(
        time=row["time"],
        node=row["node"],
        testbed=row["testbed"],
        workload=row["workload"],
        message=row["message"],
        phase=row["phase"],
        packet_type=row["packet_type"],
        packets_sent=row["packets_sent"],
        packets_expected=row["packets_expected"],
        scan_flag=bool(row["scan_flag"]),
        sdp_flag=bool(row["sdp_flag"]),
        distance=row["distance"],
        cycle_on_connection=row["cycle_on_connection"],
        idle_before_cycle=row["idle_before_cycle"],
        masked=bool(row["masked"]),
        recovery=(
            ()
            if recovery == "[]"
            else tuple(map(RecoveryAttempt.from_dict, json.loads(recovery)))
        ),
    )


def _system_row(data: Dict[str, Any]) -> Dict[str, object]:
    """Columnar row for one system-level entry (writer side).

    ``data`` has the :meth:`SystemLogRecord.to_dict` shape; any other
    key set goes through :meth:`SystemLogRecord.from_dict` first.
    """
    if data.keys() != SystemLogRecord._FIELDS:
        data = SystemLogRecord.from_dict(data).to_dict()
    return {
        "time": data["time"],
        "node": data["node"],
        "facility": data["facility"],
        "severity": data["severity"],
        "message": data["message"],
    }


def _system_rows(entries: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, object]]:
    """System rows plus the derived ``testbed`` index column."""
    for data in entries:
        row = _system_row(data)
        # Derived index column, not part of the record wire format:
        # system records carry only their node name.
        row["testbed"] = testbed_of(row["node"])
        yield row


def _system_record(row: sqlite3.Row) -> SystemLogRecord:
    """Rebuild a system-level entry from its columnar row (reader side)."""
    return SystemLogRecord(
        time=row["time"],
        node=row["node"],
        facility=row["facility"],
        severity=row["severity"],
        message=row["message"],
    )


def _meta_document() -> Dict[str, object]:
    """The store's self-describing metadata row (writer side)."""
    return {
        "version": STORE_VERSION,
        "layout": STORE_LAYOUT,
    }


def _check_meta(meta: Dict[str, object]) -> None:
    """Validate a metadata document read back from disk (reader side)."""
    if meta.get("version") != STORE_VERSION:
        raise StoreVersionError(
            f"store version {meta.get('version')!r} is not supported "
            f"(this build reads version {STORE_VERSION})"
        )
    if meta.get("layout") != STORE_LAYOUT:
        raise StoreError(f"unknown store layout {meta.get('layout')!r}")


# -- the SQLite backend -------------------------------------------------------

_SCHEMA = """
CREATE TABLE store_meta (doc TEXT NOT NULL);
CREATE TABLE test_records (
    id                  INTEGER PRIMARY KEY,
    time                REAL NOT NULL,
    node                TEXT NOT NULL,
    testbed             TEXT NOT NULL,
    workload            TEXT NOT NULL,
    message             TEXT NOT NULL,
    phase               TEXT NOT NULL,
    packet_type         TEXT,
    packets_sent        INTEGER NOT NULL,
    packets_expected    INTEGER NOT NULL,
    scan_flag           INTEGER NOT NULL,
    sdp_flag            INTEGER NOT NULL,
    distance            REAL NOT NULL,
    cycle_on_connection INTEGER NOT NULL,
    idle_before_cycle   REAL NOT NULL,
    masked              INTEGER NOT NULL,
    recovery            TEXT NOT NULL
);
CREATE TABLE system_records (
    id       INTEGER PRIMARY KEY,
    time     REAL NOT NULL,
    node     TEXT NOT NULL,
    testbed  TEXT NOT NULL,
    facility TEXT NOT NULL,
    severity TEXT NOT NULL,
    message  TEXT NOT NULL
);
CREATE INDEX test_by_time    ON test_records (time);
CREATE INDEX test_by_node    ON test_records (node, time);
CREATE INDEX test_by_testbed ON test_records (testbed, time);
CREATE INDEX system_by_time    ON system_records (time);
CREATE INDEX system_by_node    ON system_records (node, time);
CREATE INDEX system_by_testbed ON system_records (testbed, time);
"""

_INSERT_TEST = (
    "INSERT INTO test_records (time, node, testbed, workload, message, phase,"
    " packet_type, packets_sent, packets_expected, scan_flag, sdp_flag, distance,"
    " cycle_on_connection, idle_before_cycle, masked, recovery)"
    " VALUES (:time, :node, :testbed, :workload, :message, :phase,"
    " :packet_type, :packets_sent, :packets_expected, :scan_flag, :sdp_flag, :distance,"
    " :cycle_on_connection, :idle_before_cycle, :masked, :recovery)"
)

_INSERT_SYSTEM = (
    "INSERT INTO system_records (time, node, testbed, facility, severity, message)"
    " VALUES (:time, :node, :testbed, :facility, :severity, :message)"
)

#: Sort key of record dicts: their ``time`` field.
_TIME = itemgetter("time")


class SQLiteStore:
    """Append-only, columnar, on-disk :class:`FailureStore` backend.

    One table per record stream with typed columns, covering indexes
    on ``(time)``, ``(node, time)`` and ``(testbed, time)``, streaming
    ``executemany`` ingestion, and streaming ``fetchmany`` query
    cursors — so a 1000-seed sweep's record stream can be ingested and
    analysed shard-by-shard without ever materialising it in RAM.

    Opening an existing file validates the :data:`STORE_VERSION` stamp
    (:class:`StoreVersionError` on skew, :class:`StoreError` when the
    file is not a store at all); opening a fresh path creates the
    schema.  Ingestion into an existing store appends.
    """

    #: Rows per ``fetchmany`` page: large enough to amortise the SQLite
    #: call overhead, small enough that a page of rows stays far below
    #: any campaign's record count.
    BATCH = 2048

    def __init__(self, path: PathLike = ":memory:") -> None:
        self.path: Optional[Path] = None if str(path) == ":memory:" else Path(path)
        existing = self.path is not None and self.path.exists() and self.path.stat().st_size > 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(path))
        self._conn.row_factory = sqlite3.Row
        if existing:
            self._validate()
        else:
            self._create()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, path: PathLike) -> "SQLiteStore":
        """Open an existing store (or create an empty one at ``path``)."""
        return cls(path)

    def _create(self) -> None:
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT INTO store_meta (doc) VALUES (?)",
                (json.dumps(_meta_document(), separators=(",", ":")),),
            )

    def _validate(self) -> None:
        try:
            row = self._conn.execute("SELECT doc FROM store_meta").fetchone()
        except sqlite3.DatabaseError as error:
            raise StoreError(f"{self.path} is not a failure store: {error}") from error
        if row is None:
            raise StoreError(f"{self.path} has no store_meta row")
        try:
            meta = json.loads(row["doc"])
        except ValueError as error:
            raise StoreError(f"{self.path} has a corrupt store_meta document") from error
        _check_meta(meta)

    def flush(self) -> None:
        """Commit every pending append in one transaction.

        The commit is what makes the rows durable: SQLite's default
        ``synchronous=FULL`` syncs the database file on commit.  Rows
        from :meth:`ingest_payload` are pending until this call (or
        :meth:`close`); :meth:`ingest_test` and :meth:`ingest_system`
        commit their own.
        """
        self._conn.commit()

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ingestion ---------------------------------------------------------

    def ingest_test(self, records: Iterable[TestLogRecord]) -> int:
        """Append user-level reports and commit; returns the number ingested."""
        count = self._insert(
            _INSERT_TEST, (_test_row(record.to_dict()) for record in records)
        )
        self._conn.commit()
        return count

    def ingest_system(self, records: Iterable[SystemLogRecord]) -> int:
        """Append system-level entries and commit; returns the number ingested."""
        count = self._insert(
            _INSERT_SYSTEM, _system_rows(record.to_dict() for record in records)
        )
        self._conn.commit()
        return count

    def ingest_payload(self, payload: Dict[str, List[dict]]) -> int:
        """Append the records of a ``CentralRepository.to_payload`` document.

        Rows are built straight from the record dicts, with no record
        objects in between, in the stable time order
        :meth:`CentralRepository.from_payload` would iterate them (the
        lists ``to_payload`` writes are already in that order, so the
        sort is one linear pass).  Unlike :meth:`ingest_test` this does
        not commit: the rows stay pending until :meth:`flush`, so
        spilling many shards is one transaction.  Returns the number
        of records ingested.
        """
        count = self._insert(
            _INSERT_TEST, map(_test_row, sorted(payload.get("test", ()), key=_TIME))
        )
        count += self._insert(
            _INSERT_SYSTEM, _system_rows(sorted(payload.get("system", ()), key=_TIME))
        )
        return count

    def _insert(self, statement: str, rows: Iterable[Dict[str, object]]) -> int:
        # executemany pulls rows from the iterator one at a time, so the
        # record stream is never materialised.
        return self._conn.executemany(statement, rows).rowcount

    def ingest_store(self, source: "FailureStore") -> int:
        """Append every record of another store; returns the number ingested."""
        ingested = self.ingest_test(source.iter_records(kind="test"))
        ingested += self.ingest_system(source.iter_records(kind="system"))
        return ingested

    # -- queries -----------------------------------------------------------

    def iter_records(
        self,
        *,
        kind: str,
        node: Optional[str] = None,
        testbed: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator:
        """Stream records time-ordered (ingestion-stable ties) via fetchmany pages."""
        if kind == "test":
            table, to_record = "test_records", _test_record
        elif kind == "system":
            table, to_record = "system_records", _system_record
        else:
            raise ValueError(f"unknown record kind {kind!r} (expected 'test' or 'system')")
        clauses = []
        params: Dict[str, object] = {}
        if node is not None:
            clauses.append("node = :node")
            params["node"] = node
        if testbed is not None:
            clauses.append("testbed = :testbed")
            params["testbed"] = testbed
        if start is not None:
            clauses.append("time >= :start")
            params["start"] = start
        if end is not None:
            clauses.append("time <= :end")
            params["end"] = end
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT * FROM {table}{where} ORDER BY time, id"
        cursor = self._conn.execute(sql, params)
        while True:
            page = cursor.fetchmany(self.BATCH)
            if not page:
                return
            for row in page:
                yield to_record(row)

    def nodes(self) -> List[str]:
        """All node names present in either record stream, sorted.

        SQLite's default BINARY collation sorts TEXT by byte value,
        which matches Python's ``sorted()`` for the ASCII node names
        the testbeds generate — same order as the in-memory oracle.
        """
        rows = self._conn.execute(
            "SELECT node FROM test_records UNION SELECT node FROM system_records ORDER BY node"
        ).fetchall()
        return [row["node"] for row in rows]

    def _count(self, table: str) -> int:
        row = self._conn.execute(f"SELECT COUNT(*) AS n FROM {table}").fetchone()
        return int(row["n"])

    @property
    def user_level_count(self) -> int:
        return self._count("test_records")

    @property
    def system_level_count(self) -> int:
        return self._count("system_records")

    @property
    def total_items(self) -> int:
        """Total failure data items collected (paper: 356,551)."""
        return self.user_level_count + self.system_level_count

    def summary(self) -> Dict[str, int]:
        """Headline counters, analogous to the paper's §3 totals."""
        user = self.user_level_count
        system = self.system_level_count
        return {
            "user_level_reports": user,
            "system_level_entries": system,
            "total_failure_data_items": user + system,
        }


def open_store(path: PathLike) -> SQLiteStore:
    """Open (or create) the SQLite store at ``path``."""
    return SQLiteStore(path)


__all__ = [
    "FailureStore",
    "SQLiteStore",
    "StoreError",
    "StoreVersionError",
    "STORE_VERSION",
    "STORE_LAYOUT",
    "atomic_store",
    "atomic_writer",
    "open_store",
    "testbed_of",
]
