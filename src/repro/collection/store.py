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

Both backends hold records as rows (see *row wire format* below) and
honour the same iteration contract: ``iter_rows`` and ``iter_records``
yield rows and records ordered by ``time``, with ties broken by
ingestion order.  The in-memory backend gets this from Python's stable
sort; the SQLite backend from ``ORDER BY time, id`` over monotonically
assigned rowids.  The shared streaming analysis code in :mod:`repro.core`
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
    Sequence,
    Tuple,
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

    The store is a bulk-load target: it starts with its tables only,
    and the query indexes are built after the caller's block, over the
    loaded rows and in the same transaction, before the commit.  The
    published file has the schema of any fresh store.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    # A build left by a killed process with the same pid must not be
    # appended to.
    _remove_database(tmp)
    try:
        with SQLiteStore(tmp, indexes=False) as store:
            yield store
            store._create_indexes()
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
    counters.  ``iter_rows`` and ``iter_records`` MUST yield rows and
    records ordered by ``time`` with ingestion-stable ties — the
    byte-identity of Table 1–4 across backends rests on that contract.
    """

    def ingest_test(self, records: Iterable[TestLogRecord]) -> int:
        """Append user-level reports; returns the number ingested."""
        ...

    def ingest_system(self, records: Iterable[SystemLogRecord]) -> int:
        """Append system-level entries; returns the number ingested."""
        ...

    def iter_rows(self, *, kind: str) -> Iterator["Row"]:
        """Stream every row of ``kind`` (``"test"`` / ``"system"``) undecoded,
        in :meth:`iter_records` order: the cursor the Table 1-4 fold reads."""
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
# A row is the one shape a record has inside the pipeline: its values in
# the order of its table's column tuple, flags as 0/1 and the recovery
# attempts as compact JSON text, exactly what SQLite stores.  Rows fill
# CentralRepository, ride in shard payloads, cache entries and worker
# replies, go into executemany unchanged and come back from the cursors
# the Table 1-4 fold reads; records are built only at the API edges.
# The column tuples also generate the INSERT and the SELECT below.  The
# producer/consumer pairs are module-level so repro.analysis.contracts
# can check, from the AST, that both follow the column tuple position by
# position, that the tuple names the _SCHEMA table's columns and the
# record's fields (WIRE001), and the version stamp handshake (WIRE003).

#: One record as a row: a list when encoded here or decoded from JSON
#: (so a payload equals its own round trip), a tuple when read from
#: SQLite.  Rows are never mutated, so repositories and payloads share them.
Row = Sequence[Any]

#: Columns of ``test_records`` after ``id``: the :class:`TestLogRecord`
#: fields in declaration order.
_TEST_COLUMNS = (
    "time", "node", "testbed", "workload", "message", "phase", "packet_type",
    "packets_sent", "packets_expected", "scan_flag", "sdp_flag", "distance",
    "cycle_on_connection", "idle_before_cycle", "masked", "recovery",
)

#: Columns of ``system_records`` after ``id``: the
#: :class:`SystemLogRecord` fields plus ``testbed``, an index column
#: derived from ``node`` (system records carry only their node name).
_SYSTEM_COLUMNS = ("time", "node", "testbed", "facility", "severity", "message")

#: Encoder for the ``recovery`` column: the bytes of
#: ``json.dumps(..., separators=(",", ":"))``, built once rather than
#: per row (``json.dumps`` constructs a new encoder whenever it is
#: given non-default options).
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


#: Row positions of the test columns, for readers that index a row by
#: name.  WIRE001 checks the names against :data:`_TEST_COLUMNS`.
(TIME, NODE, TESTBED, WORKLOAD, MESSAGE, PHASE, PACKET_TYPE, PACKETS_SENT,
 PACKETS_EXPECTED, SCAN_FLAG, SDP_FLAG, DISTANCE, CYCLE_ON_CONNECTION,
 IDLE_BEFORE_CYCLE, MASKED, RECOVERY) = range(len(_TEST_COLUMNS))

#: Entries a ``recovery`` memo holds before it is cleared.  A campaign
#: repeats a handful of attempt chains (17 distinct column texts in a
#: 16-seed batch sweep), so the bound only caps a stream of distinct
#: durations.  The memos are shared by every store in the process: each
#: maps a key to the one value it encodes to or decodes from, and the
#: values are immutable, so sharing cannot change a row or a record.
_MEMO_LIMIT = 4096

#: The attempts' ``(action, succeeded, duration)`` triples.
_AttemptsKey = Tuple[Tuple[object, ...], ...]

#: ``recovery`` column text by the attempts' value triples.
_RECOVERY_TEXTS: Dict[_AttemptsKey, str] = {}

#: Decoded attempts by ``recovery`` column text.
_RECOVERY_ATTEMPTS: Dict[str, Tuple[RecoveryAttempt, ...]] = {}


def _remember(memo: Dict[Any, Any], key: Any, value: Any) -> Any:
    """Store ``value`` under ``key``, clearing ``memo`` first when full."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def _recovery_key(attempts: Tuple[RecoveryAttempt, ...]) -> Optional[_AttemptsKey]:
    """The attempts' ``(action, succeeded, duration)`` triples, as a memo key.

    ``None`` (not memoised) when a value's JSON is not fixed by its
    equality: ``True == 1``, ``2 == 2.0`` and ``0.0 == -0.0`` as dict
    keys but not as JSON, so only a ``str``, a ``bool`` and a non-zero
    ``float`` qualify.
    """
    key = []
    for attempt in attempts:
        action, succeeded, duration = attempt.action, attempt.succeeded, attempt.duration
        if type(action) is not str or type(succeeded) is not bool:
            return None
        if type(duration) is not float or not duration:
            return None
        key.append((action, succeeded, duration))
    return tuple(key)


def _recovery_column(attempts: Tuple[RecoveryAttempt, ...]) -> str:
    """The ``recovery`` column: compact JSON of the attempts, memoised."""
    if not attempts:
        return "[]"
    key = _recovery_key(attempts)
    text = _RECOVERY_TEXTS.get(key) if key is not None else None
    if text is None:
        text = _COMPACT_JSON.encode([attempt.to_dict() for attempt in attempts])
        if key is not None:
            _remember(_RECOVERY_TEXTS, key, text)
    return text


def _recovery_attempts(text: str) -> Tuple[RecoveryAttempt, ...]:
    """The attempts of a ``recovery`` column text, memoised on the text.

    Records share the decoded tuple; attempts are frozen, so sharing is
    safe.
    """
    attempts = _RECOVERY_ATTEMPTS.get(text)
    if attempts is None:
        attempts = _remember(
            _RECOVERY_ATTEMPTS,
            text,
            tuple(map(RecoveryAttempt.from_dict, json.loads(text))),
        )
    return attempts


def _test_row(record: TestLogRecord) -> List[object]:
    """The row of one user-level report (writer side), in :data:`_TEST_COLUMNS` order."""
    return [
        record.time, record.node, record.testbed, record.workload, record.message,
        record.phase, record.packet_type, record.packets_sent, record.packets_expected,
        int(record.scan_flag), int(record.sdp_flag), record.distance,
        record.cycle_on_connection, record.idle_before_cycle, int(record.masked),
        _recovery_column(record.recovery),
    ]


def _test_record(row: Row) -> TestLogRecord:
    """Rebuild a user-level report from its row (reader side)."""
    (time, node, testbed, workload, message, phase, packet_type, packets_sent,
     packets_expected, scan_flag, sdp_flag, distance, cycle_on_connection,
     idle_before_cycle, masked, recovery) = row
    return TestLogRecord(
        time, node, testbed, workload, message, phase, packet_type, packets_sent,
        packets_expected, bool(scan_flag), bool(sdp_flag), distance,
        cycle_on_connection, idle_before_cycle, bool(masked),
        _recovery_attempts(recovery),
    )


def _system_row(record: SystemLogRecord) -> List[object]:
    """The row of one system-level entry (writer side), in :data:`_SYSTEM_COLUMNS` order."""
    return [
        record.time, record.node, testbed_of(record.node), record.facility,
        record.severity, record.message,
    ]


def check_rows(payload: Dict[str, List[Row]]) -> None:
    """Raise ``ValueError`` unless every record of a repository payload is a
    row, so a stale layout (``PAYLOAD_VERSION`` 3 held one dict per record)
    is evicted and recomputed, never half-parsed."""
    for kind, width in (("test", len(_TEST_COLUMNS)), ("system", len(_SYSTEM_COLUMNS))):
        rows = payload[kind]
        if type(rows) is not list or not all(
            type(row) in (list, tuple) and len(row) == width for row in rows
        ):
            raise ValueError(f"repository payload {kind!r} records are not {width}-column rows")


def _system_record(row: Row) -> SystemLogRecord:
    """Rebuild a system-level entry from its row (reader side)."""
    time, node, _, facility, severity, message = row
    return SystemLogRecord(time, node, facility, severity, message)


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
"""

#: The query indexes, covering ``(time)``, ``(node, time)`` and
#: ``(testbed, time)`` per table.  A fresh store gets them with the
#: tables; :func:`atomic_store` builds them after the bulk load.
_INDEXES = (
    "CREATE INDEX test_by_time    ON test_records (time)",
    "CREATE INDEX test_by_node    ON test_records (node, time)",
    "CREATE INDEX test_by_testbed ON test_records (testbed, time)",
    "CREATE INDEX system_by_time    ON system_records (time)",
    "CREATE INDEX system_by_node    ON system_records (node, time)",
    "CREATE INDEX system_by_testbed ON system_records (testbed, time)",
)


def _insert_statement(table: str, columns: Tuple[str, ...]) -> str:
    return (
        f"INSERT INTO {table} ({', '.join(columns)})"
        f" VALUES ({', '.join('?' * len(columns))})"
    )


_INSERT_TEST = _insert_statement("test_records", _TEST_COLUMNS)
_INSERT_SYSTEM = _insert_statement("system_records", _SYSTEM_COLUMNS)

#: The ``SELECT`` of each record kind's columns, in column-tuple order.
_SELECTS = {
    "test": f"SELECT {', '.join(_TEST_COLUMNS)} FROM test_records",
    "system": f"SELECT {', '.join(_SYSTEM_COLUMNS)} FROM system_records",
}

#: Sort key of rows: their ``time`` column, first in both tables.
_TIME = itemgetter(TIME)


class SQLiteStore:
    """Append-only, columnar, on-disk :class:`FailureStore` backend.

    One table per record stream with typed columns, covering indexes
    on ``(time)``, ``(node, time)`` and ``(testbed, time)``, streaming
    ``executemany`` ingestion, and streaming query cursors — so a
    1000-seed sweep's record stream can be ingested and analysed
    shard-by-shard without ever materialising it in RAM.  Rows cross
    the SQLite boundary unchanged in both directions: the row format
    above, in the order of one column tuple per table
    (``_TEST_COLUMNS``, ``_SYSTEM_COLUMNS``), which also generates the
    ``INSERT`` and ``SELECT`` statements.  :meth:`iter_rows` hands them
    out undecoded; :meth:`iter_records` decodes them into records.

    Opening an existing file validates the :data:`STORE_VERSION` stamp
    (:class:`StoreVersionError` on skew, :class:`StoreError` when the
    file is not a store at all); opening a fresh path creates the
    schema, indexes included unless ``indexes=False`` (the bulk load of
    :func:`atomic_store`, which builds them after).  Ingestion into an
    existing store appends.  As a context manager the store commits
    pending rows on a clean exit and rolls them back when the block
    raises.
    """

    def __init__(self, path: PathLike = ":memory:", *, indexes: bool = True) -> None:
        self.path: Optional[Path] = None if str(path) == ":memory:" else Path(path)
        existing = self.path is not None and self.path.exists() and self.path.stat().st_size > 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(path))
        if existing:
            self._validate()
        else:
            self._create(indexes)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, path: PathLike) -> "SQLiteStore":
        """Open an existing store (or create an empty one at ``path``)."""
        return cls(path)

    def _create(self, indexes: bool) -> None:
        with self._conn:
            self._conn.executescript(_SCHEMA)
            if indexes:
                self._create_indexes()
            self._conn.execute(
                "INSERT INTO store_meta (doc) VALUES (?)",
                (json.dumps(_meta_document(), separators=(",", ":")),),
            )

    def _create_indexes(self) -> None:
        # execute(), not executescript(): the latter commits first, and
        # the indexes belong to the transaction holding the rows.
        for statement in _INDEXES:
            self._conn.execute(statement)

    def _validate(self) -> None:
        try:
            row = self._conn.execute("SELECT doc FROM store_meta").fetchone()
        except sqlite3.DatabaseError as error:
            raise StoreError(f"{self.path} is not a failure store: {error}") from error
        if row is None:
            raise StoreError(f"{self.path} has no store_meta row")
        try:
            meta = json.loads(row[0])
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
        """Commit pending appends and release the connection."""
        self._conn.commit()
        self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # A block that raised must not publish the rows it left pending.
        if exc_type is not None:
            self._conn.rollback()
        self.close()

    # -- ingestion ---------------------------------------------------------

    def ingest_test(self, records: Iterable[TestLogRecord]) -> int:
        """Append user-level reports and commit; returns the number ingested."""
        count = self._insert(_INSERT_TEST, map(_test_row, records))
        self._conn.commit()
        return count

    def ingest_system(self, records: Iterable[SystemLogRecord]) -> int:
        """Append system-level entries and commit; returns the number ingested."""
        count = self._insert(_INSERT_SYSTEM, map(_system_row, records))
        self._conn.commit()
        return count

    def ingest_payload(self, payload: Dict[str, List[Row]]) -> int:
        """Append the rows of a ``CentralRepository.to_payload`` document.

        The rows go to ``executemany`` as they are, in the stable time
        order :meth:`CentralRepository.from_payload` would iterate them
        (the lists ``to_payload`` writes are already in that order, so
        the sort is one linear pass).  Unlike :meth:`ingest_test` this
        does not commit: the rows stay pending until :meth:`flush`, so
        spilling many shards is one transaction.  Returns the number of
        records ingested.
        """
        count = self._insert(_INSERT_TEST, sorted(payload["test"], key=_TIME))
        count += self._insert(_INSERT_SYSTEM, sorted(payload["system"], key=_TIME))
        return count

    def _insert(self, statement: str, rows: Iterable[Row]) -> int:
        # executemany pulls rows from the iterator one at a time, so the
        # record stream is never materialised.
        return self._conn.executemany(statement, rows).rowcount

    def ingest_store(self, source: "FailureStore") -> int:
        """Append every record of another store, row by row; returns the number ingested."""
        ingested = self._insert(_INSERT_TEST, source.iter_rows(kind="test"))
        ingested += self._insert(_INSERT_SYSTEM, source.iter_rows(kind="system"))
        self._conn.commit()
        return ingested

    # -- queries -----------------------------------------------------------

    def iter_rows(self, *, kind: str) -> Iterator[Row]:
        """Stream every row of ``kind`` undecoded, in :meth:`iter_records` order."""
        return self._select(kind, "", {})

    def iter_records(
        self,
        *,
        kind: str,
        node: Optional[str] = None,
        testbed: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator:
        """Stream records time-ordered (ingestion-stable ties), decoded from rows."""
        filters = {"node = :node": node, "testbed = :testbed": testbed,
                   "time >= :start": start, "time <= :end": end}
        clauses = [clause for clause, value in filters.items() if value is not None]
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        params = {"node": node, "testbed": testbed, "start": start, "end": end}
        rows = self._select(kind, where, params)
        # The decoder is looked up on the module per query, so a
        # wrapper patched onto the module sees every decoded row.
        yield from map(_test_record if kind == "test" else _system_record, rows)

    def _select(self, kind: str, where: str, params: Dict[str, Any]) -> Iterator[Row]:
        """A cursor over the rows of ``kind`` matching ``where``, time-ordered."""
        if kind not in _SELECTS:
            raise ValueError(f"unknown record kind {kind!r} (expected 'test' or 'system')")
        return self._conn.execute(f"{_SELECTS[kind]}{where} ORDER BY time, id", params)

    def nodes(self) -> List[str]:
        """All node names present in either record stream, sorted.

        SQLite's default BINARY collation sorts TEXT by byte value,
        which matches Python's ``sorted()`` for the ASCII node names
        the testbeds generate — same order as the in-memory oracle.
        """
        rows = self._conn.execute(
            "SELECT node FROM test_records UNION SELECT node FROM system_records ORDER BY node"
        ).fetchall()
        return [node for (node,) in rows]

    def _count(self, table: str) -> int:
        row = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        return int(row[0])

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
