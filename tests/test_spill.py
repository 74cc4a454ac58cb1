"""Tests for spilling a sweep into the columnar store from shard payloads.

:meth:`SweepResult.into_store` hands each shard's ``repository_payload``
rows to SQLite as they are, in one transaction, into a fresh store that
``os.replace`` publishes.  The oracle is the object path: every shard's
payload rebuilt as a :class:`CentralRepository` (``from_payload``) and
ingested with :meth:`SQLiteStore.ingest_store`.  Both stores must hold
the same rows, every column, in ``id`` order.
"""

import json
import os
import sqlite3

import pytest

from repro import api
from repro.cli import main
from repro.collection import store as store_module
from repro.collection.records import RecoveryAttempt, SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.collection.store import SQLiteStore
from repro.core.campaign import CampaignSpec
from repro.parallel.shard import ShardResult
from repro.parallel.sweep import SweepResult


def reference_store(result: SweepResult, path) -> None:
    """The store the object path builds: from_payload, then ingest_store."""
    with SQLiteStore(path) as store:
        for shard in result.shards:
            store.ingest_store(CentralRepository.from_payload(shard.repository_payload))


def rows(path, table: str):
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute(f"SELECT * FROM {table} ORDER BY id").fetchall()
    finally:
        connection.close()


def assert_same_rows(spilled, reference) -> None:
    for table in ("test_records", "system_records"):
        assert rows(spilled, table) == rows(reference, table)


def synthetic_result(shards) -> SweepResult:
    return SweepResult(
        spec=CampaignSpec(), seeds=tuple(shard.seed for shard in shards),
        shards=list(shards), jobs=1, wall_time=0.0,
    )


def synthetic_shard(seed: int, test, system) -> ShardResult:
    return ShardResult(
        seed=seed, duration=3600.0, wall_time=0.0,
        repository_payload={"test": test, "system": system},
        node_nap_pairs=[], cycle_stats={}, statistics={},
    )


def report(time, **changes):
    """A payload row of one user-level report."""
    data = {
        "time": time, "node": "random:Verde", "testbed": "random",
        "workload": "web", "message": "bluetest: nap service not found",
        "phase": "sdp_search", "packet_type": "DM1", "packets_sent": 3,
        "packets_expected": 5, "scan_flag": True, "sdp_flag": False,
        "distance": 5.0, "cycle_on_connection": 2, "idle_before_cycle": 1.5,
        "masked": False, "recovery": (),
    }
    data.update(changes)
    return store_module._test_row(TestLogRecord(**data))


def entry(time, node="random:Verde", **changes):
    """A payload row of one system-level entry."""
    data = {"time": time, "node": node, "facility": "hcid",
            "severity": "error", "message": "hci0: command tx timeout"}
    data.update(changes)
    return store_module._system_row(SystemLogRecord(**data))


ATTEMPTS = (
    RecoveryAttempt("ip_socket_reset", False, 0.5),
    RecoveryAttempt("bt_stack_reset", True, 2.25),
)


# -- the row oracle ---------------------------------------------------------------


@pytest.mark.parametrize("fidelity", ["bit", "batch"])
def test_spill_matches_object_path_rows(fidelity, tmp_path):
    result = api.sweep(
        2, jobs=1, backend="serial", duration=3600.0, seed=35651, fidelity=fidelity
    )
    assert any(shard.repository_payload["test"] for shard in result.shards)
    reference_store(result, tmp_path / "reference.store")
    result.into_store(tmp_path / "spilled.store")
    assert_same_rows(tmp_path / "spilled.store", tmp_path / "reference.store")


def test_spill_matches_object_path_on_edge_records(tmp_path):
    first = synthetic_shard(
        1,
        test=[
            report(1.0, packet_type=None, recovery=ATTEMPTS),
            report(5.0, message="tie, first shard"),
            report(6.0, masked=True, scan_flag=False, sdp_flag=True),
            report(7.0, recovery=ATTEMPTS[:1]),
            report(8.0, recovery=(RecoveryAttempt("piconet_failover", True, 1.0),)),
        ],
        system=[entry(2.0), entry(5.0, "realistic:Miseno"), entry(9.0, severity="info")],
    )
    second = synthetic_shard(
        2,
        # Out of time order, and tied with the first shard at t=5.
        test=[report(5.0, message="tie, second shard", recovery=ATTEMPTS[1:]),
              report(0.5, node="realistic:Miseno", testbed="realistic")],
        system=[entry(5.0, "random:Win"), entry(0.25),
                entry(3.0, "random:Win", facility="kernel", severity="warning")],
    )
    result = synthetic_result([first, second])
    reference_store(result, tmp_path / "reference.store")
    result.into_store(tmp_path / "spilled.store")
    assert_same_rows(tmp_path / "spilled.store", tmp_path / "reference.store")
    test_rows = rows(tmp_path / "spilled.store", "test_records")
    assert len(test_rows) == 7
    with SQLiteStore.open(tmp_path / "spilled.store") as store:
        ties = [r.message for r in store.iter_records(kind="test") if r.time == 5.0]
    assert ties == ["tie, first shard", "tie, second shard"]


# -- publication: replace, never append; all or nothing ---------------------------


def test_respill_into_the_same_store_replaces_it(tmp_path):
    """Re-running a sweep into the same store must not double its records."""
    target = tmp_path / "sweep" / "failures.store"
    kwargs = dict(duration=3600.0, seed=77, checkpoint_dir=tmp_path / "shards",
                  store=target, backend="serial")
    first = api.sweep(2, **kwargs)
    with SQLiteStore.open(target) as store:
        first_summary = store.summary()
    first_rows = rows(target, "test_records")
    second = api.sweep(2, **kwargs)
    assert second.reused == 2
    with SQLiteStore.open(target) as store:
        assert store.summary() == first_summary
        assert store.total_items == first.repository.total_items
    assert rows(target, "test_records") == first_rows
    assert [path.name for path in target.parent.iterdir()] == ["failures.store"]


def test_respill_cli_output_is_unchanged(tmp_path, capsys):
    out = tmp_path / "s"
    store = out / "failures.store"
    sweep = ["sweep", "--hours", "1", "--seeds", "2", "--seed", "77", "--jobs", "1",
             "--out", str(out), "--store", str(store)]

    def outputs():
        assert main(["query", str(store), "--summary"]) == 0
        summary = capsys.readouterr().out
        assert main(["analyze", str(store)]) == 0
        return summary, capsys.readouterr().out

    assert main(sweep) == 0
    capsys.readouterr()
    before = outputs()
    assert main(sweep) == 0
    assert "2 reused" in capsys.readouterr().out
    assert outputs() == before


def test_run_store_still_appends(tmp_path):
    target = tmp_path / "run.store"
    first = api.run(duration=2 * 3600.0, seed=7, store=target)
    api.run(duration=2 * 3600.0, seed=7, store=target)
    with SQLiteStore.open(target) as store:
        assert store.total_items == 2 * first.repository.total_items


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_failed_spill_leaves_no_partial_store(existing, tmp_path, monkeypatch):
    shards = [
        synthetic_shard(seed, test=[report(float(seed))], system=[entry(float(seed))])
        for seed in (1, 2, 3)
    ]
    result = synthetic_result(shards)
    target = tmp_path / "failures.store"
    if existing:
        synthetic_result(shards[:1]).into_store(target)
    before = target.read_bytes() if existing else None

    original = SQLiteStore.ingest_payload
    calls = []

    def failing(self, payload):
        calls.append(payload)
        if len(calls) == 2:
            raise RuntimeError("killed while ingesting shard 2")
        return original(self, payload)

    monkeypatch.setattr(SQLiteStore, "ingest_payload", failing)
    with pytest.raises(RuntimeError, match="shard 2"):
        result.into_store(target)
    assert len(calls) == 2
    if existing:
        assert target.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["failures.store"]
    else:
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
    assert result.store_path is None


def test_stale_temp_store_is_not_appended_to(tmp_path):
    """A build left at the temp path by a killed run starts over."""
    shards = [synthetic_shard(1, test=[report(1.0)], system=[entry(1.0)])]
    target = tmp_path / "failures.store"
    stale = tmp_path / f".failures.store.{os.getpid()}.tmp"
    synthetic_result(shards).into_store(stale)
    synthetic_result(shards).into_store(target)
    with SQLiteStore.open(target) as store:
        assert store.total_items == 2
    assert [path.name for path in tmp_path.iterdir()] == ["failures.store"]


def test_spilled_store_schema_matches_a_fresh_store(tmp_path):
    """The indexes built after the spill's load are the fresh store's."""
    shards = [synthetic_shard(1, test=[report(1.0)], system=[entry(1.0)])]
    synthetic_result(shards).into_store(tmp_path / "spilled.store")
    SQLiteStore(tmp_path / "fresh.store").close()

    def schema(path):
        connection = sqlite3.connect(str(path))
        try:
            return connection.execute(
                "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name"
            ).fetchall()
        finally:
            connection.close()

    spilled = schema(tmp_path / "spilled.store")
    assert spilled == schema(tmp_path / "fresh.store")
    assert sum(kind == "index" for kind, *_ in spilled) == 6


# -- the store as a context manager -----------------------------------------------


def test_failed_with_block_rolls_back_pending_rows(tmp_path):
    """Rows pending until flush() are not persisted by a block that raises."""
    path = tmp_path / "failures.store"
    with pytest.raises(RuntimeError, match="after two rows"):
        with SQLiteStore(path) as store:
            assert store.ingest_payload({"test": [report(1.0)], "system": [entry(2.0)]}) == 2
            raise RuntimeError("failed after two rows")
    with SQLiteStore.open(path) as store:
        assert store.total_items == 0


def test_clean_with_block_commits_pending_rows(tmp_path):
    path = tmp_path / "failures.store"
    with SQLiteStore(path) as store:
        store.ingest_payload({"test": [report(1.0)], "system": [entry(2.0)]})
    with SQLiteStore.open(path) as store:
        assert store.total_items == 2


# -- the recovery column memos ----------------------------------------------------


def test_more_recovery_texts_than_the_memo_bound_round_trip(tmp_path, monkeypatch):
    limit = 4
    monkeypatch.setattr(store_module, "_MEMO_LIMIT", limit)
    monkeypatch.setitem(store_module.__dict__, "_RECOVERY_TEXTS", {})
    monkeypatch.setitem(store_module.__dict__, "_RECOVERY_ATTEMPTS", {})
    largest = []
    remember = store_module._remember

    def watched(memo, key, value):
        stored = remember(memo, key, value)
        largest.append(len(memo))
        return stored

    monkeypatch.setattr(store_module, "_remember", watched)
    # 30 distinct texts, each written and read twice, so the memos fill,
    # clear and serve hits.
    records = [
        TestLogRecord(
            float(index), "random:Verde", "random", "web", "m", "connect",
            recovery=(RecoveryAttempt("bt_stack_reset", index % 2 == 0, 1.0 + index % 30),),
        )
        for index in range(60)
    ]
    payload = {"test": [store_module._test_row(record) for record in records], "system": []}
    with SQLiteStore(tmp_path / "records.store") as store:
        store.ingest_test(records)
        assert list(store.iter_records(kind="test")) == records
    with SQLiteStore(tmp_path / "payload.store") as store:
        store.ingest_payload(payload)
        assert list(store.iter_records(kind="test")) == records
    assert rows(tmp_path / "payload.store", "test_records") == rows(
        tmp_path / "records.store", "test_records"
    )
    for row in rows(tmp_path / "payload.store", "test_records"):
        record = records[int(row[1])]
        assert row[-1] == json.dumps(
            [attempt.to_dict() for attempt in record.recovery], separators=(",", ":")
        )
    assert largest and max(largest) <= limit
    assert len(store_module._RECOVERY_TEXTS) <= limit
    assert len(store_module._RECOVERY_ATTEMPTS) <= limit


@pytest.mark.parametrize("attempt", [
    {"action": "bt_stack_reset", "succeeded": 1, "duration": 2.0},
    {"action": "bt_stack_reset", "succeeded": True, "duration": 2},
    {"action": "bt_stack_reset", "succeeded": True, "duration": -0.0},
], ids=["int-flag", "int-duration", "negative-zero"])
def test_recovery_memo_keeps_values_that_compare_equal_apart(attempt):
    """``True == 1``, ``2 == 2.0`` and ``0.0 == -0.0`` as memo keys, but not as JSON."""
    canonical = {"action": "bt_stack_reset", "succeeded": True,
                 "duration": abs(float(attempt["duration"]))}
    for attempts in ([canonical], [attempt], [canonical], [attempt]):
        recovery = tuple(RecoveryAttempt(**data) for data in attempts)
        assert store_module._recovery_column(recovery) == json.dumps(
            attempts, separators=(",", ":")
        )
