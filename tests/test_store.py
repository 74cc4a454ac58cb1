"""Tests for the columnar SQLite failure store and the FailureStore API.

The contract under test: both persistence backends — the in-memory
:class:`CentralRepository` (the oracle) and the append-only
:class:`SQLiteStore` — expose the same ``FailureStore`` surface and
yield byte-identical records, counters, and Table 1-4 analyses for the
same ingested stream.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.collection.records import RecoveryAttempt, SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.collection.store import (
    STORE_VERSION,
    TESTBED,
    FailureStore,
    SQLiteStore,
    StoreError,
    StoreVersionError,
    open_store,
)
from repro.recovery.sira import SIRA_NAMES

# -- strategies ---------------------------------------------------------------

user_messages = st.sampled_from([
    "bluetest: pan connection cannot be created",
    "bluetest: timeout waiting for expected packet (30 s)",
    "bluetest: nap service not found on access point",
    "bluetest: sdp search terminated abnormally",
    "bluetest: received payload does not match expected data",
])

nodes = st.sampled_from([
    "random:Verde", "random:Win", "realistic:Miseno", "realistic:Ipaq H3870",
])


@st.composite
def recovery_cascades(draw):
    severity = draw(st.integers(min_value=0, max_value=7))
    if severity == 0:
        return []
    attempts = [
        RecoveryAttempt(SIRA_NAMES[i], False, draw(st.floats(0.1, 300.0)))
        for i in range(severity - 1)
    ]
    attempts.append(
        RecoveryAttempt(SIRA_NAMES[severity - 1], True, draw(st.floats(0.1, 300.0)))
    )
    return attempts


@st.composite
def report_records(draw):
    node = draw(nodes)
    return TestLogRecord(
        time=draw(st.floats(min_value=0.0, max_value=1e6)),
        node=node,
        testbed=node.partition(":")[0],
        workload=draw(st.sampled_from(["random", "web", "p2p"])),
        message=draw(user_messages),
        phase=draw(st.sampled_from(["Search", "Connect", "Data Transfer"])),
        packet_type=draw(st.sampled_from([None, "DM1", "DM5", "DH5"])),
        packets_sent=draw(st.integers(0, 500)),
        packets_expected=draw(st.integers(0, 500)),
        scan_flag=draw(st.booleans()),
        sdp_flag=draw(st.booleans()),
        distance=draw(st.sampled_from([1.0, 5.0, 10.0])),
        cycle_on_connection=draw(st.integers(0, 5)),
        idle_before_cycle=draw(st.floats(0.0, 100.0)),
        masked=draw(st.booleans()),
        recovery=draw(recovery_cascades()),
    )


@st.composite
def system_log_records(draw):
    return SystemLogRecord(
        time=draw(st.floats(min_value=0.0, max_value=1e6)),
        node=draw(nodes),
        facility=draw(st.sampled_from(["hcid", "sdpd", "kernel", "hal"])),
        severity=draw(st.sampled_from(["warning", "error"])),
        message=draw(st.sampled_from([
            "hci: command tx timeout (opcode 0x0405)",
            "sdp: request timed out",
            "bnep: device bnep0 occupied",
        ])),
    )


def both_backends(tests, systems):
    """The same stream ingested into the oracle and the SQLite store."""
    memory = CentralRepository()
    memory.ingest_test(tests)
    memory.ingest_system(systems)
    store = SQLiteStore()
    store.ingest_test(tests)
    store.ingest_system(systems)
    return memory, store


# -- shared campaign fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def campaign():
    """One short two-testbed campaign shared by the identity tests."""
    return api.run(duration=3 * 3600.0, seed=9)


@pytest.fixture(scope="module")
def campaign_store(campaign, tmp_path_factory):
    """The same campaign spilled into a columnar store on disk."""
    path = tmp_path_factory.mktemp("store") / "campaign.store"
    with SQLiteStore(path) as store:
        store.ingest_store(campaign.repository)
    return path


# -- the FailureStore protocol ------------------------------------------------


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(CentralRepository(), FailureStore)
        assert isinstance(SQLiteStore(), FailureStore)

    def test_open_store_roundtrip(self, tmp_path):
        path = tmp_path / "x.store"
        with SQLiteStore(path) as store:
            store.ingest_system([SystemLogRecord(1.0, "random:a", "hcid",
                                                 "error", "hci: timeout")])
        reopened = open_store(path)
        assert reopened.system_level_count == 1
        reopened.close()

    def test_system_rows_share_one_testbed_string(self, campaign):
        # The testbed cell is derived from each entry's node name; one
        # string per testbed, not one per row.
        objects = {}
        for row in campaign.repository.iter_rows(kind="system"):
            objects.setdefault(row[TESTBED], set()).add(id(row[TESTBED]))
        assert sorted(objects) == ["random", "realistic"]
        assert all(len(ids) == 1 for ids in objects.values())


# -- backend identity (hypothesis) --------------------------------------------


class TestBackendIdentity:
    @given(
        st.lists(report_records(), max_size=40),
        st.lists(system_log_records(), max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_streams_counters_and_nodes_identical(self, tests, systems):
        memory, store = both_backends(tests, systems)
        assert list(store.iter_records(kind="test")) == list(
            memory.iter_records(kind="test")
        )
        assert list(store.iter_records(kind="system")) == list(
            memory.iter_records(kind="system")
        )
        assert store.summary() == memory.summary()
        assert store.nodes() == memory.nodes()
        assert store.total_items == memory.total_items
        store.close()

    @given(
        st.lists(report_records(), max_size=40),
        st.lists(system_log_records(), max_size=40),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.sampled_from([None, "random", "realistic"]),
        st.sampled_from([None, "random:Verde", "realistic:Miseno"]),
        st.sampled_from(["test", "system"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_filtered_queries_identical(self, tests, systems, a, b,
                                        testbed, node, kind):
        start, end = min(a, b), max(a, b)
        memory, store = both_backends(tests, systems)
        expected = list(memory.iter_records(
            kind=kind, node=node, testbed=testbed, start=start, end=end
        ))
        assert list(store.iter_records(
            kind=kind, node=node, testbed=testbed, start=start, end=end
        )) == expected
        assert all(start <= r.time <= end for r in expected)
        store.close()


class TestAnalysisByteIdentity:
    def test_rendered_tables_identical(self, campaign, campaign_store):
        from repro.cli import _analyses_text, infer_node_nap_pairs

        memory_text = _analyses_text(
            campaign.repository, infer_node_nap_pairs(campaign.repository)
        )
        with SQLiteStore.open(campaign_store) as store:
            store_text = _analyses_text(store, infer_node_nap_pairs(store))
        assert store_text == memory_text

    def test_campaign_statistics_identical(self, campaign, campaign_store):
        from repro.core.summary import campaign_statistics

        pairs = campaign.node_nap_pairs()
        expected = campaign_statistics(campaign.repository, pairs)
        with SQLiteStore.open(campaign_store) as store:
            assert campaign_statistics(store, pairs) == expected


# -- SQLite round-trip and durability -----------------------------------------


class TestSQLiteRoundTrip:
    def test_full_record_survives(self, tmp_path):
        record = TestLogRecord(
            time=12.5, node="random:Verde", testbed="random", workload="random",
            message="bluetest: sdp search terminated abnormally", phase="Search",
            packet_type=None, packets_sent=7, packets_expected=240,
            scan_flag=True, sdp_flag=False, distance=5.0,
            cycle_on_connection=3, idle_before_cycle=1.25, masked=True,
            recovery=(
                RecoveryAttempt("ip_socket_reset", False, 2.0),
                RecoveryAttempt("bt_stack_reset", True, 10.0),
            ),
        )
        path = tmp_path / "r.store"
        with SQLiteStore(path) as store:
            store.ingest_test([record])
        with SQLiteStore.open(path) as store:
            (loaded,) = store.iter_records(kind="test")
        assert loaded == record
        assert loaded.packet_type is None
        assert loaded.recovery == record.recovery
        assert loaded.recovered_by == "bt_stack_reset"

    def test_ingestion_is_incremental(self, tmp_path):
        path = tmp_path / "grow.store"
        with SQLiteStore(path) as store:
            store.ingest_system([SystemLogRecord(2.0, "random:a", "hcid",
                                                 "error", "x")])
        with SQLiteStore(path) as store:  # re-open appends, never truncates
            store.ingest_system([SystemLogRecord(1.0, "random:a", "hcid",
                                                 "error", "y")])
        with SQLiteStore.open(path) as store:
            times = [r.time for r in store.iter_records(kind="system")]
        assert times == [1.0, 2.0]

    def test_version_skew_is_rejected(self, tmp_path):
        path = tmp_path / "skew.store"
        SQLiteStore(path).close()
        import sqlite3

        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE store_meta SET doc = ?",
                (json.dumps({"version": STORE_VERSION + 98,
                             "layout": "columnar-jsonl-recovery"}),),
            )
        with pytest.raises(StoreVersionError):
            SQLiteStore.open(path)

    def test_corrupt_file_is_rejected(self, tmp_path):
        path = tmp_path / "corrupt.store"
        path.write_bytes(b"this is not a sqlite database at all\x00\x01")
        with pytest.raises(StoreError):
            SQLiteStore.open(path)


# -- spill threading through api and sweep ------------------------------------


class TestStoreThreading:
    def test_run_spills_into_store(self, tmp_path):
        target = tmp_path / "run.store"
        result = api.run(duration=2 * 3600.0, seed=7, store=target)
        assert result.store_path == target
        with SQLiteStore.open(target) as store:
            assert store.total_items == result.repository.total_items
            assert list(store.iter_records(kind="test")) == list(
                result.repository.iter_records(kind="test")
            )

    def test_sweep_spill_matches_merged_repository(self, tmp_path):
        result = api.sweep(
            3, duration=2 * 3600.0, seed=4,
            checkpoint_dir=tmp_path / "shards",
            store=tmp_path / "sweep.store",
        )
        assert result.store_path == tmp_path / "sweep.store"
        with SQLiteStore.open(result.store_path) as store:
            assert list(store.iter_records(kind="test")) == list(
                result.repository.iter_records(kind="test")
            )
            assert list(store.iter_records(kind="system")) == list(
                result.repository.iter_records(kind="system")
            )

    def test_store_is_not_part_of_the_spec(self, tmp_path):
        with_store = api.ExperimentConfig(store=tmp_path / "s.store")
        without = api.ExperimentConfig()
        assert with_store.spec() == without.spec()

    def test_non_path_store_rejected(self):
        with pytest.raises(ValueError, match="store"):
            api.ExperimentConfig(store=42)


# -- the query CLI ------------------------------------------------------------


class TestQueryCli:
    def test_summary(self, campaign_store, capsys):
        from repro.cli import main

        assert main(["query", str(campaign_store), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "total_failure_data_items" in out

    def test_record_listing_is_jsonl(self, campaign_store, capsys):
        from repro.cli import main

        code = main([
            "query", str(campaign_store),
            "--kind", "test", "--testbed", "random", "--limit", "3",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 3
        for line in lines:
            assert json.loads(line)["testbed"] == "random"

    def test_tables_match_analyze_byte_for_byte(self, campaign_store, capsys):
        from repro.cli import main

        assert main(["analyze", str(campaign_store)]) == 0
        analyzed = capsys.readouterr().out
        assert main(["query", str(campaign_store), "--tables"]) == 0
        assert capsys.readouterr().out == analyzed

    def test_relationships(self, campaign_store, capsys):
        from repro.cli import main

        assert main(["query", str(campaign_store), "--relationships"]) == 0
        out = capsys.readouterr().out
        assert "Error-Failure Relationship" in out

    def test_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["query", str(tmp_path / "nope.store")]) == 2
        assert "no failure store" in capsys.readouterr().err
