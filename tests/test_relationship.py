"""Tests for the error-failure relationship mining (Table 2)."""

import pytest

from repro.collection.records import SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.core.failure_model import SystemFailureType, UserFailureType
from repro.core.relationship import (
    NO_EVIDENCE,
    RelationshipTable,
    all_columns,
    build_relationship_table,
    column_key,
)


def user_report(time, message, node="r:Verde"):
    return TestLogRecord(
        time=time, node=node, testbed="random", workload="random",
        message=message, phase="Connect",
    )


def sys_entry(time, message, node="r:Verde", facility="hcid"):
    return SystemLogRecord(
        time=time, node=node, facility=facility, severity="error", message=message,
    )


def repo_with(test=(), system=()):
    repo = CentralRepository()
    repo.ingest_test(list(test))
    repo.ingest_system(list(system))
    return repo


class TestColumns:
    def test_column_key_format(self):
        assert column_key(SystemFailureType.HCI, "local") == "HCI:local"
        assert column_key(SystemFailureType.SDP, "NAP") == "SDP:NAP"

    def test_column_key_is_one_object_per_column(self):
        """The fold's open tuples share one string per column."""
        origin = "".join(["lo", "cal"])  # equal to "local", not the same object
        first = column_key(SystemFailureType.HCI, "local")
        assert column_key(SystemFailureType.HCI, origin) is first
        assert column_key(SystemFailureType.HCI, "NAP") is not first

    def test_all_columns_cover_types_and_none(self):
        columns = all_columns()
        assert NO_EVIDENCE in columns
        assert len(columns) == 2 * len(list(SystemFailureType)) + 1


class TestTableMechanics:
    def test_row_percentages_normalise(self):
        table = RelationshipTable()
        table.note_failure(UserFailureType.CONNECT_FAILED)
        for _ in range(3):
            table.add_evidence(UserFailureType.CONNECT_FAILED, "HCI:local")
        table.add_evidence(UserFailureType.CONNECT_FAILED, "L2CAP:NAP")
        row = table.row_percentages(UserFailureType.CONNECT_FAILED)
        assert row["HCI:local"] == pytest.approx(75.0)
        assert row["L2CAP:NAP"] == pytest.approx(25.0)
        assert sum(row.values()) == pytest.approx(100.0)

    def test_shares_are_percent_of_observed(self):
        table = RelationshipTable()
        for _ in range(3):
            table.note_failure(UserFailureType.PACKET_LOSS)
        table.note_failure(UserFailureType.CONNECT_FAILED)
        shares = table.shares()
        assert shares[UserFailureType.PACKET_LOSS] == pytest.approx(75.0)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_strongest_cause(self):
        table = RelationshipTable()
        table.note_failure(UserFailureType.PAN_CONNECT_FAILED)
        table.add_evidence(UserFailureType.PAN_CONNECT_FAILED, "SDP:NAP")
        table.add_evidence(UserFailureType.PAN_CONNECT_FAILED, "SDP:NAP")
        table.add_evidence(UserFailureType.PAN_CONNECT_FAILED, "HCI:local")
        assert table.strongest_cause(UserFailureType.PAN_CONNECT_FAILED) == "SDP:NAP"
        assert table.strongest_cause(UserFailureType.BIND_FAILED) is None

    def test_empty_table_views(self):
        table = RelationshipTable()
        assert table.shares() == {}
        assert table.column_totals() == {}
        assert table.row_percentages(UserFailureType.PACKET_LOSS) == {}


class TestMining:
    def test_evidence_within_window_attributed(self):
        repo = repo_with(
            test=[user_report(1000.0, "bluetest: l2cap connect to NAP failed")],
            system=[sys_entry(1030.0, "hci: command tx timeout (opcode 0x0405)")],
        )
        table = build_relationship_table(repo, [("r:Verde", "r:Giallo")])
        row = table.row_percentages(UserFailureType.CONNECT_FAILED)
        assert row == {"HCI:local": pytest.approx(100.0)}

    def test_nap_origin_attributed(self):
        repo = repo_with(
            test=[user_report(1000.0, "bluetest: pan connection cannot be created")],
            system=[
                sys_entry(
                    1005.0,
                    "sdp: access point unavailable or service not implemented",
                    node="r:Giallo",
                    facility="sdpd",
                )
            ],
        )
        table = build_relationship_table(repo, [("r:Verde", "r:Giallo")])
        row = table.row_percentages(UserFailureType.PAN_CONNECT_FAILED)
        assert row == {"SDP:NAP": pytest.approx(100.0)}

    def test_far_away_evidence_not_attributed(self):
        repo = repo_with(
            test=[user_report(1000.0, "bluetest: l2cap connect to NAP failed")],
            system=[sys_entry(5000.0, "hci: command tx timeout (opcode 0x0405)")],
        )
        table = build_relationship_table(repo, [("r:Verde", "r:Giallo")])
        row = table.row_percentages(UserFailureType.CONNECT_FAILED)
        assert row == {NO_EVIDENCE: pytest.approx(100.0)}

    def test_no_evidence_counted_explicitly(self):
        repo = repo_with(
            test=[user_report(0.0, "bluetest: inquiry terminated abnormally")],
        )
        table = build_relationship_table(repo, [("r:Verde", "r:Giallo")])
        row = table.row_percentages(UserFailureType.INQUIRY_SCAN_FAILED)
        assert row == {NO_EVIDENCE: pytest.approx(100.0)}

    def test_column_totals_weighted_by_shares(self):
        repo = repo_with(
            test=[
                user_report(1000.0, "bluetest: l2cap connect to NAP failed"),
                user_report(9000.0, "bluetest: l2cap connect to NAP failed"),
                user_report(20_000.0, "bluetest: bind on bnep0 failed"),
            ],
            system=[
                sys_entry(1010.0, "hci: command tx timeout (opcode 0x0405)"),
                sys_entry(9010.0, "hci: command tx timeout (opcode 0x0405)"),
                sys_entry(20_010.0, "hal: timed out waiting for hotplug event",
                          facility="hal"),
            ],
        )
        table = build_relationship_table(repo, [("r:Verde", "r:Giallo")])
        totals = table.column_totals()
        assert totals["HCI:local"] == pytest.approx(2 / 3 * 100.0)
        assert totals["HOTPLUG:local"] == pytest.approx(1 / 3 * 100.0)
        folded = table.component_totals()
        assert folded["HCI"] == pytest.approx(totals["HCI:local"])

    def test_multiple_nodes_aggregate(self):
        repo = repo_with(
            test=[
                user_report(0.0, "bluetest: l2cap connect to NAP failed", node="r:Verde"),
                user_report(0.0, "bluetest: l2cap connect to NAP failed", node="r:Miseno"),
            ],
        )
        table = build_relationship_table(
            repo, [("r:Verde", "r:Giallo"), ("r:Miseno", "r:Giallo")]
        )
        assert table.observed[UserFailureType.CONNECT_FAILED] == 2
