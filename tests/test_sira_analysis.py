"""Tests for the failure-SIRA relationship mining (Table 3)."""

import pytest

from repro.collection.records import RecoveryAttempt, TestLogRecord
from repro.core.failure_model import UserFailureType
from repro.core.sira_analysis import SiraTable, build_sira_table, record_severity
from repro.recovery.sira import SIRA_NAMES


def report(message, recovery, masked=False, time=0.0):
    return TestLogRecord(
        time=time, node="r:Verde", testbed="random", workload="random",
        message=message, phase="x", masked=masked, recovery=recovery,
    )


def cascade_to(level):
    """Recovery attempts failing up to ``level``, then succeeding."""
    attempts = [
        RecoveryAttempt(SIRA_NAMES[i], False, 1.0) for i in range(level - 1)
    ]
    attempts.append(RecoveryAttempt(SIRA_NAMES[level - 1], True, 1.0))
    return attempts


class TestRecordSeverity:
    def test_severity_is_successful_level(self):
        assert record_severity(report("m", cascade_to(3))) == 3
        assert record_severity(report("m", cascade_to(7))) == 7

    def test_exhausted_cascade_is_maximal(self):
        attempts = [RecoveryAttempt(n, False, 1.0) for n in SIRA_NAMES]
        assert record_severity(report("m", attempts)) == 7

    def test_no_recovery_is_none(self):
        assert record_severity(report("m", [])) is None


class TestBuildTable:
    def test_counts_by_type_and_action(self):
        records = [
            report("bluetest: nap service not found on access point", cascade_to(3)),
            report("bluetest: nap service not found on access point", cascade_to(3)),
            report("bluetest: nap service not found on access point", cascade_to(6)),
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(1)),
        ]
        table = build_sira_table(records)
        nap_row = table.row_percentages(UserFailureType.NAP_NOT_FOUND)
        assert nap_row["bt_stack_reset"] == pytest.approx(200 / 3)
        assert nap_row["system_reboot"] == pytest.approx(100 / 3)
        assert sum(nap_row.values()) == pytest.approx(100.0)
        pl_row = table.row_percentages(UserFailureType.PACKET_LOSS)
        assert pl_row["ip_socket_reset"] == pytest.approx(100.0)

    def test_masked_records_ignored(self):
        records = [
            report("bluetest: nap service not found on access point", [], masked=True),
        ]
        table = build_sira_table(records)
        assert table.grand_total() == 0

    def test_mismatch_counts_as_unrecovered(self):
        records = [
            report("bluetest: data content corrupted on receive", []),
        ]
        table = build_sira_table(records)
        assert table.unrecovered[UserFailureType.DATA_MISMATCH] == 1
        assert table.row_percentages(UserFailureType.DATA_MISMATCH) == {}
        assert table.total(UserFailureType.DATA_MISMATCH) == 1

    def test_shares_sum_to_100(self):
        records = [
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(2)),
            report("bluetest: data content corrupted on receive", []),
        ]
        table = build_sira_table(records)
        shares = table.shares()
        assert sum(shares.values()) == pytest.approx(100.0)
        assert shares[UserFailureType.PACKET_LOSS] == pytest.approx(50.0)

    def test_total_row(self):
        records = [
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(2)),
            report("bluetest: nap service not found on access point", cascade_to(2)),
        ]
        table = build_sira_table(records)
        total = table.total_row()
        assert total["bt_connection_reset"] == pytest.approx(100.0)

    def test_coverage_counts_cheap_recoveries(self):
        records = [
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(1)),
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(3)),
            report("bluetest: timeout waiting for expected packet (30 s)", cascade_to(6)),
            report("bluetest: data content corrupted on receive", []),
        ]
        table = build_sira_table(records)
        # 2 of 4 failures recovered at level <= 3.
        assert table.coverage() == pytest.approx(50.0)

    def test_severity_statistics(self):
        records = [
            report("bluetest: nap service not found on access point", cascade_to(2)),
            report("bluetest: nap service not found on access point", cascade_to(4)),
        ]
        table = build_sira_table(records)
        assert table.mean_severity(UserFailureType.NAP_NOT_FOUND) == pytest.approx(3.0)
        dist = table.severity_distribution(UserFailureType.NAP_NOT_FOUND)
        assert dist[2] == pytest.approx(50.0)
        assert dist[4] == pytest.approx(50.0)

    def test_mean_severity_none_without_data(self):
        assert SiraTable().mean_severity(UserFailureType.PACKET_LOSS) is None


class TestRecoveryOutcomeMemo:
    """The fold reads severity, recovering action and TTR off a memo keyed
    by the ``recovery`` column text; each must equal the record's own."""

    def test_memo_matches_the_decoded_records(self, tmp_path):
        from repro import api
        from repro.collection.store import RECOVERY, SQLiteStore, _test_record, _test_row
        from repro.core.sira_analysis import recovery_outcome

        sweep = api.sweep(
            2, jobs=1, backend="serial", duration=6 * 3600.0, seed=2006,
            fidelity="batch", store=tmp_path / "batch.store",
        )
        with SQLiteStore.open(sweep.store_path) as store:
            rows = list(store.iter_rows(kind="test"))
        texts = {row[RECOVERY]: row for row in rows}
        failover = report("m", [RecoveryAttempt(SIRA_NAMES[0], False, 1.5),
                                RecoveryAttempt("piconet_failover", True, 4.25)])
        exhausted = report("m", [RecoveryAttempt(name, False, 2.0) for name in SIRA_NAMES])
        for record in (failover, exhausted):
            row = _test_row(record)
            texts[row[RECOVERY]] = row
        assert len(texts) > 5
        for text, row in texts.items():
            record = _test_record(row)
            assert recovery_outcome(text) == (
                record_severity(record), record.recovered_by, record.time_to_recover
            )
        assert recovery_outcome(_test_row(failover)[RECOVERY])[:2] == (2, "piconet_failover")
        assert recovery_outcome(_test_row(exhausted)[RECOVERY])[:2] == (len(SIRA_NAMES), None)
