"""Tests for records, logs, filtering, repository and the LogAnalyzer."""

import random

import pytest

from repro.collection.filtering import DUPLICATE_WINDOW, filter_system_records
from repro.collection.log_analyzer import LogAnalyzer
from repro.collection.logs import SystemLog
from repro.collection.logs import TestLog as WorkloadTestLog
from repro.collection.records import RecoveryAttempt, SystemLogRecord
from repro.collection.records import TestLogRecord as FailureReport
from repro.collection.repository import CentralRepository
from repro.core.failure_model import SystemFailureType
from repro.sim import Simulator


def system_record(time=0.0, node="t:n", facility="hcid", severity="error",
                  message="hci: command tx timeout (opcode 0x0401)"):
    return SystemLogRecord(time=time, node=node, facility=facility,
                           severity=severity, message=message)


def make_report(time=0.0, node="t:n", **overrides):
    base = dict(
        time=time,
        node=node,
        testbed="random",
        workload="random",
        message="bluetest: pan connection cannot be created",
        phase="Connect",
    )
    base.update(overrides)
    return FailureReport(**base)


class TestRecords:
    def test_test_record_roundtrip(self):
        record = make_report(
            time=12.5,
            recovery=[RecoveryAttempt("bt_stack_reset", True, 10.0)],
            packets_sent=42,
        )
        clone = FailureReport.from_dict(record.to_dict())
        assert clone == record

    def test_system_record_roundtrip(self):
        record = system_record(time=3.0)
        assert SystemLogRecord.from_dict(record.to_dict()) == record

    def test_recovered_by_and_ttr(self):
        record = make_report(
            recovery=[
                RecoveryAttempt("ip_socket_reset", False, 2.0),
                RecoveryAttempt("bt_connection_reset", True, 5.0),
            ]
        )
        assert record.recovered_by == "bt_connection_reset"
        assert record.time_to_recover == pytest.approx(7.0)

    def test_unrecovered_record(self):
        record = make_report(recovery=[RecoveryAttempt("system_reboot", False, 210.0)])
        assert record.recovered_by is None


class TestLogs:
    def test_append_and_cursor(self):
        log = WorkloadTestLog("t:n")
        log.append(make_report())
        cursor = log.cursor
        log.append(make_report(time=1.0))
        assert len(log.since(cursor)) == 1
        assert len(log.since(0)) == 2

    def test_negative_cursor_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTestLog("t:n").since(-1)

    def test_system_log_renders_known_vocabulary(self):
        log = SystemLog("t:n", random.Random(0))
        log.set_time(5.0)
        record = log.error(SystemFailureType.BCSP, "out_of_order")
        assert record.time == 5.0
        assert record.facility == "kernel"
        assert record.message.startswith("bcsp: out of order")

    def test_system_log_clock_callback_wins(self):
        sim = Simulator()
        log = SystemLog("t:n", random.Random(0), clock=lambda: sim.now)
        sim.schedule(7.0, lambda: log.error(SystemFailureType.HCI, "timeout"))
        sim.run()
        assert list(log.records())[0].time == 7.0


class TestFiltering:
    def test_info_entries_dropped(self):
        kept, stats = filter_system_records([system_record(severity="info")])
        assert not kept
        assert stats.dropped_severity == 1

    def test_irrelevant_facility_dropped(self):
        kept, stats = filter_system_records([system_record(facility="cron")])
        assert not kept
        assert stats.dropped_facility == 1

    def test_duplicates_within_window_collapse(self):
        records = [system_record(time=0.0), system_record(time=DUPLICATE_WINDOW / 2)]
        kept, stats = filter_system_records(records)
        assert len(kept) == 1
        assert stats.dropped_duplicate == 1

    def test_duplicates_beyond_window_kept(self):
        records = [system_record(time=0.0), system_record(time=DUPLICATE_WINDOW + 1)]
        kept, _ = filter_system_records(records)
        assert len(kept) == 2

    def test_different_messages_not_duplicates(self):
        records = [
            system_record(time=0.0),
            system_record(time=1.0, message="hci: command for unknown connection handle 3"),
        ]
        kept, _ = filter_system_records(records)
        assert len(kept) == 2

    def test_stats_kept_accounting(self):
        records = [
            system_record(time=0.0),
            system_record(time=1.0),  # duplicate
            system_record(severity="info"),
            system_record(facility="mailer"),
        ]
        kept, stats = filter_system_records(records)
        assert stats.total == 4
        assert stats.kept == len(kept) == 1


class TestRepository:
    def test_counters(self):
        repo = CentralRepository()
        repo.ingest_test([make_report()])
        repo.ingest_system([system_record(), system_record(time=1.0)])
        assert repo.user_level_count == 1
        assert repo.system_level_count == 2
        assert repo.total_items == 3
        assert repo.summary()["total_failure_data_items"] == 3

    def test_queries_sorted_by_time(self):
        repo = CentralRepository()
        repo.ingest_test([make_report(time=5.0), make_report(time=1.0)])
        times = [r.time for r in repo.iter_records(kind="test")]
        assert times == [1.0, 5.0]

    def test_query_filters(self):
        repo = CentralRepository()
        repo.ingest_test([
            make_report(node="a:x", testbed="random"),
            make_report(node="b:y", testbed="realistic"),
        ])
        assert len(list(repo.iter_records(kind="test", node="a:x"))) == 1
        assert len(list(repo.iter_records(kind="test", testbed="realistic"))) == 1
        assert repo.nodes() == ["a:x", "b:y"]

    def test_time_window_query(self):
        repo = CentralRepository()
        repo.ingest_system([system_record(time=t) for t in (0.0, 10.0, 20.0)])
        assert len(list(repo.iter_records(kind="system", start=5.0, end=15.0))) == 1


class TestLogAnalyzer:
    def test_collect_once_ships_and_filters(self):
        repo = CentralRepository()
        test_log = WorkloadTestLog("t:n")
        system_log = SystemLog("t:n", random.Random(0))
        analyzer = LogAnalyzer("t:n", test_log, system_log, repo, period=60.0)
        test_log.append(make_report())
        system_log.error(SystemFailureType.HCI, "timeout")
        system_log.info("cron", "cron: noise")
        analyzer.collect_once()
        assert repo.user_level_count == 1
        assert repo.system_level_count == 1
        assert analyzer.filter_stats.dropped_severity == 1

    def test_cursor_prevents_double_shipping(self):
        repo = CentralRepository()
        test_log = WorkloadTestLog("t:n")
        system_log = SystemLog("t:n", random.Random(0))
        analyzer = LogAnalyzer("t:n", test_log, system_log, repo)
        test_log.append(make_report())
        analyzer.collect_once()
        analyzer.collect_once()
        assert repo.user_level_count == 1

    def test_periodic_daemon_runs(self):
        sim = Simulator()
        repo = CentralRepository()
        test_log = WorkloadTestLog("t:n")
        system_log = SystemLog("t:n", random.Random(0), clock=lambda: sim.now)
        analyzer = LogAnalyzer("t:n", test_log, system_log, repo, period=100.0)
        analyzer.start(sim)
        sim.schedule(150.0, lambda: test_log.append(make_report(time=150.0)))
        sim.run_until(350.0)
        assert analyzer.rounds == 3
        assert repo.user_level_count == 1

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            LogAnalyzer("t:n", WorkloadTestLog("t:n"), SystemLog("t:n"), CentralRepository(),
                        period=0.0)
