"""Tests for repository persistence and the command-line interface."""

import pytest

from repro.cli import infer_node_nap_pairs, main
from repro.collection.records import SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository


def small_repo():
    repo = CentralRepository()
    repo.ingest_test([
        TestLogRecord(
            time=10.0, node="random:Verde", testbed="random", workload="random",
            message="bluetest: l2cap connect to NAP failed", phase="Connect",
        ),
        TestLogRecord(
            time=20.0, node="realistic:Win", testbed="realistic", workload="web",
            message="bluetest: timeout waiting for expected packet (30 s)",
            phase="Data Transfer",
        ),
    ])
    repo.ingest_system([
        SystemLogRecord(time=11.0, node="random:Verde", facility="hcid",
                        severity="error",
                        message="hci: command tx timeout (opcode 0x0405)"),
        SystemLogRecord(time=5.0, node="random:Giallo", facility="sdpd",
                        severity="error", message="sdp: request timed out"),
        SystemLogRecord(time=6.0, node="realistic:Giallo", facility="sdpd",
                        severity="error", message="sdp: request timed out"),
    ])
    return repo


class TestPersistence:
    def test_flush_open_roundtrip(self, tmp_path):
        repo = small_repo()
        repo.flush(tmp_path / "dump")
        loaded = CentralRepository.open(tmp_path / "dump")
        assert loaded.summary() == repo.summary()
        assert [r.time for r in loaded.iter_records(kind="test")] == [
            r.time for r in repo.iter_records(kind="test")
        ]
        assert loaded.nodes() == repo.nodes()

    def test_open_empty_directory(self, tmp_path):
        loaded = CentralRepository.open(tmp_path)
        assert loaded.total_items == 0

    def test_flush_creates_directory(self, tmp_path):
        repo = small_repo()
        target = tmp_path / "deep" / "nested"
        repo.flush(target)
        assert (target / "test_records.jsonl").exists()
        assert (target / "system_records.jsonl").exists()

    def test_flush_without_binding_rejected(self):
        with pytest.raises(ValueError):
            CentralRepository().flush()


class TestInferPairs:
    def test_nap_is_the_node_without_user_reports(self):
        pairs = infer_node_nap_pairs(small_repo())
        assert ("random:Verde", "random:Giallo") in pairs
        assert ("realistic:Win", "realistic:Giallo") in pairs

    def test_empty_repository(self):
        assert infer_node_nap_pairs(CentralRepository()) == []


class TestCli:
    def test_campaign_command_dumps_and_prints(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "run", "--hours", "2", "--seed", "3", "--out", str(out)
        ])
        assert code == 0
        assert (out / "test_records.jsonl").exists()
        assert (out / "analysis.txt").exists()
        captured = capsys.readouterr().out
        assert "Bluetooth PAN Failure Model" in captured
        assert "Error-Failure Relationship" in captured

    def test_analyze_command_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--hours", "2", "--seed", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "MTTF" in captured

    def test_analyze_missing_data_fails(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_masking_flag(self, tmp_path, capsys):
        out = tmp_path / "masked"
        code = main([
            "run", "--hours", "3", "--seed", "5", "--masking",
            "--out", str(out)
        ])
        assert code == 0

    def test_report_command(self, capsys):
        assert main(["report", "--hours", "2", "--seed", "6"]) == 0
        captured = capsys.readouterr().out
        assert "Dependability Improvement" in captured
        assert "Availability improvement" in captured

    def test_scorecard_command(self, capsys):
        code = main(["scorecard", "--hours", "4", "--seed", "77"])
        captured = capsys.readouterr().out
        assert "Reproduction scorecard" in captured
        assert "claims reproduced" in captured
        assert code in (0, 1)  # short campaigns may miss a band
