"""Tests of the campaign telemetry layer (run journal, monitor, watchdog).

Pins the journal's four contracts: the wire format (append-only JSONL,
torn-line tolerance, closed versioned schema with wall-clock data fenced
in the ``wall`` envelope), the canonical projection (byte-stable across
``--jobs``), the live monitor/watchdog semantics (progress, ETA,
stragglers, stall flagging once per attempt), and the orchestrator
integration (journaled sweeps validate cleanly, telemetry never changes
the science, a killed worker is requeued or aborts per policy).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import ExperimentConfig
from repro.core.campaign import CampaignSpec
from repro.obs.campaign import (
    COMPLETED,
    RUNNING,
    ShardView,
    SweepMonitor,
    SweepWatchdog,
    monitor_from_journal,
    render_report,
    render_sweep_openmetrics,
    render_top,
    write_sweep_textfile,
)
from repro.obs.journal import (
    JOURNAL_VERSION,
    JournalReader,
    JournalWriter,
    SHARD_COMPLETED,
    SHARD_HEARTBEAT,
    SHARD_PROGRESS,
    SHARD_REQUEUED,
    SHARD_SCHEDULED,
    SHARD_STALLED,
    SHARD_STARTED,
    SWEEP_COMPLETED,
    SWEEP_STARTED,
    SweepTelemetry,
    canonical_events,
    canonical_journal,
    read_journal,
    validate_events,
    validate_journal,
)
from repro.parallel import SweepStalledError, run_shard
import repro.parallel.sweep as sweep_module

HOURS = 3600.0

#: Short but non-trivial replicate (mirrors tests/test_parallel.py).
SPEC = CampaignSpec(duration=1 * HOURS, seed=5)


def run_sweep(seeds, jobs=1, spec=SPEC, **kwargs):
    config = ExperimentConfig.from_spec(spec)
    return config.sweep(seeds, jobs=jobs, **kwargs)


def ev(kind, ts=0.0, fp="fp-test", seed=None, wall=None, **fields):
    """One schema-conformant synthetic journal event."""
    record = {"v": JOURNAL_VERSION, "event": kind, "fp": fp}
    if seed is not None:
        record["seed"] = seed
    record.update(fields)
    envelope = {"ts": ts, "pid": 1}
    if wall:
        envelope.update(wall)
    record["wall"] = envelope
    return record


def lifecycle(fp="fp-test"):
    """A two-shard sweep: seed 10 completed, seed 11 still running."""
    return [
        ev(SWEEP_STARTED, ts=0.0, fp=fp, root_seed=5, seeds=[10, 11]),
        ev(SHARD_SCHEDULED, ts=0.5, fp=fp, seed=10, index=0),
        ev(SHARD_SCHEDULED, ts=0.5, fp=fp, seed=11, index=1),
        ev(SHARD_STARTED, ts=1.0, fp=fp, seed=10, index=0),
        ev(SHARD_STARTED, ts=2.0, fp=fp, seed=11, index=1),
        ev(SHARD_PROGRESS, ts=3.0, fp=fp, seed=10, sim_time=1800.0, frac=0.5),
        ev(SHARD_HEARTBEAT, ts=4.0, fp=fp, seed=10, wall={"sim_time": 2000.0}),
        ev(
            SHARD_COMPLETED,
            ts=9.0,
            fp=fp,
            seed=10,
            index=0,
            duration=3600.0,
            total_items=42,
            statistics={"failures": 7},
            wall={"wall_time": 8.0, "events_per_sec": 1e5, "rss_peak_kb": 2048},
        ),
    ]


class TestJournalWriterReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JournalWriter(path, "fp-abc") as writer:
            writer.emit(SWEEP_STARTED, root_seed=5, seeds=[1, 2])
            writer.emit(SHARD_STARTED, seed=1, index=0)
        events = read_journal(path)
        assert [e["event"] for e in events] == [SWEEP_STARTED, SHARD_STARTED]
        assert all(e["fp"] == "fp-abc" for e in events)
        assert all(e["v"] == JOURNAL_VERSION for e in events)
        # Wall envelope is stamped automatically.
        assert all("ts" in e["wall"] and "pid" in e["wall"] for e in events)

    def test_emit_after_close_raises(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", "fp")
        writer.close()
        with pytest.raises(ValueError):
            writer.emit(SWEEP_STARTED, root_seed=1, seeds=[1])

    def test_wall_kwarg_lands_in_envelope_only(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path, "fp") as writer:
            writer.emit(SHARD_STALLED, seed=1, wall={"cause": "worker_exit"})
        (event,) = read_journal(path)
        assert event["wall"]["cause"] == "worker_exit"
        assert "cause" not in event

    def test_reader_tail_and_torn_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path, "fp") as writer:
            writer.emit(SWEEP_STARTED, root_seed=1, seeds=[1])
            reader = JournalReader(path)
            assert [e["event"] for e in reader.poll()] == [SWEEP_STARTED]
            assert reader.poll() == []  # nothing new
            writer.emit(SHARD_STARTED, seed=1, index=0)
            # Simulate a writer dying mid-line: no trailing newline.
            with open(path, "ab") as handle:
                handle.write(b'{"v": 1, "event": "shard_heart')
            polled = reader.poll()
            # The complete line arrives; the torn line is never consumed.
            assert [e["event"] for e in polled] == [SHARD_STARTED]
            assert reader.poll() == []
            # The writer recovers (O_APPEND: completes as a fresh line).
            with open(path, "ab") as handle:
                handle.write(b"\n")
            writer.emit(SHARD_COMPLETED, seed=1, index=0, duration=1.0,
                        total_items=0, statistics={})
            assert [e["event"] for e in reader.poll()] == [SHARD_COMPLETED]

    def test_missing_file_polls_empty(self, tmp_path):
        assert JournalReader(tmp_path / "absent.jsonl").poll() == []


class TestValidation:
    def test_clean_lifecycle_validates(self):
        assert validate_events(lifecycle()) == []

    def test_version_mismatch_reported(self):
        bad = lifecycle()
        bad[0]["v"] = 99
        assert any("version" in error for error in validate_events(bad))

    def test_unknown_event_reported(self):
        bad = lifecycle() + [ev("shard_exploded", seed=10)]
        assert any("unknown event" in error for error in validate_events(bad))

    def test_missing_required_field_reported(self):
        bad = lifecycle()
        del bad[3]["index"]  # shard_started requires index
        errors = validate_events(bad)
        assert any("missing field" in error and "index" in error for error in errors)

    def test_undeclared_top_level_field_reported(self):
        # The closed schema is the determinism fence: wall-clock data
        # smuggled to the top level must fail validation.
        bad = lifecycle()
        bad[3]["wall_time"] = 1.23
        errors = validate_events(bad)
        assert any("undeclared" in error and "wall" in error for error in errors)

    def test_fingerprint_drift_reported(self):
        bad = lifecycle()
        bad[4]["fp"] = "fp-other"
        assert any("fingerprint" in error for error in validate_events(bad))

    def test_resumed_sweep_rekeys_fingerprint(self):
        # A second sweep_started re-keys the stream: two runs with
        # different fingerprints in one file are valid.
        events = lifecycle("fp-a") + lifecycle("fp-b")
        assert validate_events(events) == []

    def test_completion_without_start_reported(self):
        orphan = [
            ev(SWEEP_STARTED, root_seed=5, seeds=[10]),
            ev(
                SHARD_COMPLETED,
                seed=10,
                index=0,
                duration=1.0,
                total_items=0,
                statistics={},
            ),
        ]
        assert any("without" in error for error in validate_events(orphan))

    def test_missing_wall_envelope_reported(self):
        bad = lifecycle()
        del bad[2]["wall"]
        assert any("wall.ts" in error for error in validate_events(bad))

    def test_validate_journal_reports_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [json.dumps(event) for event in lifecycle()]
        lines.insert(1, "not json at all")
        path.write_text("\n".join(lines) + "\n" + '{"torn')
        errors = validate_journal(path)
        assert any("not valid JSON" in error for error in errors)
        assert any("torn trailing line" in error for error in errors)

    def test_validate_journal_missing_file(self, tmp_path):
        errors = validate_journal(tmp_path / "absent.jsonl")
        assert errors and "not found" in errors[0]


class TestCanonicalProjection:
    def test_wall_and_heartbeats_stripped(self):
        projected = canonical_events(lifecycle())
        assert all("wall" not in event for event in projected)
        kinds = {event["event"] for event in projected}
        assert SHARD_HEARTBEAT not in kinds
        assert SHARD_COMPLETED in kinds

    def test_incident_events_excluded(self):
        events = lifecycle() + [
            ev(SHARD_STALLED, seed=11),
            ev(SHARD_REQUEUED, seed=11),
        ]
        kinds = {event["event"] for event in canonical_events(events)}
        assert SHARD_STALLED not in kinds and SHARD_REQUEUED not in kinds

    def test_order_independent_of_interleaving(self):
        events = lifecycle()
        shuffled = [events[0]] + list(reversed(events[1:]))
        assert canonical_journal(events) == canonical_journal(shuffled)

    def test_sweep_markers_frame_the_projection(self):
        events = lifecycle() + [ev(SWEEP_COMPLETED, ts=20.0, seeds=[10, 11])]
        projected = canonical_events(events)
        assert projected[0]["event"] == SWEEP_STARTED
        assert projected[-1]["event"] == SWEEP_COMPLETED

    def test_byte_stable_serialisation(self):
        text = canonical_journal(lifecycle())
        assert text.endswith("\n")
        for line in text.strip().split("\n"):
            event = json.loads(line)
            assert line == json.dumps(event, sort_keys=True, separators=(",", ":"))

    def test_empty_projection(self):
        assert canonical_journal([]) == ""


class TestShardView:
    def test_silent_for(self):
        view = ShardView(seed=1)
        assert view.silent_for(10.0) is None
        view.last_seen_ts = 4.0
        assert view.silent_for(10.0) == 6.0
        assert view.silent_for(1.0) == 0.0  # clock skew clamps at zero

    def test_running_for(self):
        view = ShardView(seed=1)
        assert view.running_for(10.0) is None
        view.started_ts = 2.0
        assert view.running_for(10.0) == 8.0
        view.finished_ts = 7.0
        assert view.running_for(100.0) == 5.0


class TestSweepMonitor:
    def monitor(self):
        return SweepMonitor().feed(lifecycle())

    def test_folds_lifecycle(self):
        monitor = self.monitor()
        assert monitor.fingerprint == "fp-test"
        assert monitor.root_seed == 5
        assert monitor.expected == [10, 11]
        assert monitor.counts() == {COMPLETED: 1, RUNNING: 1}
        done = monitor.shards[10]
        assert done.wall_time == 8.0 and done.total_items == 42
        assert done.rss_peak_kb == 2048 and done.frac == 1.0
        assert monitor.shards[11].status == RUNNING

    def test_progress_and_eta(self):
        monitor = self.monitor()
        assert monitor.progress() == pytest.approx(0.5)
        # Half done after 10 s of wall → another 10 s to go.
        assert monitor.eta_seconds(10.0) == pytest.approx(10.0)

    def test_throughput_percentiles(self):
        percentiles = self.monitor().throughput_percentiles()
        assert percentiles["p50"] == percentiles["max"] == 1e5

    def test_stalled_detection(self):
        monitor = self.monitor()
        assert monitor.stalled(10.0, deadline=30.0) == []
        stalled = monitor.stalled(40.0, deadline=30.0)
        assert [view.seed for view in stalled] == [11]

    def test_stragglers(self):
        monitor = self.monitor()
        # Median completed wall is 8 s; seed 11 has been running 28 s.
        assert [v.seed for v in monitor.stragglers(30.0)] == [11]
        assert monitor.stragglers(3.0) == []

    def test_new_sweep_started_rekeys(self):
        monitor = self.monitor()
        monitor.feed([ev(SWEEP_STARTED, ts=100.0, fp="fp-next", root_seed=9,
                         seeds=[20])])
        assert monitor.fingerprint == "fp-next"
        assert monitor.expected == [20]
        assert 10 not in monitor.shards

    def test_aborted_marker(self):
        monitor = self.monitor()
        monitor.feed([ev("sweep_aborted", ts=50.0, reason="boom")])
        assert monitor.finished and monitor.aborted == "boom"


class TestSweepWatchdog:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepWatchdog(SweepMonitor(), 0.0)

    def test_flags_each_attempt_once(self):
        monitor = SweepMonitor().feed(lifecycle())
        watchdog = SweepWatchdog(monitor, deadline=30.0)
        assert watchdog.check(10.0) == []
        (action,) = watchdog.check(40.0)
        assert action.seed == 11 and action.attempt == 1
        assert action.silent_for == pytest.approx(38.0)
        assert watchdog.check(41.0) == []  # same attempt, flagged already

    def test_requeued_attempt_is_eligible_again(self):
        monitor = SweepMonitor().feed(lifecycle())
        watchdog = SweepWatchdog(monitor, deadline=30.0)
        assert len(watchdog.check(40.0)) == 1
        monitor.feed([
            ev(SHARD_REQUEUED, ts=41.0, seed=11),
            ev(SHARD_STARTED, ts=42.0, seed=11, index=1),
        ])
        assert watchdog.check(43.0) == []
        (action,) = watchdog.check(80.0)
        assert action.seed == 11 and action.attempt == 2


class TestRenderers:
    def test_render_top_smoke(self):
        monitor = SweepMonitor().feed(lifecycle())
        screen = render_top(monitor, now=10.0, deadline=30.0)
        assert "Sweep fp-test" in screen
        assert "1/2 shards" in screen
        assert " 10 " in screen and " 11 " in screen
        assert "50.0%" in screen

    def test_render_top_flags_stalls(self):
        monitor = SweepMonitor().feed(lifecycle())
        screen = render_top(monitor, now=60.0, deadline=30.0)
        assert "STALLED" in screen

    def test_render_report_smoke(self):
        events = lifecycle() + [ev(SWEEP_COMPLETED, ts=20.0, seeds=[10, 11])]
        report = render_report(events)
        assert "post-mortem" in report
        assert "timeline" in report
        assert "incidents: none" in report
        assert "median wall 8.00 s" in report

    def test_render_report_incidents(self):
        events = lifecycle() + [
            ev(SHARD_STALLED, ts=40.0, seed=11, wall={"silent_for": 38.0}),
            ev(SHARD_REQUEUED, ts=41.0, seed=11, wall={"attempt": 2}),
            ev(SHARD_STALLED, ts=42.0, seed=12, wall={"cause": "worker_exit"}),
        ]
        report = render_report(events)
        assert "incidents (3)" in report
        assert "shard_stalled" in report and "shard_requeued" in report
        assert "silent 38.0s" in report
        # A lost worker's stall carries its cause, not a silence.
        assert "cause worker_exit" in report
        assert "silent ?s" not in report

    def test_openmetrics_exposition(self):
        monitor = SweepMonitor().feed(lifecycle())
        text = render_sweep_openmetrics(monitor, now=10.0)
        assert text.endswith("# EOF\n")
        assert 'repro_sweep_info{fingerprint="fp-test"} 1' in text
        assert 'repro_sweep_shards{state="completed"} 1' in text
        assert "repro_sweep_progress_ratio 0.500000" in text
        assert "repro_sweep_finished 0" in text

    def test_write_sweep_textfile_atomic(self, tmp_path):
        monitor = SweepMonitor().feed(lifecycle())
        target = tmp_path / "metrics" / "sweep.prom"
        written = write_sweep_textfile(monitor, target, now=10.0)
        assert written == target and target.exists()
        assert list(target.parent.iterdir()) == [target]  # no .tmp left
        assert target.read_text().endswith("# EOF\n")


def telemetry_for(directory, **overrides):
    defaults = dict(journal=directory / "journal.jsonl")
    defaults.update(overrides)
    return SweepTelemetry(**defaults)


class TestSweepTelemetryConfig:
    def test_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            telemetry_for(tmp_path, policy="panic")

    def test_rejects_bad_intervals(self, tmp_path):
        with pytest.raises(ValueError):
            telemetry_for(tmp_path, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            telemetry_for(tmp_path, progress_ticks=0)
        with pytest.raises(ValueError):
            telemetry_for(tmp_path, max_retries=-1)


class TestJournaledSweepEndToEnd:
    def test_serial_sweep_journal_validates(self, tmp_path):
        telemetry = telemetry_for(tmp_path)
        result = run_sweep(2, jobs=1, telemetry=telemetry)
        assert result.journal == tmp_path / "journal.jsonl"
        assert validate_journal(result.journal) == []
        monitor = monitor_from_journal(result.journal)
        assert monitor.finished and monitor.aborted is None
        assert monitor.counts() == {COMPLETED: 2}
        for view in monitor.shards.values():
            assert view.wall_time is not None and view.total_items > 0

    def test_canonical_projection_stable_across_jobs(self, tmp_path):
        serial = run_sweep(3, jobs=1, telemetry=telemetry_for(tmp_path / "s"))
        pooled = run_sweep(3, jobs=2, telemetry=telemetry_for(tmp_path / "p"))
        assert validate_journal(pooled.journal) == []
        assert canonical_journal(read_journal(serial.journal)) == canonical_journal(
            read_journal(pooled.journal)
        )

    def test_telemetry_does_not_change_the_science(self, tmp_path):
        plain = run_sweep(2, jobs=1)
        journaled = run_sweep(2, jobs=1, telemetry=telemetry_for(tmp_path))
        plain_tables = json.dumps(
            [shard.statistics for shard in plain.shards], sort_keys=True
        )
        journaled_tables = json.dumps(
            [shard.statistics for shard in journaled.shards], sort_keys=True
        )
        assert plain_tables == journaled_tables

    def test_resume_narrates_reused_shards(self, tmp_path):
        telemetry = telemetry_for(tmp_path)
        run_sweep(2, jobs=1, telemetry=telemetry, checkpoint_dir=tmp_path / "cp")
        second = run_sweep(
            2, jobs=1, telemetry=telemetry, checkpoint_dir=tmp_path / "cp"
        )
        assert second.reused == 2
        events = read_journal(second.journal)
        assert sum(1 for e in events if e["event"] == SWEEP_STARTED) == 2
        assert validate_events(events) == []
        monitor = SweepMonitor().feed(events)
        assert monitor.counts() == {COMPLETED: 2}
        assert all(view.reused for view in monitor.shards.values())

    def test_openmetrics_textfile_refreshed(self, tmp_path):
        telemetry = telemetry_for(
            tmp_path, openmetrics_out=tmp_path / "sweep.prom"
        )
        run_sweep(2, jobs=1, telemetry=telemetry)
        text = (tmp_path / "sweep.prom").read_text()
        assert 'repro_sweep_shards{state="completed"} 2' in text
        assert "repro_sweep_finished 1" in text


#: Sentinel file path handed to the killer worker via the environment.
_KILL_FLAG = "REPRO_TEST_KILL_FLAG"


def _always_dying_run_shard(spec, with_metrics=False, telemetry=None):
    """Pool target that dies on every attempt (exhausts any budget)."""
    os._exit(1)


def _exiting_run_shard(spec, with_metrics=False, telemetry=None):
    """Pool target that dies hard once, then behaves (fork-safe)."""
    flag = os.environ[_KILL_FLAG]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)  # SIGKILL-like: no exception, no cleanup
    return run_shard(spec, with_metrics, telemetry=telemetry)


class TestWorkerDeathPolicies:
    @pytest.fixture
    def killer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_KILL_FLAG, str(tmp_path / "killed.flag"))
        monkeypatch.setattr(sweep_module, "run_shard", _exiting_run_shard)
        return tmp_path

    def test_requeue_policy_survives_worker_death(self, killer):
        telemetry = telemetry_for(killer, policy="requeue", max_retries=1)
        result = run_sweep(2, jobs=2, telemetry=telemetry)
        assert len(result.shards) == 2
        events = read_journal(result.journal)
        kinds = [event["event"] for event in events]
        assert SHARD_STALLED in kinds and SHARD_REQUEUED in kinds
        stalls = [e for e in events if e["event"] == SHARD_STALLED]
        assert any(e["wall"].get("cause") == "worker_exit" for e in stalls)
        assert validate_events(events) == []
        monitor = SweepMonitor().feed(events)
        assert monitor.finished and monitor.aborted is None
        # The requeued shard produced the same science as a clean run.
        clean = run_sweep(2, jobs=1)
        assert [s.statistics for s in result.shards] == [
            s.statistics for s in clean.shards
        ]

    def test_abort_policy_tears_down(self, killer):
        from concurrent.futures.process import BrokenProcessPool

        telemetry = telemetry_for(killer, policy="abort")
        with pytest.raises((SweepStalledError, BrokenProcessPool)):
            run_sweep(2, jobs=2, telemetry=telemetry)
        events = read_journal(killer / "journal.jsonl")
        aborted = [e for e in events if e["event"] == "sweep_aborted"]
        assert len(aborted) == 1

    def test_requeue_budget_exhaustion_aborts(self, killer, monkeypatch):
        monkeypatch.setattr(sweep_module, "run_shard", _always_dying_run_shard)
        telemetry = telemetry_for(killer, policy="requeue", max_retries=1)
        with pytest.raises(SweepStalledError, match="retry budget"):
            run_sweep(2, jobs=2, telemetry=telemetry)
        events = read_journal(killer / "journal.jsonl")
        assert any(e["event"] == "sweep_aborted" for e in events)


def _silent_run_shard(spec, with_metrics=False, telemetry=None):
    """Pool target whose first attempt starts, then goes silent for 5 s."""
    try:
        os.mkdir(os.environ[_KILL_FLAG])
    except FileExistsError:
        return run_shard(spec, with_metrics, telemetry=telemetry)
    with JournalWriter(telemetry.journal, telemetry.fingerprint) as writer:
        writer.emit(SHARD_STARTED, seed=spec.seed, index=telemetry.index)
    time.sleep(5.0)
    return run_shard(spec, with_metrics)


class TestStallPolicies:
    """Watchdog verdicts on a silent (alive but hung) pool worker."""

    @pytest.fixture
    def silent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_KILL_FLAG, str(tmp_path / "silenced"))
        monkeypatch.setattr(sweep_module, "run_shard", _silent_run_shard)
        return tmp_path

    def telemetry(self, directory, policy):
        return telemetry_for(
            directory, policy=policy, heartbeat_interval=0.1,
            heartbeat_deadline=1.0, poll_interval=0.05,
        )

    def test_requeue_finishes_without_the_silent_attempt(self, silent):
        result = run_sweep(2, jobs=2, telemetry=self.telemetry(silent, "requeue"))
        events = read_journal(result.journal)
        stalls = [e for e in events if e["event"] == SHARD_STALLED]
        assert len(stalls) == 1 and stalls[0]["wall"]["silent_for"] > 1.0
        assert [e["event"] for e in events].count(SHARD_REQUEUED) == 1
        assert validate_events(events) == []
        clean = run_sweep(2, jobs=1)
        assert result.render() == clean.render()

    def test_abort_raises_on_the_first_verdict(self, silent):
        with pytest.raises(SweepStalledError, match="silent for"):
            run_sweep(2, jobs=2, telemetry=self.telemetry(silent, "abort"))
        events = read_journal(silent / "journal.jsonl")
        assert [e["event"] for e in events].count("sweep_aborted") == 1


class TestCli:
    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-sweep")
        run_sweep(2, jobs=1, telemetry=telemetry_for(out))
        return out

    def test_top_one_shot(self, sweep_dir, capsys):
        from repro.cli import main

        assert main(["top", str(sweep_dir)]) == 0
        screen = capsys.readouterr().out
        assert "Sweep" in screen and "2/2 shards" in screen

    def test_report_check_passes(self, sweep_dir, capsys):
        from repro.cli import main

        assert main(["report", str(sweep_dir), "--check"]) == 0
        assert "journal OK" in capsys.readouterr().out

    def test_report_renders_post_mortem(self, sweep_dir, capsys):
        from repro.cli import main

        assert main(["report", str(sweep_dir)]) == 0
        assert "post-mortem" in capsys.readouterr().out

    def test_report_check_fails_on_corruption(self, sweep_dir, capsys):
        from repro.cli import main

        corrupt = sweep_dir / "corrupt.jsonl"
        corrupt.write_text(
            (sweep_dir / "journal.jsonl").read_text() + "garbage line\n"
        )
        assert main(["report", str(corrupt), "--check"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_report_check_without_target_errors(self, capsys):
        from repro.cli import main

        assert main(["report", "--check"]) == 2

    def test_sweep_cli_writes_and_validates_journal(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sw"
        code = main(
            ["sweep", "--seeds", "2", "--jobs", "1", "--hours", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert "Run journal" in capsys.readouterr().out
        assert validate_journal(out / "journal.jsonl") == []

    def test_sweep_cli_no_journal(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sw"
        code = main(
            ["sweep", "--seeds", "2", "--jobs", "1", "--hours", "1",
             "--out", str(out), "--no-journal"]
        )
        assert code == 0
        assert not (out / "journal.jsonl").exists()
