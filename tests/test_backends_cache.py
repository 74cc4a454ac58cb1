"""Tests for sweep backends, the shard cache and stratified sampling.

Pins the PR's three new contracts on top of :mod:`repro.parallel`:

* **Backend invariance** — serial, process-pool and subprocess dispatch
  produce byte-identical merged tables (and the SSH selector parses).
* **Content-addressed reuse** — a repeated sweep simulates zero shards;
  corruption (truncation, bit flips) and staleness (any fingerprint
  change) are detected on read and re-simulated, never served; a
  partially-written file is never mistaken for a completed shard.
* **Stratified rare-event sampling** — boosted importance-sampled
  replicates carry unbiased reweighted estimates that agree with the
  plain estimator within 4 sigma, and ``target_ci`` grows the strata
  until the pooled intervals meet the requested width.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from repro.api import ExperimentConfig
from repro.core.campaign import CampaignSpec
from repro.obs.campaign import SweepMonitor
from repro.obs.journal import (
    CANONICAL_EVENTS,
    SHARD_CACHE_HIT,
    ShardTelemetry,
    SweepTelemetry,
    canonical_journal,
    read_journal,
    validate_journal,
)
from repro.parallel import (
    ProcessPoolBackend,
    SerialBackend,
    ShardCache,
    SubprocessBackend,
    SweepBackendError,
    SweepStalledError,
    pool_statistics,
    pool_stratified,
    resolve_backend,
    run_shard,
    shard_seeds,
    sweep_fingerprint,
)
from repro.collection.store import atomic_writer
from repro.parallel.backends import ShardPlan
from repro.parallel.cache import CACHE_VERSION, shard_key
from repro.parallel.seeds import shard_seed
from repro.parallel.worker import (
    TASK_VERSION,
    spec_from_payload,
    spec_to_payload,
)
import repro.parallel.sweep as sweep_module

HOURS = 3600.0

#: Short but non-trivial replicate: produces dozens of failures per seed.
SPEC = CampaignSpec(duration=1 * HOURS, seed=5)


def run_sweep(seeds, jobs=1, spec=None, **kwargs):
    config = ExperimentConfig.from_spec(spec) if spec is not None else ExperimentConfig()
    return config.sweep(seeds, jobs=jobs, **kwargs)


# ---------------------------------------------------------------------------
# Backend selection and invariance
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_named_backends(self):
        assert isinstance(resolve_backend(None), ProcessPoolBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("subprocess"), SubprocessBackend)

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_ssh_selector(self):
        backend = resolve_backend("ssh:alpha,beta")
        assert isinstance(backend, SubprocessBackend)
        assert backend.hosts == ("alpha", "beta")
        assert backend.name == "ssh:alpha,beta"
        argv, host = backend._argv(0)
        assert argv[0] == "ssh" and host == "alpha"
        argv, host = backend._argv(1)
        assert host == "beta"  # round-robin over the host list

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_backend("threads")
        with pytest.raises(ValueError):
            resolve_backend("ssh:")
        with pytest.raises(TypeError):
            resolve_backend(42)  # type: ignore[arg-type]

    def test_config_validates_backend_eagerly(self):
        with pytest.raises(ValueError):
            ExperimentConfig(backend="bogus")


class TestBackendInvariance:
    """The tentpole guarantee: where shards run never changes a byte."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(2, jobs=1, spec=SPEC, backend="serial")

    def test_serial_backend_is_recorded(self, serial):
        assert serial.backend == "serial"

    def test_process_pool_matches_serial(self, serial):
        pooled = run_sweep(2, jobs=2, spec=SPEC, backend="process")
        assert pooled.backend == "process"
        assert pooled.render() == serial.render()
        assert pooled.repository.to_payload() == serial.repository.to_payload()

    def test_subprocess_dispatch_matches_serial(self, serial):
        dispatched = run_sweep(2, jobs=2, spec=SPEC, backend="subprocess")
        assert dispatched.backend == "subprocess"
        assert dispatched.render() == serial.render()
        assert (
            dispatched.repository.to_payload() == serial.repository.to_payload()
        )


# ---------------------------------------------------------------------------
# Supervision: lost workers, fail-fast, teardown
# ---------------------------------------------------------------------------

_LAUNCH_LOG = "REPRO_TEST_LAUNCH_LOG"


def _raising_runner(spec, with_metrics=False, telemetry=None):
    """Pool target that records its launch, then fails its shard."""
    with open(os.environ[_LAUNCH_LOG], "a") as handle:
        handle.write(f"{spec.seed}\n")
    raise RuntimeError(f"shard seed={spec.seed} failed")


def worker_python(directory, prelude):
    """A stand-in ``python`` for SubprocessBackend: runs ``prelude`` (sh)
    and then execs the real interpreter with the worker's arguments."""
    script = directory / "python"
    script.write_text(
        f"#!/bin/sh\necho $$ >> '{directory}/launches'\n{prelude}\n"
        f"exec '{sys.executable}' \"$@\"\n"
    )
    script.chmod(0o755)
    return str(script)


def launches(directory):
    return len((directory / "launches").read_text().splitlines())


#: Kills its own worker with SIGKILL on the first attempt only.
KILL_FIRST = 'if mkdir "$(dirname "$0")/killed" 2>/dev/null; then kill -9 $$; fi'


class TestSubprocessSupervision:
    """Subprocess workers run under the same loop as the process pool."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(2, jobs=1, spec=SPEC, backend="serial")

    def test_lost_worker_is_requeued_into_identical_tables(self, tmp_path, serial):
        backend = SubprocessBackend(python=worker_python(tmp_path, KILL_FIRST))
        telemetry = SweepTelemetry(
            journal=tmp_path / "journal.jsonl", policy="requeue", max_retries=1
        )
        result = run_sweep(
            2, jobs=2, spec=SPEC, backend=backend, telemetry=telemetry
        )
        assert launches(tmp_path) == 3
        assert result.render() == serial.render()
        assert result.repository.to_payload() == serial.repository.to_payload()
        assert validate_journal(result.journal) == []
        events = read_journal(result.journal)
        stalls = [e for e in events if e["event"] == "shard_stalled"]
        assert [e["wall"]["cause"] for e in stalls] == ["worker_exit"]
        assert [e["event"] for e in events].count("shard_requeued") == 1

    def test_lost_worker_under_abort_raises_once(self, tmp_path):
        backend = SubprocessBackend(python=worker_python(tmp_path, KILL_FIRST))
        telemetry = SweepTelemetry(journal=tmp_path / "journal.jsonl", policy="abort")
        with pytest.raises(SweepStalledError, match="lost its worker"):
            run_sweep(2, jobs=2, spec=SPEC, backend=backend, telemetry=telemetry)
        events = read_journal(tmp_path / "journal.jsonl")
        assert [e["event"] for e in events].count("sweep_aborted") == 1

    def test_first_failure_stops_launching(self, tmp_path):
        backend = SubprocessBackend(python=worker_python(tmp_path, "exit 1"))
        with pytest.raises(SweepBackendError, match="exit status 1"):
            run_sweep(4, jobs=1, spec=SPEC, backend=backend)
        assert launches(tmp_path) == 1

    def test_failure_kills_the_running_workers(self, tmp_path):
        # The first worker to start sleeps; the other fails once the
        # sleeper's PID is on disk.
        prelude = f"""
if mkdir '{tmp_path}/sleeper' 2>/dev/null; then
  echo $$ > '{tmp_path}/pid.tmp' && mv '{tmp_path}/pid.tmp' '{tmp_path}/sleeper.pid'
  exec sleep 60
fi
while [ ! -e '{tmp_path}/sleeper.pid' ]; do sleep 0.05; done
exit 1"""
        backend = SubprocessBackend(python=worker_python(tmp_path, prelude))
        started = time.monotonic()
        with pytest.raises(SweepBackendError):
            run_sweep(2, jobs=2, spec=SPEC, backend=backend)
        assert time.monotonic() - started < 30.0  # the sleeper was not awaited
        pid = int((tmp_path / "sleeper.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_first_failure_stops_the_unjournaled_pool(self, tmp_path, monkeypatch):
        log_path = tmp_path / "launches"
        log_path.touch()
        monkeypatch.setenv(_LAUNCH_LOG, str(log_path))
        plan = ShardPlan(
            spec=SPEC,
            pending=tuple(range(8)),
            with_metrics=False,
            jobs=2,
            runner=_raising_runner,
            complete=lambda shard: None,
        )
        with pytest.raises(RuntimeError, match="failed"):
            ProcessPoolBackend().run(plan)
        assert launches(tmp_path) < 8

    def test_canonical_journal_matches_serial(self, tmp_path):
        journals = {}
        for backend in ("serial", "subprocess"):
            journals[backend] = tmp_path / f"{backend}.jsonl"
            run_sweep(
                2, jobs=2, spec=SPEC, backend=backend,
                telemetry=SweepTelemetry(journal=journals[backend]),
            )
        dispatched = read_journal(journals["subprocess"])
        assert validate_journal(journals["subprocess"]) == []
        # The remote worker runs unobserved, so it sends no sim-time
        # progress ticks; every other canonical event is identical.
        assert canonical_journal(dispatched) == canonical_journal(
            e for e in read_journal(journals["serial"])
            if e["event"] != "shard_progress"
        )

    def test_completed_shards_carry_worker_throughput_and_rss(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_sweep(
            2, jobs=2, spec=SPEC, backend="subprocess",
            telemetry=SweepTelemetry(journal=journal),
        )
        completed = [e for e in read_journal(journal) if e["event"] == "shard_completed"]
        assert len(completed) == 2
        for event in completed:
            assert event["wall"]["events_per_sec"] > 0
            assert event["wall"]["rss_peak_kb"] > 0
        views = SweepMonitor().feed(read_journal(journal)).shards.values()
        assert all(view.events_per_sec and view.rss_peak_kb for view in views)

    def test_event_count_ignores_telemetry(self, tmp_path):
        spec = SPEC.with_seed(7)
        observed = run_shard(
            spec,
            telemetry=ShardTelemetry(
                journal=str(tmp_path / "journal.jsonl"),
                fingerprint="fp",
                index=0,
                heartbeat_interval=60.0,
                progress_interval=spec.duration / 20,
            ),
        )
        assert observed.events == run_shard(spec).events > 0


# ---------------------------------------------------------------------------
# The worker wire format
# ---------------------------------------------------------------------------


class TestWorker:
    def test_spec_payload_roundtrip(self):
        spec = CampaignSpec(
            duration=2 * HOURS,
            seed=9,
            workloads=("random",),
            hardware_replacement=False,
            fidelity="batch",
            rare_boost=4.0,
        )
        clone = spec_from_payload(json.loads(json.dumps(spec_to_payload(spec))))
        assert clone == spec

    def test_unknown_profile_raises(self):
        payload = spec_to_payload(SPEC)
        payload["profiles"] = ["no-such-profile"]
        with pytest.raises(KeyError):
            spec_from_payload(payload)

    def _run_worker(self, stdin: str) -> subprocess.CompletedProcess:
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root
        return subprocess.run(
            [sys.executable, "-m", "repro.parallel.worker"],
            input=stdin,
            capture_output=True,
            text=True,
            env=env,
        )

    def test_worker_runs_a_task(self):
        spec = SPEC.with_seed(31)
        task = json.dumps(
            {
                "version": TASK_VERSION,
                "spec": spec_to_payload(spec),
                "with_metrics": False,
            }
        )
        proc = self._run_worker(task)
        assert proc.returncode == 0, proc.stderr
        reply = json.loads(proc.stdout)
        assert reply["version"] == TASK_VERSION
        # The reply is the shard run_shard() would produce in-process —
        # identical except for wall-clock timing, which is not data.
        remote, local = reply["shard"], run_shard(spec).to_payload()
        remote.pop("wall_time"), local.pop("wall_time")
        assert remote == local

    def test_worker_rejects_version_skew(self):
        proc = self._run_worker(json.dumps({"version": 999, "spec": {}}))
        assert proc.returncode == 2

    def test_worker_rejects_garbage(self):
        proc = self._run_worker("{not json")
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# The content-addressed shard cache
# ---------------------------------------------------------------------------


class TestShardCache:
    FINGERPRINT = sweep_fingerprint(SPEC, False)

    @pytest.fixture(scope="class")
    def shard(self):
        return run_shard(SPEC.with_seed(shard_seed(SPEC.seed, 0)))

    def test_roundtrip_is_byte_identical(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        cache.put(self.FINGERPRINT, shard.seed, shard)
        assert cache.has(self.FINGERPRINT, shard.seed)
        loaded = cache.get(self.FINGERPRINT, shard.seed)
        assert loaded is not None
        assert loaded.to_payload() == shard.to_payload()

    def test_miss_on_unknown_identity(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        cache.put(self.FINGERPRINT, shard.seed, shard)
        assert cache.get(self.FINGERPRINT, shard.seed + 1) is None
        assert cache.get("f" * 64, shard.seed) is None

    def test_truncated_entry_evicted(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        path = cache.put(self.FINGERPRINT, shard.seed, shard)
        path.write_text(path.read_text(encoding="utf-8")[:100], encoding="utf-8")
        assert cache.get(self.FINGERPRINT, shard.seed) is None
        assert not path.exists()  # evicted on detection

    def test_bit_flipped_entry_evicted(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        path = cache.put(self.FINGERPRINT, shard.seed, shard)
        raw = bytearray(path.read_bytes())
        # Flip one bit inside the payload body, past the entry header —
        # the JSON still parses but the digest no longer matches.
        target = raw.rfind(b'"statistics"')
        assert target > 0
        raw[target + 20] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cache.get(self.FINGERPRINT, shard.seed) is None
        assert not path.exists()

    def test_stats_and_prune(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        for seed in (shard.seed, shard.seed + 1):
            cache.put(self.FINGERPRINT, seed, shard)
        stats = cache.stats()
        assert stats.entries == 2 and stats.total_bytes > 0
        report = cache.prune(stats.total_bytes - 1)
        assert report["dropped"] == 1
        assert cache.stats().entries == 1
        assert cache.prune(0)["kept_bytes"] == 0
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_no_temp_files_survive_a_put(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        cache.put(self.FINGERPRINT, shard.seed, shard)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_key_covers_layout_fingerprint_and_seed(self):
        assert shard_key("a" * 64, 1) != shard_key("a" * 64, 2)
        assert shard_key("a" * 64, 1) != shard_key("b" * 64, 1)

    def test_atomic_write_publishes_complete_documents(self, tmp_path):
        target = tmp_path / "doc.json"

        def publish(document):
            with atomic_writer(target) as handle:
                handle.write(json.dumps(document, separators=(",", ":")))

        publish({"v": 1})
        publish({"v": 2})
        assert json.loads(target.read_text(encoding="utf-8")) == {"v": 2}
        assert not list(tmp_path.glob(".*tmp"))
        document = {"v": 3, "shard": {"x": [1.5, None, "é"], "n": {}}}
        publish(document)
        assert target.read_bytes() == json.dumps(
            document, separators=(",", ":")
        ).encode("utf-8")

    # -- the v2 entry layout: header line + payload line ----------------------

    def test_entry_is_a_header_line_and_a_payload_line(self, tmp_path, shard):
        path = ShardCache(tmp_path).put(self.FINGERPRINT, shard.seed, shard)
        head, payload, tail = path.read_bytes().split(b"\n")
        assert tail == b""
        assert json.loads(head) == {
            "version": CACHE_VERSION,
            "fingerprint": self.FINGERPRINT,
            "seed": shard.seed,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        assert payload == json.dumps(
            shard.to_payload(), separators=(",", ":")
        ).encode("utf-8")

    def _rewrite_header(self, path, **changes):
        head, payload, tail = path.read_bytes().split(b"\n")
        header = dict(json.loads(head), **changes)
        path.write_bytes(
            json.dumps(header, separators=(",", ":")).encode("utf-8")
            + b"\n" + payload + b"\n" + tail
        )

    def test_changed_digest_evicted(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        path = cache.put(self.FINGERPRINT, shard.seed, shard)
        self._rewrite_header(path, sha256="0" * 64)
        assert cache.get(self.FINGERPRINT, shard.seed) is None
        assert not path.exists()

    def test_missing_newline_evicted(self, tmp_path, shard):
        cache = ShardCache(tmp_path)
        path = cache.put(self.FINGERPRINT, shard.seed, shard)
        path.write_bytes(path.read_bytes().replace(b"\n", b"", 1))
        assert cache.get(self.FINGERPRINT, shard.seed) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "changes",
        [{"fingerprint": "f" * 64}, {"seed": -1}, {"version": 1}],
        ids=["fingerprint", "seed", "version"],
    )
    def test_header_identity_mismatch_evicted(self, tmp_path, shard, changes):
        cache = ShardCache(tmp_path)
        path = cache.put(self.FINGERPRINT, shard.seed, shard)
        self._rewrite_header(path, **changes)
        assert cache.get(self.FINGERPRINT, shard.seed) is None
        assert not path.exists()


def dict_shaped(payload: dict, version: int) -> dict:
    """``payload`` in the shard layout of ``PAYLOAD_VERSION`` 3: one dict
    per record instead of one row."""
    from repro.collection.store import _system_record, _test_record

    repository = payload["repository"]
    return dict(
        payload,
        version=version,
        repository={
            "test": [_test_record(row).to_dict() for row in repository["test"]],
            "system": [_system_record(row).to_dict() for row in repository["system"]],
        },
    )


class TestStaleLayout:
    """A shard store written in the dict-per-record layout is never
    half-parsed: each entry is evicted and recomputed once, and the
    outputs equal a cold run's."""

    SWEEP = ["sweep", "--hours", "1", "--seeds", "2", "--seed", "77", "--jobs", "1"]

    def outputs(self, out, capsys):
        from repro.cli import main

        store = out / "failures.store"
        assert main([*self.SWEEP, "--out", str(out), "--store", str(store)]) == 0
        (reused,) = [line for line in capsys.readouterr().out.splitlines() if " reused, " in line]
        assert main(["query", str(store), "--tables"]) == 0
        return (out / "sweep.txt").read_text(encoding="utf-8"), capsys.readouterr().out, reused

    @pytest.mark.parametrize(
        ("header_version", "payload_version"),
        [(2, 3), (CACHE_VERSION, 3), (CACHE_VERSION, None)],
        ids=["v2-entry", "v3-payload", "dict-rows-current-stamp"],
    )
    def test_dict_shaped_checkpoint_is_recomputed(
        self, tmp_path, capsys, header_version, payload_version
    ):
        cold = self.outputs(tmp_path / "cold", capsys)
        stale = tmp_path / "stale"
        self.outputs(stale, capsys)
        entries = sorted((stale / "shards").rglob("*.json"))
        assert len(entries) == 2
        for entry in entries:
            header_line, payload_line, _ = entry.read_bytes().split(b"\n")
            payload = json.loads(payload_line)
            body = json.dumps(
                dict_shaped(payload, payload_version or payload["version"]),
                separators=(",", ":"),
            ).encode("utf-8")
            header = dict(
                json.loads(header_line),
                version=header_version,
                sha256=hashlib.sha256(body).hexdigest(),
            )
            entry.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body + b"\n")
        sweep_txt, tables, reused = self.outputs(stale, capsys)
        assert "(0 reused" in reused
        assert (sweep_txt, tables) == cold[:2]
        # The recomputed entries replaced the stale ones and serve again.
        assert "(2 reused" in self.outputs(stale, capsys)[2]


class TestCacheInSweeps:
    def test_repeat_sweep_simulates_nothing(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        first = run_sweep(2, spec=SPEC, backend="serial", cache_dir=cache)
        monkeypatch.setattr(
            sweep_module, "run_shard",
            lambda *a, **k: pytest.fail("cached sweep re-simulated a shard"),
        )
        second = run_sweep(2, spec=SPEC, backend="serial", cache_dir=cache)
        assert second.cached == 2 and second.reused == 0
        assert second.render() == first.render()

    def test_overlapping_sweep_reuses_the_prefix(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(2, spec=SPEC, backend="serial", cache_dir=cache)
        grown = run_sweep(4, spec=SPEC, backend="serial", cache_dir=cache)
        # Prefix-stable seed derivation: 2 of the 4 come from the cache.
        assert grown.cached == 2

    def test_fingerprint_change_never_hits_old_entries(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(2, spec=SPEC, backend="serial", cache_dir=cache)
        other = CampaignSpec(duration=SPEC.duration / 2, seed=SPEC.seed)
        result = run_sweep(2, spec=other, backend="serial", cache_dir=cache)
        assert result.cached == 0

    def test_corrupt_entry_is_resimulated(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_sweep(1, spec=SPEC, backend="serial", cache_dir=cache_dir)
        entry = next(cache_dir.rglob("*.json"))
        entry.write_text("{truncated", encoding="utf-8")
        second = run_sweep(1, spec=SPEC, backend="serial", cache_dir=cache_dir)
        assert second.cached == 0
        assert second.render() == first.render()
        # ... and the rewritten entry validates again.
        fingerprint = sweep_fingerprint(SPEC, False)
        assert ShardCache(cache_dir).get(
            fingerprint, first.shards[0].seed
        ) is not None

    def test_orphaned_temp_is_never_served(self, tmp_path):
        """A killed writer leaves only a temp file, which no reader globs."""
        checkpoint = tmp_path / "shards"
        checkpoint.mkdir()
        (checkpoint / ".shard-123.json.9999.tmp").write_text(
            "{half-written", encoding="utf-8"
        )
        cache_dir = tmp_path / "cache"
        objects = cache_dir / "objects" / "ab"
        objects.mkdir(parents=True)
        (objects / ".abcd.json.9999.tmp").write_text("{torn", encoding="utf-8")
        result = run_sweep(
            1, spec=SPEC, backend="serial",
            checkpoint_dir=checkpoint, cache_dir=cache_dir,
        )
        assert result.reused == 0 and result.cached == 0
        assert ShardCache(cache_dir).stats().entries == 1


# ---------------------------------------------------------------------------
# Rare-event importance sampling and the stratified pool
# ---------------------------------------------------------------------------


class TestRareEventSampling:
    @pytest.fixture(scope="class")
    def boosted_sweep(self):
        return run_sweep(4, spec=SPEC, backend="serial", rare_boost=8.0)

    def test_boosted_stratum_rides_along(self, boosted_sweep):
        assert len(boosted_sweep.boosted_shards) == 4  # defaults to nominal size
        assert boosted_sweep.boost == 8.0
        # Boosted seeds live in their own stratum, disjoint from nominal.
        boost_seeds = {shard.seed for shard in boosted_sweep.boosted_shards}
        assert boost_seeds == set(shard_seeds(SPEC.seed, 4, stratum=1))
        assert not boost_seeds & set(boosted_sweep.seeds)

    def test_estimates_are_a_subset_of_the_schema(self, boosted_sweep):
        schema = set(boosted_sweep.shards[0].statistics)
        for shard in boosted_sweep.boosted_shards:
            assert shard.boost == 8.0
            assert shard.estimates
            assert set(shard.estimates) <= schema
            # Path-dependent keys are deliberately not estimable.
            assert "mttf_s" not in shard.estimates

    def test_estimator_agrees_with_plain_within_4_sigma(self, boosted_sweep):
        """Acceptance gate: reweighting is unbiased, not just plausible."""
        for key in ("unmasked_user_failures", "failures_per_day"):
            nominal = pool_statistics(
                [shard.statistics for shard in boosted_sweep.shards]
            )[key]
            estimates = [
                shard.estimates[key] for shard in boosted_sweep.boosted_shards
            ]
            est_mean = sum(estimates) / len(estimates)
            sigma = max(nominal.std, 1e-9)
            assert abs(est_mean - nominal.mean) <= 4 * sigma, (
                f"{key}: boosted estimate {est_mean} vs nominal "
                f"{nominal.mean} ± {sigma}"
            )

    def test_pooled_uses_both_strata_for_estimable_keys(self, boosted_sweep):
        pooled = boosted_sweep.pooled()
        assert pooled["unmasked_user_failures"].n == 8
        assert pooled["mttf_s"].n == 4  # nominal stratum only

    def test_render_names_the_boosted_stratum(self, boosted_sweep):
        text = boosted_sweep.render()
        assert "Boosted stratum: 4 seeds x rare-event boost 8" in text

    def test_plain_sweep_render_is_unchanged(self):
        plain = run_sweep(2, spec=SPEC, backend="serial")
        assert "Boosted stratum" not in plain.render()

    def test_nominal_spec_must_stay_nominal(self):
        # The api facade cannot even express a boosted spec; the
        # executor guards the direct path.
        with pytest.raises(ValueError):
            sweep_module._execute_sweep(2, spec=SPEC.with_boost(4.0))

    def test_boost_argument_validation(self):
        with pytest.raises(ValueError):
            run_sweep(2, spec=SPEC, rare_boost=0.5)
        with pytest.raises(ValueError):
            run_sweep(2, spec=SPEC, boost_seeds=-1)
        with pytest.raises(ValueError):
            run_sweep(2, spec=SPEC, boost_seeds=2)  # needs rare_boost > 1


class TestStratifiedPool:
    NOMINAL = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 14.0}]

    def test_no_boosted_is_plain_pooling(self):
        assert pool_stratified(self.NOMINAL, []) == pool_statistics(self.NOMINAL)

    def test_estimable_keys_pool_across_strata(self):
        pooled = pool_stratified(self.NOMINAL, [{"a": 2.0}, {"a": 2.0}])
        assert pooled["a"].n == 4
        assert pooled["a"].mean == pytest.approx(2.0)
        assert pooled["b"].n == 2  # not estimable: nominal only

    def test_schema_violations_raise(self):
        with pytest.raises(ValueError):
            pool_stratified(self.NOMINAL, [{"a": 2.0}, {"z": 2.0}])
        with pytest.raises(ValueError):
            pool_stratified(self.NOMINAL, [{"zz": 2.0}])


class TestTargetCi:
    def test_loose_target_converges_immediately(self, tmp_path):
        result = run_sweep(
            2, spec=SPEC, backend="serial",
            checkpoint_dir=tmp_path, target_ci=1000.0,
        )
        assert result.converged is True
        assert result.target_ci == 1000.0
        assert len(result.shards) == 2

    def test_impossible_target_stops_at_the_cap(self, tmp_path):
        result = run_sweep(
            2, spec=SPEC, backend="serial",
            checkpoint_dir=tmp_path, target_ci=1e-12, max_seeds=4,
        )
        assert result.converged is False
        assert len(result.shards) == 4
        # Growth is prefix-stable: the doubling pass reused the first 2.
        assert result.reused == 2

    def test_single_seed_floor_is_two(self, tmp_path):
        result = run_sweep(
            1, spec=SPEC, backend="serial",
            checkpoint_dir=tmp_path, target_ci=1000.0,
        )
        assert len(result.shards) == 2  # one replicate has no interval

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_sweep([3, 4], spec=SPEC, target_ci=0.1)  # needs a count
        with pytest.raises(ValueError):
            run_sweep(2, spec=SPEC, target_ci=0.0)
        with pytest.raises(ValueError):
            run_sweep(4, spec=SPEC, target_ci=0.1, max_seeds=2)


# ---------------------------------------------------------------------------
# Journal and monitor integration
# ---------------------------------------------------------------------------


class TestCacheTelemetry:
    def _telemetry(self, path):
        return SweepTelemetry(journal=path)

    def test_cache_hits_are_journaled_but_not_canonical(self, tmp_path):
        cache = tmp_path / "cache"
        fresh_journal = tmp_path / "fresh.jsonl"
        run_sweep(
            2, spec=SPEC, backend="serial", cache_dir=cache,
            telemetry=self._telemetry(fresh_journal),
        )
        cached_journal = tmp_path / "cached.jsonl"
        result = run_sweep(
            2, spec=SPEC, backend="serial", cache_dir=cache,
            telemetry=self._telemetry(cached_journal),
        )
        assert result.cached == 2
        assert validate_journal(cached_journal) == []
        cached_events = read_journal(cached_journal)
        hits = [e for e in cached_events if e["event"] == SHARD_CACHE_HIT]
        assert len(hits) == 2
        assert all({"seed", "index"} <= set(e) for e in hits)
        # A fully-cached sweep's canonical lifecycle is identical to a
        # fresh one's: cache hits are machinery, not science.  (Only
        # in-flight shard_progress ticks are execution-specific.)
        assert SHARD_CACHE_HIT not in CANONICAL_EVENTS

        def lifecycle(events):
            return canonical_journal(
                e for e in events if e["event"] != "shard_progress"
            )

        assert lifecycle(cached_events) == lifecycle(
            read_journal(fresh_journal)
        )

    def test_monitor_flags_cached_shards(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(1, spec=SPEC, backend="serial", cache_dir=cache)
        journal = tmp_path / "journal.jsonl"
        run_sweep(
            1, spec=SPEC, backend="serial", cache_dir=cache,
            telemetry=self._telemetry(journal),
        )
        monitor = SweepMonitor().feed(read_journal(journal))
        views = list(monitor.shards.values())
        assert len(views) == 1
        assert views[0].cached is True
        assert monitor.progress() == pytest.approx(1.0)

    def test_backend_name_stays_out_of_canonical_events(self, tmp_path):
        serial_journal = tmp_path / "serial.jsonl"
        run_sweep(
            2, spec=SPEC, backend="serial",
            telemetry=self._telemetry(serial_journal),
        )
        pool_journal = tmp_path / "process.jsonl"
        run_sweep(
            2, jobs=2, spec=SPEC, backend="process",
            telemetry=self._telemetry(pool_journal),
        )
        assert canonical_journal(read_journal(serial_journal)) == canonical_journal(
            read_journal(pool_journal)
        )


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCacheCli:
    def test_sweep_cache_flow(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        argv = [
            "sweep", "--hours", "1", "--seeds", "2", "--seed", "3",
            "--backend", "serial", "--cache-dir", str(cache),
        ]
        assert main(argv + ["--out", str(tmp_path / "run1")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "run2")]) == 0
        assert "2 from cache" in capsys.readouterr().out
        assert (tmp_path / "run1" / "sweep.txt").read_bytes() == (
            tmp_path / "run2" / "sweep.txt"
        ).read_bytes()

    def test_cache_info_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        shard = run_shard(SPEC)
        ShardCache(cache).put(sweep_fingerprint(SPEC, False), shard.seed, shard)
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert main([
            "cache", "prune", "--cache-dir", str(cache), "--max-bytes", "0",
        ]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out
        assert ShardCache(cache).stats().entries == 0

    def test_cache_needs_a_directory(self, monkeypatch):
        from repro.cli import main
        from repro.parallel.cache import CACHE_ENV

        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert main(["cache", "info"]) == 2

    def test_sweep_rejects_bad_flags(self, tmp_path):
        from repro.cli import main

        out = ["--out", str(tmp_path)]
        assert main(["sweep", "--backend", "bogus"] + out) == 2
        assert main(["sweep", "--rare-boost", "0.5"] + out) == 2
        assert main(["sweep", "--boost-seeds", "2"] + out) == 2
        assert main(["sweep", "--target-ci", "0"] + out) == 2
        assert main(["sweep", "--target-ci", "0.1", "--seeds", "8",
                     "--max-seeds", "4"] + out) == 2
