"""Tests for the parallel sweep subsystem (:mod:`repro.parallel`).

The subsystem's three contracts are pinned here: deterministic sharding
(same merged tables at any ``jobs`` and for any seed ordering),
cross-process metric merging (merged counters equal the single-process
run's), and checkpoint resume (completed shards are reused, stale or
missing ones recomputed).
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.summary import campaign_statistics
from repro.api import ExperimentConfig
from repro.parallel import (
    ShardCache,
    ShardResult,
    pool_statistics,
    pool_values,
    resolve_seeds,
    run_shard,
    shard_seed,
    shard_seeds,
    sweep_fingerprint,
    t_critical_95,
)
import repro.parallel.sweep as sweep_module


def run_sweep(seeds, jobs=1, spec=None, **kwargs):
    """Sweep through the repro.api facade (warning-free test shim)."""
    config = ExperimentConfig.from_spec(spec) if spec is not None else ExperimentConfig()
    return config.sweep(seeds, jobs=jobs, **kwargs)

HOURS = 3600.0

#: Short but non-trivial replicate: produces dozens of failures per seed.
SPEC = CampaignSpec(duration=1 * HOURS, seed=5)


@pytest.fixture(scope="module")
def serial_sweep():
    """One jobs=1 sweep shared by the determinism assertions."""
    return run_sweep(3, jobs=1, spec=SPEC)


class TestSeedDerivation:
    def test_deterministic(self):
        assert shard_seeds(77, 4) == shard_seeds(77, 4)

    def test_prefix_stable(self):
        # Growing a sweep keeps the already-computed shards valid.
        assert shard_seeds(77, 2) == shard_seeds(77, 4)[:2]

    def test_distinct_across_index_and_root(self):
        seeds = shard_seeds(77, 16)
        assert len(set(seeds)) == 16
        assert shard_seed(77, 0) != shard_seed(78, 0)

    def test_resolve_count_vs_explicit(self):
        assert resolve_seeds(3, 7) == shard_seeds(7, 3)
        assert resolve_seeds([5, 9], 7) == (5, 9)

    def test_resolve_rejects_bad_input(self):
        with pytest.raises(ValueError):
            resolve_seeds(0, 7)
        with pytest.raises(ValueError):
            resolve_seeds([], 7)
        with pytest.raises(ValueError):
            resolve_seeds([4, 4], 7)


class TestPooling:
    def test_single_value(self):
        stat = pool_values([3.5])
        assert stat.mean == 3.5
        assert stat.ci95 == 0.0
        assert stat.n == 1

    def test_mean_and_ci(self):
        stat = pool_values([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        # s = 1.0, t(df=2) = 4.303 -> halfwidth 4.303/sqrt(3)
        assert stat.ci95 == pytest.approx(4.303 / 3 ** 0.5, rel=1e-6)
        assert (stat.minimum, stat.maximum) == (1.0, 3.0)

    def test_order_invariant_to_the_bit(self):
        values = [0.1, 0.2, 0.3, 1e15, -1e15, 0.4]
        forward = pool_values(values)
        backward = pool_values(list(reversed(values)))
        assert forward == backward

    def test_t_table(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(200) == pytest.approx(1.960)

    def test_missing_key_raises(self):
        with pytest.raises(ValueError):
            pool_statistics([{"a": 1.0}, {}])


class TestShardResult:
    def test_payload_roundtrip(self):
        shard = run_shard(SPEC)
        clone = ShardResult.from_payload(
            json.loads(json.dumps(shard.to_payload()))
        )
        assert clone.seed == shard.seed
        assert clone.statistics == shard.statistics
        assert clone.repository_payload == shard.repository_payload
        assert clone.cycle_stats == shard.cycle_stats

    def test_statistics_schema_is_stable(self):
        shard = run_shard(SPEC)
        stats = campaign_statistics(
            shard.repository(), shard.node_nap_pairs, SPEC.duration
        )
        assert stats == shard.statistics
        # Every key present even for empty categories: shards always agree.
        assert "failure_share_pct.DATA_MISMATCH" in stats
        assert "workload_split_pct.realistic" in stats


class TestSweepDeterminism:
    def test_jobs_invariance(self, serial_sweep):
        pooled = run_sweep(3, jobs=2, spec=SPEC)
        assert pooled.render() == serial_sweep.render()
        assert (
            pooled.repository.to_payload()
            == serial_sweep.repository.to_payload()
        )

    def test_seed_order_invariance(self, serial_sweep):
        shuffled = run_sweep(
            list(reversed(serial_sweep.seeds)), jobs=1, spec=SPEC
        )
        assert shuffled.render() == serial_sweep.render()
        assert shuffled.pooled() == serial_sweep.pooled()

    def test_merged_repository_is_union(self, serial_sweep):
        assert serial_sweep.repository.total_items == sum(
            shard.total_items for shard in serial_sweep.shards
        )

    def test_merged_cycle_stats_sum(self, serial_sweep):
        merged = serial_sweep.merged_cycle_stats()
        for testbed in ("random", "realistic"):
            assert merged[testbed]["cycles"] == sum(
                shard.cycle_stats[testbed]["cycles"]
                for shard in serial_sweep.shards
            )

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(2, jobs=0, spec=SPEC)


class TestMetricsMerge:
    """Satellite: merged cross-process counters == single-process ones."""

    def test_pool_equals_serial(self):
        serial = run_sweep(2, jobs=1, spec=SPEC, with_metrics=True)
        pooled = run_sweep(2, jobs=2, spec=SPEC, with_metrics=True)
        assert serial.metrics.snapshot() == pooled.metrics.snapshot()

    def test_merged_counters_are_sums(self):
        result = run_sweep(2, jobs=2, spec=SPEC, with_metrics=True)
        merged = result.metrics.snapshot()
        assert merged, "instrumented sweep produced no metrics"
        for name, entry in merged.items():
            if entry["kind"] != "counter":
                continue
            per_shard = [dict(
                (tuple(key), value)
                for key, value in shard.metrics.get(name, {"series": []})["series"]
            ) for shard in result.shards]
            for key, value in entry["series"]:
                expected = sum(s.get(tuple(key), 0.0) for s in per_shard)
                assert value == pytest.approx(expected)

    def test_unmetered_shards_carry_no_metrics(self):
        result = run_sweep(1, jobs=1, spec=SPEC)
        assert result.shards[0].metrics == {}
        assert result.metrics.families() == []


class TestCheckpoint:
    def test_full_resume_skips_all_work(self, tmp_path, monkeypatch):
        first = run_sweep(2, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        monkeypatch.setattr(
            sweep_module, "run_shard",
            lambda *a, **k: pytest.fail("resume recomputed a finished shard"),
        )
        second = run_sweep(2, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        assert second.reused == 2
        assert second.render() == first.render()

    def test_partial_resume_recomputes_only_missing(self, tmp_path, monkeypatch):
        first = run_sweep(3, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        victim = sorted(tmp_path.glob("objects/*/*.json"))[1]
        victim.unlink()
        calls = []
        original = sweep_module.run_shard

        def counting(spec, with_metrics=False, telemetry=None):
            calls.append(spec.seed)
            return original(spec, with_metrics, telemetry)

        monkeypatch.setattr(sweep_module, "run_shard", counting)
        second = run_sweep(3, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        assert len(calls) == 1
        assert second.reused == 2
        assert second.render() == first.render()

    def test_spec_change_invalidates_shards(self, tmp_path):
        run_sweep(2, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        other_spec = CampaignSpec(duration=SPEC.duration / 2, seed=SPEC.seed)
        result = run_sweep(
            2, jobs=1, spec=other_spec, checkpoint_dir=tmp_path
        )
        assert result.reused == 0

    def test_fingerprint_covers_metrics_flag(self):
        assert sweep_fingerprint(SPEC, False) != sweep_fingerprint(SPEC, True)
        assert sweep_fingerprint(SPEC, False) == sweep_fingerprint(SPEC, False)

    def test_corrupt_shard_file_recomputed(self, tmp_path):
        run_sweep(1, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        shard_file = next(tmp_path.glob("objects/*/*.json"))
        shard_file.write_text("{not json", encoding="utf-8")
        result = run_sweep(1, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        assert result.reused == 0
        store = ShardCache(tmp_path)
        assert store.get(
            sweep_fingerprint(SPEC, False), result.shards[0].seed
        ) is not None

    def test_tampered_entry_is_never_served(self, tmp_path):
        """A statistic edited inside a stored shard, JSON left valid."""
        first = run_sweep(1, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        entry = next(
            path for path in tmp_path.rglob("*.json")
            if '"statistics"' in path.read_text(encoding="utf-8")
        )
        header, payload, end = entry.read_text(encoding="utf-8").split("\n")
        document = json.loads(payload)
        document["statistics"]["availability"] /= 2
        entry.write_text(
            "\n".join([header, json.dumps(document), end]), encoding="utf-8"
        )
        second = run_sweep(1, jobs=1, spec=SPEC, checkpoint_dir=tmp_path)
        assert second.reused == 0
        assert second.render() == first.render()


class TestSweepCli:
    def test_sweep_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--hours", "1", "--seeds", "2", "--jobs", "1",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "sweep.txt").exists()
        assert (out / "repository" / "test_records.jsonl").exists()
        assert ShardCache(out / "shards").stats().entries == 2
        captured = capsys.readouterr().out
        assert "Campaign sweep: 2 seeds" in captured

    def test_sweep_rejects_bad_counts(self, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--seeds", "0", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--jobs", "0", "--out", str(tmp_path)]) == 2


class TestFullScaleTool:
    def test_argv_validation(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
        try:
            from full_scale_campaign import parse_args
        finally:
            sys.path.pop(0)
        with pytest.raises(SystemExit):
            parse_args(["not-a-number"])
        with pytest.raises(SystemExit):
            parse_args(["--", "-1"])
        with pytest.raises(SystemExit):
            parse_args(["18", "2004", "out", "--seeds", "0"])
        args = parse_args(["6", "11", "somewhere", "--seeds", "2", "--jobs", "2"])
        assert (args.months, args.seed, args.seeds, args.jobs) == (6.0, 11, 2, 2)
