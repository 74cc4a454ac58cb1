"""Tests of the benchmark itself: its contract, its checks, its traced run.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
The workloads run here at their small warm-up size, so the file takes
seconds, not the minutes a measured run takes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import pipeline, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


def small(name: str) -> pipeline.Workload:
    """A workload shrunk to its warm-up size."""
    workload = pipeline.WORKLOADS[name]
    return dataclasses.replace(workload, params=workload.warmup)


def args_for(name: str, seed: int = 5) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=1)


# -- the contract -------------------------------------------------------------


def test_benchmark_json_names_the_workloads_and_unique_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(pipeline.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


def test_every_per_layer_metric_records_what_it_should_move():
    assert list(LAYERS["per_layer"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = set(pipeline.WORKLOADS)
    for name, entry in LAYERS["per_layer"].items():
        if entry.get("diagnostic"):
            assert entry["moves"] == [], name
            continue
        assert entry["moves"], name
        for move in entry["moves"]:
            assert move["metric"] in end_to_end, name
            assert move["workload"] in workloads, name


def test_fingerprints_are_committed_for_the_default_and_held_out_seeds():
    table = json.loads(pipeline.FINGERPRINTS.read_text(encoding="utf-8"))
    for name in pipeline.WORKLOADS:
        seeds = set(table[name])
        assert str(pipeline.DEFAULT_SEED) in seeds
        assert len(seeds) >= 2, name


# -- the output check -----------------------------------------------------------


@pytest.fixture
def work(tmp_path):
    yield tmp_path / "work"
    shutil.rmtree(tmp_path / "work", ignore_errors=True)


def outcome_of(workload: pipeline.Workload, work: Path, seed: int = 5):
    workload.setup(work, workload.params, seed)
    workload.reset(work, workload.params, seed)
    return workload.run(work, workload.params, seed)()


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_a_correct_repetition_passes_the_check(name, work):
    workload = small(name)
    outcome = outcome_of(workload, work)
    reference = {"fingerprint": outcome.fingerprint, "items": outcome.items}
    assert pipeline.check(workload, outcome, reference) == []
    assert outcome.items > 0


def test_a_tampered_fingerprint_counts_as_a_failed_operation(work):
    workload = small("bit-sweep")
    outcome = outcome_of(workload, work)
    ledger = run.Ledger(workload, 5)
    ledger.reference = {"fingerprint": "0" * 64, "items": outcome.items}
    ledger.record(outcome, None)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "fingerprint" in ledger.problems[0]


def test_wrong_counts_and_exceptions_count_as_failed_operations(work):
    workload = small("batch-grow")
    outcome = outcome_of(workload, work)
    ledger = run.Ledger(workload, 5)
    outcome.counts["cache_hits"] += 1
    ledger.record(outcome, None)
    ledger.record(None, "RuntimeError: boom")
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert any("cache_hits" in problem for problem in ledger.problems)


def test_the_fingerprint_covers_statistics_and_every_rendered_text():
    base = pipeline.fingerprint({"a": 1.0}, "table", "summary")
    assert base == pipeline.fingerprint({"a": 1.0}, "table", "summary")
    assert base != pipeline.fingerprint({"a": 2.0}, "table", "summary")
    assert base != pipeline.fingerprint({"a": 1.0}, "table", "summary!")


def test_the_output_check_runs_after_the_clock_and_outside_the_spans():
    from perfbench import trace

    outcome = pipeline.Outcome(fingerprint="0" * 64, items=1)

    def digest():
        with pipeline.outside_request("check"):
            with trace.span("inner"):
                time.sleep(0.2)
        return outcome

    spans = trace.Spans()
    with trace.installed(spans):
        seconds, result, error = pipeline.timed(lambda: digest)
    assert (result, error) == (outcome, None)
    assert seconds < 0.1
    assert spans.get("inner") == 0.0
    assert spans.get("check") >= 0.2


# -- the traced run -------------------------------------------------------------


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_traced_and_untraced_repetitions_produce_identical_output(name, work):
    workload = small(name)
    work.mkdir(parents=True)
    ledger = run.Ledger(workload, 5)
    metrics, _ = run.traced(args_for(name), workload, work, ledger)
    # The first (untraced) repetition set the reference; the span and
    # profiler repetitions had to reproduce it to the byte.
    assert ledger.attempted >= 3
    assert ledger.failed == 0, ledger.problems
    assert [entry["name"] for entry in BENCHMARK["per_layer"]] == list(metrics)
    for entry in BENCHMARK["per_layer"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["collection.items"]["value"] > 0


def test_trace_wrappers_are_removed_after_the_traced_repetition():
    from repro.parallel.cache import ShardCache
    from perfbench import trace

    original = ShardCache.get
    with trace.installed(trace.Spans()):
        assert ShardCache.get is not original
    assert ShardCache.get is original


# -- the command ------------------------------------------------------------------


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "bit-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
