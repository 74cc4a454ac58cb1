"""Per-process footprint guards for the two fidelities.

* **Bit fidelity loads no numpy.**  The event-level engine never calls
  numpy; only ``fidelity="batch"`` and the CTMC solver
  (:func:`repro.core.markov.build_ctmc`) import it, lazily.  A bit
  sweep, its store query and its journal check must run in an
  interpreter where ``import numpy`` fails, and ``import repro.api``
  must leave numpy unloaded (~12 MB of RSS per process).
* **The bit path loads no sqlite3.**  Only :class:`SQLiteStore` needs
  it, and imports it when a store is opened: a bit sweep into the JSONL
  repository, its ``analyze`` and its journal check run where
  ``import sqlite3`` fails (~1.4 MB of RSS per process).
* **What has been shipped is not held.**  The LogAnalyzer rotates a
  node's logs at every collection round, so after a campaign each log
  holds nothing and its cursor counts every record appended.  A 1 d
  bit run at seed 3 leaves ~1.2 MB of traced allocations alive (the
  repository's rows and the testbeds), against ~2.6 MB when the logs
  kept every record; the bound sits between the two.
* **A summarised replicate dies by reference counting.**  ``run_shard``
  releases the campaign once it is summarised, so with the cyclic
  collector off not one object is left for it to find (~2,100 were,
  for a 1 h replicate, before the engine broke its cycles).
* **Batch campaign working set.**  Each PANU's pre-drawn cycle chunk
  (~30 listified 2,048-cycle columns plus the span prefix lists) and
  its failure-draw buffers live only while that PANU runs, not until
  its whole testbed is collected.  One 12 h batch campaign peaked at
  ~12-13 MB of traced allocations while all six PANUs of a testbed kept
  their chunk, at ~4.2 MB once each dropped it at its horizon, and at
  ~2.9 MB since the draw buffers go too; the bound sits above all but
  the first.
* **A store sweep's peak is flat in its seed count.**  A sweep with a
  shard store holds no rows the store already holds: each shard drops
  its rows once stored (or served), and the spill reads them back one
  shard at a time.  Against a checkpoint directory that already holds
  every 4 h batch shard, the traced peak of the sweep and its spill was
  0.64 MB at 2 seeds and 2.38 MB at 16 when every shard kept its rows,
  and is 0.65 / 0.72 MB now.
"""

from __future__ import annotations

import collections
import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro import api
from repro.collection.logs import AppendOnlyLog
from repro.core.campaign import CampaignSpec
from repro.parallel.shard import run_shard

#: Prefix for ``python -c``: any later ``import numpy`` raises ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

#: Prefix for ``python -c``: any later ``import sqlite3`` raises ImportError.
BLOCK_SQLITE = "import sys; sys.modules['sqlite3'] = None; "

#: Traced-allocation bound for one 12 h batch campaign (MB).  Measured
#: at seed 2006: 12.2 with every chunk held, 4.16 with the draw buffers
#: held, 2.85 with neither.
BATCH_PEAK_MB = 8.0

#: Bound on what a finished 1 d bit campaign keeps alive (MB).
BIT_LIVE_MB = 1.8

#: Bound on how much a store sweep's traced peak may grow from 2 to 16
#: seeds (MB): +0.07 measured, +1.73 when every shard kept its rows.
STORE_SWEEP_GROWTH_MB = 0.25


def _python(code: str, *args: str, cwd: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` with this checkout's package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestBitFidelityLoadsNoNumpy:
    def test_import_api_leaves_numpy_unloaded(self, tmp_path):
        proc = _python(
            "import sys, repro.api; print('numpy' in sys.modules)", cwd=str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bit_sweep_runs_with_numpy_blocked(self, tmp_path):
        proc = _python(BLOCK_NUMPY + "import repro, repro.api, repro.cli", cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr

        cli = BLOCK_NUMPY + "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
        out, store = str(tmp_path / "sweep"), str(tmp_path / "failures.store")
        for argv in (
            ["sweep", "--fidelity", "bit", "--hours", "1", "--seeds", "2",
             "--out", out, "--store", store],
            ["query", store, "--tables"],
            ["report", out, "--check"],
        ):
            proc = _python(cli, *argv, cwd=str(tmp_path))
            assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"


def test_batch_campaign_working_set():
    pytest.importorskip("numpy")
    # Warm-up: the batch modules' imports and the memoised channel
    # closed forms are paid once per process, not per campaign.
    api.run(duration=3600.0, seed=2006, fidelity="batch")
    tracemalloc.start()
    try:
        api.run(duration=12 * 3600.0, seed=2006, fidelity="batch")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < BATCH_PEAK_MB


class TestBitPathLoadsNoSqlite:
    def test_import_api_leaves_sqlite_unloaded(self, tmp_path):
        proc = _python(
            "import sys, repro.api, repro.cli; print('sqlite3' in sys.modules)",
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bit_sweep_runs_with_sqlite_blocked(self, tmp_path):
        cli = BLOCK_SQLITE + "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
        out = str(tmp_path / "sweep")
        for argv in (
            ["sweep", "--fidelity", "bit", "--hours", "1", "--seeds", "2", "--out", out],
            ["analyze", os.path.join(out, "repository")],
            ["report", out, "--check"],
        ):
            proc = _python(cli, *argv, cwd=str(tmp_path))
            assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"


def test_shipped_records_are_not_held(monkeypatch):
    appended = collections.Counter()
    append = AppendOnlyLog.append

    def counting_append(log, record):
        appended[log] += 1
        append(log, record)

    monkeypatch.setattr(AppendOnlyLog, "append", counting_append)
    api.run(duration=3600.0, seed=3)  # warm-up: imports and memos
    appended.clear()
    tracemalloc.start()
    try:
        result = api.run(duration=86_400.0, seed=3)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logs = [
        log
        for bed in result.testbeds.values()
        for node in (bed.nap, *bed.panus)
        for log in (node.analyzer.test_log, node.analyzer.system_log)
    ]
    assert sum(appended[log] for log in logs) > 0
    for log in logs:
        assert len(log) == 0 and not log.records()
        assert log.cursor == appended[log]
    assert live / 1e6 < BIT_LIVE_MB


def test_summarised_replicate_is_freed_by_refcount():
    spec = CampaignSpec(duration=3600.0, seed=3)
    run_shard(spec)  # warm-up: imports and memos leave their own garbage
    gc.collect()
    gc.disable()
    try:
        run_shard(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_store_sweep_peak_is_flat_in_seed_count(tmp_path):
    pytest.importorskip("numpy")
    options = dict(
        jobs=1, backend="serial", duration=4 * 3600.0, seed=2006,
        fidelity="batch", checkpoint_dir=tmp_path / "shards",
    )
    # Fill the checkpoint directory untraced (seed derivation is
    # prefix-stable, so both sweeps below are served from it): the
    # traced peaks then compare holding rows, not simulating them.
    api.sweep(16, **options)
    peaks = []
    for seeds in (2, 16):
        tracemalloc.start()
        try:
            result = api.sweep(seeds, store=tmp_path / f"{seeds}.store", **options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.reused == seeds
        peaks.append(peak / 1e6)
    assert peaks[1] - peaks[0] < STORE_SWEEP_GROWTH_MB
