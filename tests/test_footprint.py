"""Per-process footprint guards for the two fidelities.

* **Bit fidelity loads no numpy.**  The event-level engine never calls
  numpy; only ``fidelity="batch"`` and the CTMC solver
  (:func:`repro.core.markov.build_ctmc`) import it, lazily.  A bit
  sweep, its store query and its journal check must run in an
  interpreter where ``import numpy`` fails, and ``import repro.api``
  must leave numpy unloaded (~12 MB of RSS per process).
* **Batch campaign working set.**  Each PANU's pre-drawn cycle chunk
  (~30 listified 2,048-cycle columns plus the span prefix lists) lives
  only while that PANU runs, not until its whole testbed is collected.
  One 12 h batch campaign peaked at ~12-13 MB of traced allocations
  while all six PANUs of a testbed kept their chunk, and at ~4-5 MB
  since each drops it at its horizon; the bound sits between the two.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro import api

#: Prefix for ``python -c``: any later ``import numpy`` raises ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

#: Traced-allocation bound for one 12 h batch campaign (MB).
BATCH_PEAK_MB = 8.0


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
