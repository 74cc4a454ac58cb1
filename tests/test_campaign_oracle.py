"""Committed digests of four campaigns' outputs: the byte-stability oracle.

A refactor of the collection layer or of the campaign executors must
leave every shipped record and every client's counters exactly as they
were.  Each case hashes ``repository.to_payload()`` (time-ordered rows)
and the per-client :class:`~repro.workload.bluetest.CycleStats`, in
sorted-testbed then client order, and compares both SHA-256 digests
with the committed ones.  The cases cover both fidelities and the two
bit-path variants with their own entry points: batch 12 h at the
perfbench seed and its held-out seed, the enhanced-stack bundle and
the figure-3b connection-length run.

A deliberate change of campaign output re-commits the digests it moves
and says why in CHANGES.md.

The bit-path variants with their own entry points (enhanced stack,
figure 3b, redundant piconets) also report the work their engine did,
as every other bit-path entry point does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import api
from repro.core.campaign import run_connection_length_experiment
from repro.extensions import run_enhanced_campaign, run_redundant_campaign
from repro.sim import Simulator

HOUR = 3600.0

CASES = {
    "batch-12h-seed2006": lambda: api.run(duration=12 * HOUR, seed=2006, fidelity="batch"),
    "batch-12h-seed35651": lambda: api.run(duration=12 * HOUR, seed=35651, fidelity="batch"),
    "enhanced-2h-seed301": lambda: run_enhanced_campaign(duration=2 * HOUR, seed=301),
    "figure3b-2h-seed5": lambda: run_connection_length_experiment(duration=2 * HOUR, seed=5),
}

#: (repository payload digest, per-client CycleStats digest) per case.
DIGESTS = {
    "batch-12h-seed2006": (
        "482ac5455ab1134f32dec6cc7b44da4f4991df8ea5756cc849e7ecf1263f9ae8",
        "d322130af10383bdbd5c62c8fb93ac54ec42ebc6dfba7cea493bdce0762f16e8",
    ),
    "batch-12h-seed35651": (
        "28dba57e6f60256a7ae29bbda398adf3b210404931e799762910249f09864cbe",
        "064c553a15c05f3d0eb7840d51edf4b0b0e533edc03c8d5107c2d42325544cff",
    ),
    "enhanced-2h-seed301": (
        "44ce6fe721530125981c05b67b69bb774a42c8722aca8b8dc218d255d0b2c876",
        "7f9f97b93550e6ce0a2e293e2a135c097643595c37ea8d7f07b108a6bba41975",
    ),
    "figure3b-2h-seed5": (
        "1b0a67d135522506d48b27a54912c713a2ca83f596c5ea9bcaef67dc9fbf7a2c",
        "75d407d71bbc2e509112f85289d002c4acd7f46df007a128b10bd7d4d431ead6",
    ),
}


def _digest(data: object) -> str:
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_outputs_are_byte_stable(case):
    if case.startswith("batch"):
        pytest.importorskip("numpy")
    result = CASES[case]()
    stats = [
        [name, [dataclasses.asdict(client) for client in result.client_stats(name)]]
        for name in sorted(result.testbeds)
    ]
    assert (_digest(result.repository.to_payload()), _digest(stats)) == DIGESTS[case]


#: Bit-path entry points whose ``events_processed`` is the engine's count.
ENGINE_CASES = {
    "enhanced-2h-seed301": CASES["enhanced-2h-seed301"],
    "figure3b-2h-seed5": CASES["figure3b-2h-seed5"],
    "redundant-30m-seed1": lambda: run_redundant_campaign(duration=1800.0, seed=1),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_bit_variants_report_engine_events(case, monkeypatch):
    counted = []
    run_until = Simulator.run_until

    def counting_run_until(sim, time):
        processed = run_until(sim, time)
        counted.append(processed)
        return processed

    monkeypatch.setattr(Simulator, "run_until", counting_run_until)
    result = ENGINE_CASES[case]()
    assert counted and result.events_processed == sum(counted) > 0
