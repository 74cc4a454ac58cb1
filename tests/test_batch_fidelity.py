"""Batch-fidelity tests: bulk GE samplers vs the oracle, plus threading.

Three layers:

* **Property tests** (hypothesis): every bulk sampler in
  :mod:`repro.bluetooth.batch_channel` against the scalar bit-accurate
  oracle — state occupancy, per-type payload outcome rates,
  retransmission-count means and transfer-level loss/mismatch rates all
  match within 4 sigma.  Batch is *analytic* equivalence, not draw
  replay, so every comparison is statistical.
* **Executor determinism**: batch campaigns are reproducible per seed
  and batch sweeps merge byte-identically at ``--jobs 1`` vs
  ``--jobs 4``.
* **Fidelity threading**: the ``fidelity`` keyword validates, survives
  the config/spec round-trip, rejects per-packet observability, and
  keeps bit-mode checkpoint fingerprints unchanged.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro import api
from repro.bluetooth.baseband import TransferStatus, sample_transfer
from repro.bluetooth.batch_channel import (
    PAYLOAD_DROPPED,
    PAYLOAD_MISMATCH,
    PAYLOAD_RETRANSMITTED,
    TRANSFER_LOSS,
    TRANSFER_MISMATCH,
    bulk_payload_outcomes,
    bulk_retransmission_counts,
    bulk_state_occupancy,
    bulk_transfer_outcomes,
)
from repro.bluetooth.channel import Channel, ChannelConfig
from repro.bluetooth.packets import PacketType
from repro.collection.log_analyzer import LogAnalyzer
from repro.core.campaign import CampaignSpec
from repro.obs import Observability
from repro.sim.rng import numpy_generator

N_SAMPLES = 4000
SIGMA = 4.0
#: Two-sided false-alarm probability of a SIGMA-wide normal band, the
#: level the exact and distribution-free checks below are held to.
ALPHA = math.erfc(SIGMA / math.sqrt(2.0))


def binomial_tails(k: int, n: int, p: float):
    """Exact ``(P(X <= k), P(X >= k))`` for ``X ~ Binomial(n, p)``."""
    if p <= 0.0 or p >= 1.0:
        degenerate = 0 if p <= 0.0 else n
        return float(k >= degenerate), float(k <= degenerate)
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        for i in range(n + 1)
    ]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


def capped_count_pmf(tail):
    """``P(X = k)``, k = 0..limit, of ``X = min(C, limit)`` from ``P(C >= k)``, k = 1..limit."""
    at_least = [1.0, *tail, 0.0]
    return [at_least[k] - at_least[k + 1] for k in range(len(tail) + 1)]


def chernoff_tails(total: int, n: int, pmf):
    """Chernoff bounds on ``P(S >= total)`` and ``P(S <= total)``.

    ``S`` sums ``n`` i.i.d. draws of ``pmf`` (over 0, 1, 2, ...), and
    ``P(S >= s) <= exp(n log M(theta) - theta s)`` for every
    ``theta >= 0`` (``<= 0`` for the lower tail), with ``M`` the exact
    moment generating function.  The bound holds at any sample size and
    any skew, so a handful of heavy-tailed draws cannot fail it by
    chance the way they fail a normal band.
    """
    support = [(k, math.log(p)) for k, p in enumerate(pmf) if p > 0.0]

    def log_bound(theta: float) -> float:
        peak = max(log_p + theta * k for k, log_p in support)
        log_mgf = peak + math.log(
            math.fsum(math.exp(log_p + theta * k - peak) for k, log_p in support)
        )
        return n * log_mgf - theta * total

    def tightest(lo: float, hi: float) -> float:
        for _ in range(200):  # ternary search: the exponent is convex in theta
            left, right = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if log_bound(left) <= log_bound(right):
                hi = right
            else:
                lo = left
        return math.exp(min(0.0, log_bound((lo + hi) / 2.0)))

    return tightest(0.0, 50.0), tightest(-50.0, 0.0)


def two_sample_z(p1: float, p2: float, n: int) -> float:
    """z statistic for two empirical proportions of n samples each."""
    se = math.sqrt(p1 * (1.0 - p1) / n + p2 * (1.0 - p2) / n)
    if se == 0.0:
        return 0.0 if p1 == p2 else float("inf")
    return abs(p1 - p2) / se


channel_configs = st.builds(
    ChannelConfig,
    distance=st.floats(0.5, 7.0),
    burst_rate=st.floats(0.01, 2.0),
    mean_burst=st.floats(0.001, 0.1),
    ber_bad=st.floats(0.01, 0.2),
)


class TestBulkSamplersMatchOracle:
    @settings(max_examples=15, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**32 - 1))
    @example(
        config=ChannelConfig(
            distance=1.0, burst_rate=0.25, mean_burst=0.001, ber_bad=0.125
        ),
        seed=2594,
    )
    def test_state_occupancy_matches_stationary_probability(self, config, seed):
        # The BAD count is Binomial(N_SAMPLES, p); for rare states (p near
        # 1e-4, about one expected hit) a normal band under-covers, so the
        # check is an exact two-sided binomial tail at ALPHA.
        gen = numpy_generator(seed, "occupancy")
        bad = int(bulk_state_occupancy(gen, config, N_SAMPLES).sum())
        p = config.stationary_bad
        lower, upper = binomial_tails(bad, N_SAMPLES, p)
        assert min(lower, upper) >= ALPHA / 2.0, (
            f"{bad} BAD samples in {N_SAMPLES} at p {p:.5f}"
        )

    @settings(max_examples=10, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**31))
    def test_payload_outcome_rates_match_scalar_oracle(self, config, seed):
        packet_type = PacketType.DH5
        channel = Channel(config, random.Random(seed))
        profile = channel.loss_profile(packet_type)
        oracle = [
            channel.sample_payload_outcome(packet_type)
            for _ in range(N_SAMPLES)
        ]
        gen = numpy_generator(seed, "payload")
        bulk = bulk_payload_outcomes(gen, profile, N_SAMPLES)
        for code, name in (
            (PAYLOAD_DROPPED, "dropped"),
            (PAYLOAD_MISMATCH, "mismatch"),
            (PAYLOAD_RETRANSMITTED, "retransmitted"),
        ):
            p_oracle = oracle.count(name) / N_SAMPLES
            p_bulk = float((bulk == code).mean())
            assert two_sample_z(p_oracle, p_bulk, N_SAMPLES) <= SIGMA, (
                f"{name}: oracle {p_oracle:.4f} vs bulk {p_bulk:.4f}"
            )

    @settings(max_examples=10, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**31))
    @example(
        config=ChannelConfig(
            distance=1.0, burst_rate=0.0625, mean_burst=0.03125, ber_bad=0.125
        ),
        seed=3277887,
    )
    def test_retransmission_count_mean_matches_closed_form(self, config, seed):
        packet_type = PacketType.DH5
        profile = Channel(config, random.Random(0)).loss_profile(packet_type)
        gen = numpy_generator(seed, "retx")
        counts = bulk_retransmission_counts(gen, profile, config, N_SAMPLES)
        limit = int(config.retransmit_limit)
        assert int(counts.max()) <= limit
        # The sampler's first draw is the burst-hit indicator per payload;
        # replaying it splits the mixture, so each law is checked on its
        # own draws.  Burst hits are rare (often < 10 in N_SAMPLES), where
        # a normal band on the pooled mean under-covers; the checks below
        # hold at any count: an exact binomial tail for the hit count and
        # Chernoff bounds for each law's mean (its sum over the draws).
        hit = numpy_generator(seed, "retx").random(N_SAMPLES) < profile.p_hit
        n_hit = int(hit.sum())
        lower, upper = binomial_tails(n_hit, N_SAMPLES, profile.p_hit)
        assert min(lower, upper) >= ALPHA / 2.0, (
            f"{n_hit} burst hits in {N_SAMPLES} at p_hit {profile.p_hit:.5f}"
        )
        # P(C >= k) per law: a hit retries while the exponential burst
        # lasts; a good-state payload fails each attempt independently.
        duration = packet_type.duration
        hit_tail = [
            math.exp(-(k - 1) * duration / config.mean_burst) for k in range(1, limit + 1)
        ]
        p_fail = profile.p_good_state_failure
        good_tail = [p_fail**k for k in range(1, limit + 1)]
        for name, mask, tail in (("hit", hit, hit_tail), ("good", ~hit, good_tail)):
            n = int(mask.sum())
            total = int(counts[mask].sum())
            upper, lower = chernoff_tails(total, n, capped_count_pmf(tail))
            assert min(upper, lower) >= ALPHA / 2.0, (
                f"{name}: {total} retransmissions over {n} draws, "
                f"expected mean {sum(tail):.5f}"
            )

    @settings(max_examples=8, deadline=None)
    @given(
        config=channel_configs,
        seed=st.integers(0, 2**31),
        n_payloads=st.integers(5, 400),
        break_hazard=st.floats(0.0, 5e-3),
    )
    def test_transfer_outcome_rates_match_sample_transfer(
        self, config, seed, n_payloads, break_hazard
    ):
        packet_type = PacketType.DH5
        channel = Channel(config, random.Random(seed))
        profile = channel.loss_profile(packet_type)
        rng = random.Random(seed + 1)
        n_runs = 1500
        oracle_loss = oracle_mismatch = 0
        for _ in range(n_runs):
            outcome = sample_transfer(
                rng, channel, packet_type, n_payloads, break_hazard
            )
            if outcome.status is TransferStatus.LOSS:
                oracle_loss += 1
            elif outcome.status is TransferStatus.MISMATCH:
                oracle_mismatch += 1
        gen = numpy_generator(seed, "transfer")
        h_const = profile.p_drop + break_hazard
        p_mismatch = profile.p_hit * profile.p_undetected
        status, _, _ = bulk_transfer_outcomes(
            gen.random(n_runs),
            gen.random(n_runs),
            np.full(n_runs, n_payloads, dtype=np.float64),
            np.full(n_runs, h_const),
            np.full(n_runs, p_mismatch),
            np.full(n_runs, profile.packet_type.duration),
        )
        p_loss = float((status == TRANSFER_LOSS).mean())
        p_mis = float((status == TRANSFER_MISMATCH).mean())
        assert two_sample_z(oracle_loss / n_runs, p_loss, n_runs) <= SIGMA
        assert two_sample_z(oracle_mismatch / n_runs, p_mis, n_runs) <= SIGMA


class TestBatchExecutorDeterminism:
    DURATION = 2 * 3600.0

    def test_same_seed_same_repository(self):
        first = api.run(duration=self.DURATION, seed=11, fidelity="batch")
        second = api.run(duration=self.DURATION, seed=11, fidelity="batch")
        assert [repr(r) for r in first.repository.iter_records(kind="test")] == [
            repr(r) for r in second.repository.iter_records(kind="test")
        ]
        assert [repr(r) for r in first.repository.iter_records(kind="system")] == [
            repr(r) for r in second.repository.iter_records(kind="system")
        ]
        assert first.events_processed == second.events_processed > 0

    def test_different_seeds_diverge(self):
        a = api.run(duration=self.DURATION, seed=1, fidelity="batch")
        b = api.run(duration=self.DURATION, seed=2, fidelity="batch")
        assert [repr(r) for r in a.repository.iter_records(kind="test")] != [
            repr(r) for r in b.repository.iter_records(kind="test")
        ]

    def test_sweep_merge_is_byte_stable_across_jobs(self, tmp_path):
        kwargs = dict(
            duration=self.DURATION, seed=5, fidelity="batch"
        )
        serial = api.sweep(4, jobs=1, **kwargs)
        pooled = api.sweep(4, jobs=4, **kwargs)
        assert serial.render() == pooled.render()
        assert serial.render_statistics() == pooled.render_statistics()
        serial.repository.flush(tmp_path / "serial")
        pooled.repository.flush(tmp_path / "pooled")
        for name in sorted(
            p.name for p in (tmp_path / "serial").iterdir()
        ):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pooled" / name
            ).read_bytes(), name


def test_batch_ships_through_log_analyzers(monkeypatch):
    # Every batch record reaches the repository through one LogAnalyzer
    # per node, which collects at each period boundary and once more at
    # the horizon, and leaves its logs rotated.
    analyzers = {}
    collect_once = LogAnalyzer.collect_once

    def tracking_collect_once(analyzer):
        analyzers[analyzer.node] = analyzer
        collect_once(analyzer)

    monkeypatch.setattr(LogAnalyzer, "collect_once", tracking_collect_once)
    duration = 2 * 3600.0
    result = api.run(duration=duration, seed=11, fidelity="batch")
    assert set(analyzers) == {node for pair in result.node_nap_pairs() for node in pair}
    assert len(analyzers) == 14
    for analyzer in analyzers.values():
        assert analyzer.rounds == math.floor((duration - analyzer.phase) / analyzer.period) + 1
        assert not analyzer.test_log.records() and not analyzer.system_log.records()
    assert sum(a.shipped_test for a in analyzers.values()) == result.repository.user_level_count
    assert sum(a.shipped_system for a in analyzers.values()) == (
        result.repository.system_level_count
    )


class TestFidelityThreading:
    def test_default_is_bit(self):
        assert api.ExperimentConfig().fidelity == "bit"
        assert CampaignSpec().fidelity == "bit"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            api.ExperimentConfig(fidelity="exact")
        with pytest.raises(ValueError, match="fidelity"):
            CampaignSpec(fidelity="exact")._execute()

    def test_config_spec_round_trip(self):
        config = api.ExperimentConfig(fidelity="batch")
        spec = config.spec()
        assert spec.fidelity == "batch"
        assert api.ExperimentConfig.from_spec(spec).fidelity == "batch"
        assert config.replace(seed=9).fidelity == "batch"

    def test_batch_rejects_observability(self):
        with pytest.raises(ValueError, match="observability"):
            api.run(
                duration=3600.0,
                seed=0,
                fidelity="batch",
                observability=Observability(),
            )

    def test_bit_fingerprint_unchanged_by_fidelity_field(self):
        # Pre-existing bit-mode sweep checkpoints must stay valid: the
        # fingerprint only grows a fidelity entry for non-default modes.
        bit = CampaignSpec(fidelity="bit").fingerprint_data()
        assert "fidelity" not in bit
        batch = CampaignSpec(fidelity="batch").fingerprint_data()
        assert batch["fidelity"] == "batch"

    def test_cli_rejects_batch_with_packet_observability(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--fidelity", "batch", "--metrics-out", "m.txt"]
        ) == 2
        assert "--fidelity bit" in capsys.readouterr().err
        assert main(
            ["sweep", "--fidelity", "batch", "--metrics-out", "m.txt"]
        ) == 2

    def test_cli_run_batch_dumps_repository(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign"
        assert main(
            ["run", "--fidelity", "batch", "--hours", "1",
             "--seed", "3", "--out", str(out)]
        ) == 0
        assert (out / "analysis.txt").exists()
