"""Wireless channel model for a Bluetooth piconet link.

The paper attributes data-transfer failures (packet loss despite ARQ,
and data corruption despite CRC/FEC) to the *non-memoryless* nature of
the 2.4 GHz ISM channel: multi-path fading and electromagnetic
interference produce correlated error bursts that defeat integrity
mechanisms designed for independent bit errors.

We model each NAP-PANU link as a two-state Gilbert-Elliott channel:

* **GOOD** — residual bit error rate from thermal noise; depends weakly
  on antenna distance through a log-distance path-loss model.
* **BAD** — an error burst (fade or interferer); high bit error rate,
  exponential dwell time.

Two query styles are offered:

* *bit-accurate* (:meth:`Channel.sample_packet_errors`) — sample the
  number of bit errors a packet of a given length experiences; used by
  the bit-level Baseband path and the unit tests.
* *batch-analytic* (:meth:`Channel.transfer_statistics`,
  :meth:`Channel.sample_payload_outcome`) — closed-form per-packet hit
  and drop probabilities derived from the chain's stationary behaviour;
  used by the campaign simulations, where months of traffic must run in
  seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.instruments import stack_instruments
from .packets import PacketType


def sample_poisson(rng: random.Random, mean: float) -> int:
    """Sample a Poisson variate (Knuth for small mean, normal approx above)."""
    if mean <= 0:
        return 0
    if mean < 30.0:
        limit = math.exp(-mean)
        k = 0
        product = rng.random()
        while product > limit:
            k += 1
            product *= rng.random()
        return k
    # Normal approximation with continuity correction.
    value = rng.gauss(mean, math.sqrt(mean))
    return max(0, int(round(value)))


@dataclass(frozen=True)
class PathLoss:
    """Log-distance path loss mapped to a residual (GOOD-state) BER.

    Class 2 devices have ~10 m range; within a desk-scale PAN the paper
    found failure rates essentially independent of distance (33.3 / 37.1
    / 29.6 % at 0.5 / 5 / 7 m), so the distance effect here is present
    but deliberately weak.
    """

    reference_ber: float = 2e-6  # BER at the reference distance
    reference_distance: float = 1.0  # metres
    exponent: float = 0.35  # weak distance sensitivity

    def ber_at(self, distance: float) -> float:
        """GOOD-state BER at ``distance`` metres."""
        if distance <= 0:
            raise ValueError(f"distance must be positive: {distance}")
        scale = (distance / self.reference_distance) ** self.exponent
        return min(0.5, self.reference_ber * scale)


@dataclass
class ChannelConfig:
    """Parameters of one Gilbert-Elliott link."""

    distance: float = 1.0  # metres between the two antennas
    path_loss: PathLoss = field(default_factory=PathLoss)
    burst_rate: float = 1.0 / 12000.0  # GOOD->BAD transitions per second
    mean_burst: float = 0.030  # mean BAD dwell, seconds
    ber_bad: float = 0.08  # BER inside a burst
    retransmit_limit: int = 8  # Baseband ARQ retries before payload drop
    interference_factor: float = 1.0  # >1 while an interference episode is on

    @property
    def ber_good(self) -> float:
        return self.path_loss.ber_at(self.distance)

    @property
    def effective_burst_rate(self) -> float:
        return self.burst_rate * self.interference_factor

    @property
    def stationary_bad(self) -> float:
        """Stationary probability of being in the BAD state."""
        lam = self.effective_burst_rate
        mu = 1.0 / self.mean_burst
        return lam / (lam + mu)


class Channel:
    """One directional NAP-PANU radio link with burst-error dynamics.

    Query protocol
    --------------
    Both query styles answer the same question — "what does the channel
    do to packets of ``packet_type``?" — at different fidelities, and
    both draw *only* from the injected ``rng`` stream:

    * **bit-accurate** — :meth:`sample_packet_errors` advances the
      Gilbert-Elliott state machine to the packet's instant (``now``)
      and samples a bit-error count for its air bits.  Exact, but one
      call per packet.
    * **batch-analytic** — :meth:`transfer_statistics` (expectations
      for ``n_packets`` payloads) and :meth:`sample_payload_outcome`
      (one sampled payload fate) use closed-form stationary hit/drop
      probabilities, so months of traffic cost O(1) per transfer.

    The closed-form quantities depend only on the packet type and the
    :class:`ChannelConfig` scalars, so they are memoised per packet
    type (see :meth:`loss_profile`); the cache invalidates itself
    whenever any config field changes — e.g. via
    :meth:`set_interference` during an interference episode.  The
    memoisation therefore returns bit-for-bit the values the uncached
    formulas would, and the RNG draw sequence is unchanged.
    """

    def __init__(self, config: ChannelConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self._bad = False
        #: Sim time at which the current dwell ends; None until the
        #: first GOOD dwell is drawn (lazily, so construction consumes
        #: no randomness).
        self._state_until: Optional[float] = None
        self._obs = stack_instruments()
        # Memoised closed-form per-packet-type quantities, keyed by the
        # config scalars they were computed from (Gilbert-Elliott
        # sojourn/stationary terms are precomputed here instead of per
        # packet).  _profile_key() detects any config mutation.
        self._profiles: dict = {}
        self._profile_config_key: tuple = self._config_key()
        self._stationary_bad = config.stationary_bad
        self._ber_good = config.ber_good

    def _config_key(self) -> tuple:
        cfg = self.config
        return (
            cfg.distance,
            cfg.path_loss,
            cfg.burst_rate,
            cfg.mean_burst,
            cfg.ber_bad,
            cfg.retransmit_limit,
            cfg.interference_factor,
        )

    def loss_profile(self, packet_type: PacketType) -> "LossProfile":
        """Memoised closed-form loss quantities for one packet type.

        Values are identical to evaluating the underlying formulas
        directly; the cache is rebuilt whenever the config changes.
        """
        key = self._config_key()
        if key != self._profile_config_key:
            self._profiles.clear()
            self._profile_config_key = key
            self._stationary_bad = self.config.stationary_bad
            self._ber_good = self.config.ber_good
        profile = self._profiles.get(packet_type)
        if profile is None:
            profile = self._compute_profile(packet_type)
            self._profiles[packet_type] = profile
        return profile

    def _compute_profile(self, packet_type: PacketType) -> "LossProfile":
        cfg = self.config
        duration = packet_type.duration
        # P(packet overlaps a burst): stationary BAD probability plus
        # the chance of a burst starting during the packet's air time.
        p_start_in_flight = 1.0 - math.exp(-cfg.effective_burst_rate * duration)
        pi_bad = self._stationary_bad
        p_hit = pi_bad + (1.0 - pi_bad) * p_start_in_flight
        # P(CRC failure from sparse GOOD-state errors): DMx FEC corrects
        # single-bit errors per 15-bit block, DHx fails on any error.
        bits = packet_type.air_bits
        p_bit = self._ber_good
        if not packet_type.fec:
            p_good_fail = 1.0 - (1.0 - p_bit) ** bits
        else:
            n_blocks = max(1, bits // 15)
            p_block_2plus = (
                1.0 - (1.0 - p_bit) ** 15 - 15 * p_bit * (1.0 - p_bit) ** 14
            )
            p_good_fail = 1.0 - (1.0 - p_block_2plus) ** n_blocks
        # P(payload dropped | hit): burst outlives the ARQ retry window.
        retry_window = cfg.retransmit_limit * duration
        p_drop_given_hit = math.exp(-retry_window / cfg.mean_burst)
        # P(corrupt payload escapes CRC | hit): 16-bit CRC misses ~2^-16
        # of burst patterns; FEC miscorrection raises the escape rate.
        p_undetected = (2.0 ** -16) * (4.0 if packet_type.fec else 1.0)
        return LossProfile(
            packet_type=packet_type,
            p_hit=p_hit,
            p_good_state_failure=p_good_fail,
            p_drop_given_hit=p_drop_given_hit,
            p_undetected=p_undetected,
            p_drop=p_hit * p_drop_given_hit,
        )

    # -- state machine -----------------------------------------------------

    def _advance(self, now: float) -> None:
        """Advance the lazily evaluated GOOD/BAD state machine to ``now``."""
        if self._state_until is None:
            self._state_until = self._rng.expovariate(
                self.config.effective_burst_rate
            )
        while self._state_until <= now:
            if self._bad:
                self._bad = False
                self._obs.channel_to_good.inc()
                dwell = self._rng.expovariate(self.config.effective_burst_rate)
            else:
                self._bad = True
                self._obs.channel_to_bad.inc()
                dwell = self._rng.expovariate(1.0 / self.config.mean_burst)
            self._state_until += dwell

    def is_bad(self, now: float) -> bool:
        """Whether the channel is inside an error burst at time ``now``."""
        self._advance(now)
        return self._bad

    def set_interference(self, factor: float) -> None:
        """Scale the burst arrival rate (an interference episode).

        Invalidates the memoised closed-form profiles (they depend on
        the effective burst rate).
        """
        if factor <= 0:
            raise ValueError("interference factor must be positive")
        self.config.interference_factor = factor
        self._profiles.clear()
        self._profile_config_key = self._config_key()
        self._stationary_bad = self.config.stationary_bad
        self._ber_good = self.config.ber_good

    # -- bit-accurate path ---------------------------------------------------

    def sample_packet_errors(self, now: float, air_bits: int) -> int:
        """Number of bit errors hitting a packet of ``air_bits`` at ``now``."""
        if self.is_bad(now):
            ber = self.config.ber_bad
            self._obs.channel_burst_hits.inc()
        else:
            ber = self.config.ber_good
        errors = sample_poisson(self._rng, ber * air_bits)
        if errors:
            self._obs.channel_bit_errors.inc(errors)
        return errors

    # -- batch-analytic path ---------------------------------------------------

    def packet_hit_probability(self, packet_type: PacketType) -> float:
        """P(a packet of this type overlaps an error burst).

        Equals the stationary BAD probability plus the chance of a burst
        starting during the packet's air time.  Memoised — see
        :meth:`loss_profile`.
        """
        return self.loss_profile(packet_type).p_hit

    def good_state_failure_probability(self, packet_type: PacketType) -> float:
        """P(CRC failure of a full packet from GOOD-state bit errors).

        DMx packets are protected by the (15,10) FEC, which corrects all
        single-bit errors per block, so sparse GOOD-state errors almost
        never fail them; DHx packets fail on any bit error.
        """
        return self.loss_profile(packet_type).p_good_state_failure

    def drop_probability_given_hit(self, packet_type: PacketType) -> float:
        """P(payload dropped | packet hit a burst).

        The Baseband retransmits a failed payload up to
        ``retransmit_limit`` times; each retry occupies one packet
        exchange.  The payload is dropped iff the burst outlives the
        whole retry window (exponential dwell => closed form).
        """
        return self.loss_profile(packet_type).p_drop_given_hit

    def payload_drop_probability(self, packet_type: PacketType) -> float:
        """Unconditional P(one baseband payload of this type is dropped)."""
        return self.loss_profile(packet_type).p_drop

    def undetected_error_probability(self, packet_type: PacketType) -> float:
        """P(corrupted payload delivered as good | packet hit a burst).

        A 16-bit CRC misses ~2^-16 of random burst patterns; FEC
        miscorrection on DMx packets turns some burst patterns into
        different (but valid-looking) codewords, raising the escape rate.
        """
        return self.loss_profile(packet_type).p_undetected

    def transfer_statistics(
        self, packet_type: PacketType, n_packets: int
    ) -> "TransferStatistics":
        """Closed-form loss/mismatch expectations for an n-packet burst.

        Batch-analytic path; draws no randomness.  The per-type
        probabilities come from the memoised :meth:`loss_profile` and
        are identical to the uncached closed form.
        """
        profile = self.loss_profile(packet_type)
        p_hit = profile.p_hit
        return TransferStatistics(
            packet_type=packet_type,
            n_packets=n_packets,
            p_hit=p_hit,
            p_drop=profile.p_drop,
            p_mismatch=p_hit * profile.p_undetected,
        )

    def sample_payload_outcome(self, packet_type: PacketType) -> str:
        """Sample one payload's fate: 'ok', 'retransmitted', 'dropped' or 'mismatch'.

        Batch-analytic path: stateless (stationary) sampling, consuming
        1-3 draws from the injected RNG stream — the same draw sequence
        as the uncached implementation.
        """
        profile = self.loss_profile(packet_type)
        rng_random = self._rng.random
        if rng_random() >= profile.p_hit:
            if rng_random() < profile.p_good_state_failure:
                return "retransmitted"
            return "ok"
        if rng_random() < profile.p_undetected:
            return "mismatch"
        if rng_random() < profile.p_drop_given_hit:
            return "dropped"
        return "retransmitted"


@dataclass(frozen=True)
class LossProfile:
    """Memoised closed-form loss quantities for one packet type.

    All probabilities are exactly the values the corresponding
    :class:`Channel` formulas produce; the profile is just those
    formulas evaluated once per (packet type, channel configuration).
    """

    __slots__ = (
        "packet_type",
        "p_hit",
        "p_good_state_failure",
        "p_drop_given_hit",
        "p_undetected",
        "p_drop",
    )

    packet_type: PacketType
    #: P(packet overlaps an error burst).
    p_hit: float
    #: P(CRC failure from GOOD-state bit errors).
    p_good_state_failure: float
    #: P(payload dropped | packet hit a burst).
    p_drop_given_hit: float
    #: P(corrupt payload escapes the CRC | packet hit a burst).
    p_undetected: float
    #: Unconditional P(payload dropped) = p_hit * p_drop_given_hit.
    p_drop: float


@dataclass(frozen=True)
class TransferStatistics:
    """Expected outcome rates for a batch of payload transmissions."""

    __slots__ = ("packet_type", "n_packets", "p_hit", "p_drop", "p_mismatch")

    packet_type: PacketType
    n_packets: int
    p_hit: float
    p_drop: float
    p_mismatch: float

    @property
    def expected_drops(self) -> float:
        return self.n_packets * self.p_drop

    @property
    def survival_probability(self) -> float:
        """P(the whole batch completes without a drop)."""
        return (1.0 - self.p_drop) ** self.n_packets


def sample_first_drop(
    rng: random.Random, p_drop: float, n_packets: int
) -> Optional[int]:
    """Index (0-based) of the first dropped payload in a batch, or None.

    Geometric sampling via the inverse CDF, so months-long transfers do
    not require a per-packet loop.
    """
    if p_drop <= 0.0 or n_packets <= 0:
        return None
    if p_drop >= 1.0:
        return 0
    u = rng.random()
    survive_all = (1.0 - p_drop) ** n_packets
    if u < survive_all:
        return None
    # Invert P(first drop at index k) truncated to [0, n).
    index = int(math.log(u) / math.log(1.0 - p_drop))
    return min(index, n_packets - 1)


__all__ = [
    "Channel",
    "ChannelConfig",
    "LossProfile",
    "PathLoss",
    "TransferStatistics",
    "sample_first_drop",
    "sample_poisson",
]
