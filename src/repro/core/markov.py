"""Analytical dependability models built from the measured failure data.

The paper motivates its failure model partly so that "researchers ...
can use [it] to design abstract models useful for further analysis or
synthesis".  This module closes that loop: it builds a continuous-time
Markov availability model from a campaign's measured quantities —
failure rate, severity distribution, per-action recovery rates — and
solves it for steady-state availability, which can then be validated
against the campaign's empirically measured availability.

States: one UP state, and one DOWN state per recovery level 1..7.  From
UP the system fails with rate ``1/MTTF`` and branches to down-level *s*
with the measured severity probability.  A failure of severity *s*
repairs through levels 1..s in sequence, so DOWN_s's sojourn is modelled
with the *cumulative* repair time of the cascade up to level s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.collection.records import TestLogRecord
from repro.faults.calibration import SIRA_DURATIONS
from .sira_analysis import record_severity

N_LEVELS = 7


@dataclass(frozen=True)
class AvailabilityModel:
    """A solved CTMC availability model."""

    failure_rate: float  # 1 / MTTF  (per second)
    severity_probabilities: List[float]  # P(severity = s), s = 1..7
    repair_times: List[float]  # cumulative cascade time up to level s
    stationary: Dict[str, float]  # state -> probability

    @property
    def availability(self) -> float:
        return self.stationary["UP"]

    @property
    def mean_down_time(self) -> float:
        """Expected repair time of one failure under the model."""
        return sum(
            p * t for p, t in zip(self.severity_probabilities, self.repair_times)
        )

    def summary(self) -> str:
        """Human-readable model summary."""
        lines = [
            "CTMC availability model",
            f"  failure rate     {self.failure_rate:.6f} /s "
            f"(MTTF {1.0 / self.failure_rate:.0f} s)"
            if self.failure_rate > 0
            else "  failure rate     0 /s",
            f"  mean repair time {self.mean_down_time:.1f} s",
            f"  availability     {self.availability:.4f}",
        ]
        return "\n".join(lines)


def cumulative_repair_times(
    durations: Sequence[float] = SIRA_DURATIONS,
) -> List[float]:
    """Cascade repair time up to each level (failed attempts included)."""
    times: List[float] = []
    total = 0.0
    for duration in durations[:N_LEVELS]:
        total += duration
        times.append(total)
    return times


def severity_distribution(records: Sequence[TestLogRecord]) -> List[float]:
    """Empirical P(severity = s) for s in 1..7 over recoverable failures."""
    counts = [0] * N_LEVELS
    for record in records:
        severity = record_severity(record)
        if severity is not None:
            counts[severity - 1] += 1
    total = sum(counts)
    if total == 0:
        return [0.0] * N_LEVELS
    return [c / total for c in counts]


def build_ctmc(
    failure_rate: float,
    severity_probabilities: Sequence[float],
    repair_times: Optional[Sequence[float]] = None,
) -> AvailabilityModel:
    """Assemble and solve the availability CTMC.

    ``failure_rate`` is per second; ``severity_probabilities`` must sum
    to 1 (all-zero is accepted and yields availability 1).
    """
    if failure_rate < 0:
        raise ValueError("failure rate must be non-negative")
    probs = list(severity_probabilities)
    if len(probs) != N_LEVELS:
        raise ValueError(f"need {N_LEVELS} severity probabilities")
    total = sum(probs)
    if total > 0 and abs(total - 1.0) > 1e-6:
        raise ValueError(f"severity probabilities sum to {total}, expected 1")
    times = list(repair_times) if repair_times is not None else cumulative_repair_times()
    if any(t <= 0 for t in times):
        raise ValueError("repair times must be positive")

    if failure_rate == 0 or total == 0:
        stationary = {"UP": 1.0}
        stationary.update({f"DOWN_{s}": 0.0 for s in range(1, N_LEVELS + 1)})
        return AvailabilityModel(failure_rate, probs, times, stationary)

    # Lazy import: only this solver needs numpy, so importing repro (and
    # the bit engine behind it) does not load it.
    import numpy as np

    # Generator matrix over states [UP, DOWN_1 .. DOWN_7].
    n = 1 + N_LEVELS
    generator = np.zeros((n, n))
    for s in range(N_LEVELS):
        rate_to_down = failure_rate * probs[s]
        generator[0, 1 + s] = rate_to_down
        generator[1 + s, 0] = 1.0 / times[s]
    for i in range(n):
        generator[i, i] = -generator[i].sum()

    # Solve pi @ Q = 0 with sum(pi) = 1.
    a = np.vstack([generator.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()

    stationary = {"UP": float(pi[0])}
    for s in range(N_LEVELS):
        stationary[f"DOWN_{s + 1}"] = float(pi[1 + s])
    return AvailabilityModel(failure_rate, probs, times, stationary)


def model_from_records(
    records: Sequence[TestLogRecord],
    mttf: float,
    repair_times: Optional[Sequence[float]] = None,
) -> AvailabilityModel:
    """Fit the CTMC to a campaign's failure reports and measured MTTF."""
    if mttf <= 0:
        raise ValueError("MTTF must be positive")
    return build_ctmc(
        1.0 / mttf, severity_distribution(records), repair_times
    )


@dataclass(frozen=True)
class ModelValidation:
    """Model-vs-measurement comparison for one campaign."""

    model_availability: float
    measured_availability: float

    @property
    def relative_error(self) -> float:
        if self.measured_availability == 0:
            return float("inf")
        return abs(self.model_availability - self.measured_availability) / (
            self.measured_availability
        )


def validate_against_measurement(
    model: AvailabilityModel, measured_availability: float
) -> ModelValidation:
    """Package the comparison between model and campaign measurement."""
    return ModelValidation(
        model_availability=model.availability,
        measured_availability=measured_availability,
    )


__all__ = [
    "AvailabilityModel",
    "ModelValidation",
    "build_ctmc",
    "model_from_records",
    "severity_distribution",
    "cumulative_repair_times",
    "validate_against_measurement",
    "N_LEVELS",
]
