"""Failure-intensity trend analysis.

The paper replaced both testbeds' hardware mid-campaign "in order to
reduce hardware aging phenomena" (§3) — i.e., it worried about the
failure intensity trending upward over months of 24/7 operation.  This
module provides the standard tools to check such worries on collected
failure data:

* a windowed failure-intensity series (failures per hour over time);
* the **Laplace trend test** — the classic dependability statistic: for
  failure times t_1..t_n over an observation period T, the Laplace
  factor is approximately standard normal under a homogeneous Poisson
  process.  Values ≳ +2 indicate reliability *decay* (aging), ≲ −2
  reliability growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.collection.records import TestLogRecord
from repro.collection.store import MASKED, TIME, Row
from .failure_model import UserFailureType


@dataclass(frozen=True)
class TrendResult:
    """Outcome of a Laplace trend test."""

    laplace_factor: float
    n_failures: int
    period: float

    @property
    def verdict(self) -> str:
        """"aging", "improving" or "stationary" at the ~95 % level."""
        if self.laplace_factor >= 1.96:
            return "aging"
        if self.laplace_factor <= -1.96:
            return "improving"
        return "stationary"


def laplace_test(failure_times: Sequence[float], period: float) -> TrendResult:
    """Laplace trend test over failure times in [0, period].

    u = (mean(t_i)/T - 1/2) * sqrt(12 n)
    """
    if period <= 0:
        raise ValueError("observation period must be positive")
    times = [t for t in failure_times]
    if any(t < 0 or t > period for t in times):
        raise ValueError("failure times must lie within [0, period]")
    n = len(times)
    if n == 0:
        return TrendResult(laplace_factor=0.0, n_failures=0, period=period)
    mean_fraction = sum(times) / (n * period)
    u = (mean_fraction - 0.5) * math.sqrt(12.0 * n)
    return TrendResult(laplace_factor=u, n_failures=n, period=period)


def intensity_series(
    records: Iterable[TestLogRecord],
    period: float,
    window: float = 3600.0,
) -> List[Tuple[float, float]]:
    """Failures per hour in consecutive windows: [(window start, rate)].

    The final partial window is rated over its actual width.
    """
    if period <= 0 or window <= 0:
        raise ValueError("period and window must be positive")
    n_windows = max(1, math.ceil(period / window))
    counts = [0] * n_windows
    for record in records:
        if record.masked:
            continue
        index = min(int(record.time // window), n_windows - 1)
        counts[index] += 1
    series = []
    for index, count in enumerate(counts):
        start = index * window
        width = min(window, period - start)
        rate = count / (width / 3600.0) if width > 0 else 0.0
        series.append((start, rate))
    return series


class FailureTimes:
    """The unmasked failure times of a time-ordered report stream."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Keep the time of one report's row if it is unmasked."""
        if not row[MASKED]:
            self.times.append(row[TIME])

    def trend(self, period: float) -> TrendResult:
        """Laplace test over the times folded so far."""
        return laplace_test(self.times, period)


def campaign_trend(records: Iterable[TestLogRecord], period: float) -> TrendResult:
    """Laplace test over a campaign's unmasked failure reports."""
    return laplace_test([record.time for record in records if not record.masked], period)


def replacement_effect(
    records: Iterable[TestLogRecord],
    period: float,
) -> Tuple[float, float]:
    """Failure rates (per hour) before and after the mid-campaign swap.

    The paper replaced the hardware at the midpoint; with stationary
    fault processes (ours, and what the paper hoped to achieve) the two
    halves should match.
    """
    half = period / 2.0
    first = second = 0
    for record in records:
        if record.masked:
            continue
        if record.time < half:
            first += 1
        else:
            second += 1
    hours = half / 3600.0
    return (first / hours if hours else 0.0, second / hours if hours else 0.0)


__all__ = [
    "TrendResult",
    "laplace_test",
    "intensity_series",
    "campaign_trend",
    "FailureTimes",
    "replacement_effect",
]
