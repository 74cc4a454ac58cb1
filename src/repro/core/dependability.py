"""Dependability improvement estimation (Table 4 of the paper).

Four scenarios are compared:

1. **Only Reboot** — a typical user reboots the terminal on every failure.
2. **App restart and Reboot** — the user first restarts the application,
   and reboots when that does not help.
3. **With only SIRAs** — the automated cascade, as measured.
4. **SIRAs and masking** — cascade plus the error masking strategies.

Scenarios 1 and 2 are *derived* from the collected data: each failure's
severity (which SIRA level finally cleared it) determines what the
manual policy would have cost.  Scenario 3 uses the measured recovery
times; scenario 4 uses the records of a masking-enabled campaign.
The user thinking time is assumed zero, giving upper-bound figures.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.collection.records import TestLogRecord
from repro.collection.store import MASKED, NODE, RECOVERY, TIME, Row
from repro.faults.calibration import MAX_SYSTEM_REBOOTS, SIRA_DURATIONS
from .failure_model import UserFailureType
from .sira_analysis import record_severity, recovery_outcome

#: Manual action costs (seconds), shared with the SIRA calibration.
APP_RESTART_TIME = SIRA_DURATIONS[3]
REBOOT_TIME = SIRA_DURATIONS[5]
#: Expected number of reboots when one is not enough (2..MAX uniform).
EXPECTED_MULTI_REBOOTS = (2 + MAX_SYSTEM_REBOOTS) / 2.0

#: Floor for a time-to-failure sample: two failures closer than the
#: scenario's recovery time still count as (at least) 1 s apart.
MIN_TTF_FLOOR = 1.0

SCENARIOS = ("only_reboot", "app_restart_reboot", "siras", "siras_masking")


@dataclass(frozen=True)
class ScenarioMetrics:
    """One column of Table 4."""

    name: str
    mttf: float
    mttr: float
    coverage_pct: float
    masking_pct: float
    min_ttf: float
    max_ttf: float
    std_ttf: float
    min_ttr: float
    max_ttr: float
    std_ttr: float
    failures: int

    @property
    def availability(self) -> float:
        """A = MTTF / (MTTF + MTTR)."""
        denominator = self.mttf + self.mttr
        return self.mttf / denominator if denominator else 0.0


def scenario_ttr(record: TestLogRecord, scenario: str) -> float:
    """What recovering this failure costs under ``scenario``."""
    return _ttr(record_severity(record), record.time_to_recover, scenario)


def _ttr(severity: Optional[int], time_to_recover: float, scenario: str) -> float:
    """:func:`scenario_ttr` of a failure of ``severity``."""
    if severity is None:
        return 0.0  # no recovery defined (data mismatch)
    if scenario in ("siras", "siras_masking"):
        return time_to_recover
    if scenario == "only_reboot":
        if severity <= 6:
            return REBOOT_TIME
        return REBOOT_TIME * (1 + EXPECTED_MULTI_REBOOTS)
    if scenario == "app_restart_reboot":
        if severity <= 4:
            return APP_RESTART_TIME
        if severity <= 6:
            return APP_RESTART_TIME + REBOOT_TIME
        return APP_RESTART_TIME + REBOOT_TIME * (1 + EXPECTED_MULTI_REBOOTS)
    raise ValueError(f"unknown scenario: {scenario!r}")


def _per_node(records: Iterable[TestLogRecord]) -> Dict[str, List[TestLogRecord]]:
    nodes: Dict[str, List[TestLogRecord]] = {}
    for record in records:
        nodes.setdefault(record.node, []).append(record)
    for stream in nodes.values():
        stream.sort(key=lambda r: r.time)
    return nodes


def compute_scenario(
    records: Sequence[TestLogRecord],
    scenario: str,
    campaign_start: float = 0.0,
    masked_count: int = 0,
) -> ScenarioMetrics:
    """Compute one Table 4 column from a set of failure reports.

    ``records`` must be the *unmasked* failure reports of one campaign;
    ``masked_count`` the number of masked incidents of the same
    campaign (zero for masking-off campaigns).
    """
    ttf_samples: List[float] = []
    ttr_samples: List[float] = []
    severities: List[Optional[int]] = []
    for node, stream in _per_node(records).items():
        previous_end = campaign_start
        for record in stream:
            ttf_samples.append(max(MIN_TTF_FLOOR, record.time - previous_end))
            ttr = scenario_ttr(record, scenario)
            severity = record_severity(record)
            if severity is not None:
                # Failures with no recovery defined (data mismatch) are
                # not repairs: they carry no TTR sample in any scenario.
                ttr_samples.append(ttr)
            severities.append(severity)
            previous_end = record.time + ttr
    failures = len(records)
    cheap = sum(1 for s in severities if s is not None and s <= 3)
    total_incidents = failures + masked_count
    if scenario in ("siras", "siras_masking"):
        coverage = 100.0 * (cheap + masked_count) / total_incidents if total_incidents else 0.0
    else:
        coverage = 0.0  # manual scenarios recover nothing without user action
    masking_pct = 100.0 * masked_count / total_incidents if total_incidents else 0.0
    return ScenarioMetrics(
        name=scenario,
        mttf=_mean(ttf_samples),
        mttr=_mean(ttr_samples),
        coverage_pct=coverage,
        masking_pct=masking_pct,
        min_ttf=min(ttf_samples) if ttf_samples else 0.0,
        max_ttf=max(ttf_samples) if ttf_samples else 0.0,
        std_ttf=_std(ttf_samples),
        min_ttr=min(ttr_samples) if ttr_samples else 0.0,
        max_ttr=max(ttr_samples) if ttr_samples else 0.0,
        std_ttr=_std(ttr_samples),
        failures=failures,
    )


class _RunningStats:
    """Streaming count/sum/min/max plus Welford variance accumulator."""

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = 0.0
        self.maximum = 0.0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        # Welford's M2 can round a hair below zero for constant samples.
        return math.sqrt(max(0.0, self._m2 / self.count))


class ScenarioAccumulator:
    """Single-pass Table 4 metrics over a time-ordered failure stream.

    The streaming counterpart of :func:`compute_scenario`: feed it the
    report rows of one campaign in global time order (which implies the
    per-node order the TTF recurrence needs; masked ones are skipped)
    and read :meth:`result`.  State is one ``previous_end`` entry per node
    plus O(1) running statistics, so a 1000-seed sweep's record stream
    folds at constant memory instead of materialising sample lists.

    Variance uses Welford's recurrence and the mean a running sum, so
    figures can differ from the materialised :func:`compute_scenario`
    in the last ulp — but they are exactly reproducible for a fixed
    feed order, and the :class:`repro.collection.store.FailureStore`
    iteration contract (time-ordered, ingestion-stable ties) pins that
    order down for every backend.  Identical streams therefore yield
    byte-identical metrics whichever store produced them.
    """

    def __init__(self, scenario: str, campaign_start: float = 0.0) -> None:
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {scenario!r}")
        self.scenario = scenario
        self.campaign_start = campaign_start
        self._previous_end: Dict[str, float] = {}
        self._ttf = _RunningStats()
        self._ttr = _RunningStats()
        self._failures = 0
        self._cheap = 0

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Fold one report's row: masked ones never reached the user."""
        if row[MASKED]:
            return
        node, time = row[NODE], row[TIME]
        severity, _, time_to_recover = recovery_outcome(row[RECOVERY])
        previous_end = self._previous_end.get(node, self.campaign_start)
        self._ttf.add(max(MIN_TTF_FLOOR, time - previous_end))
        ttr = _ttr(severity, time_to_recover, self.scenario)
        if severity is not None:
            # Failures with no recovery defined (data mismatch) are
            # not repairs: they carry no TTR sample in any scenario.
            self._ttr.add(ttr)
            if severity <= 3:
                self._cheap += 1
        self._failures += 1
        self._previous_end[node] = time + ttr

    @property
    def failures(self) -> int:
        return self._failures

    def result(self, masked_count: int = 0) -> ScenarioMetrics:
        """The Table 4 column for everything folded in so far."""
        total_incidents = self._failures + masked_count
        if self.scenario in ("siras", "siras_masking"):
            coverage = (
                100.0 * (self._cheap + masked_count) / total_incidents if total_incidents else 0.0
            )
        else:
            coverage = 0.0  # manual scenarios recover nothing without user action
        masking_pct = 100.0 * masked_count / total_incidents if total_incidents else 0.0
        return ScenarioMetrics(
            name=self.scenario,
            mttf=self._ttf.mean,
            mttr=self._ttr.mean,
            coverage_pct=coverage,
            masking_pct=masking_pct,
            min_ttf=self._ttf.minimum,
            max_ttf=self._ttf.maximum,
            std_ttf=self._ttf.std,
            min_ttr=self._ttr.minimum,
            max_ttr=self._ttr.maximum,
            std_ttr=self._ttr.std,
            failures=self._failures,
        )


@dataclass(frozen=True)
class DependabilityReport:
    """All four Table 4 columns plus the headline improvements."""

    scenarios: Dict[str, ScenarioMetrics]

    def __getitem__(self, name: str) -> ScenarioMetrics:
        return self.scenarios[name]

    @property
    def availability_improvement_vs_reboot(self) -> float:
        """% availability improvement of SIRAs+masking over scenario 1."""
        base = self.scenarios["only_reboot"].availability
        best = self.scenarios["siras_masking"].availability
        return 100.0 * (best - base) / base if base else 0.0

    @property
    def availability_improvement_vs_app_restart(self) -> float:
        base = self.scenarios["app_restart_reboot"].availability
        best = self.scenarios["siras_masking"].availability
        return 100.0 * (best - base) / base if base else 0.0

    @property
    def reliability_improvement(self) -> float:
        """% MTTF improvement of SIRAs+masking over the unmasked runs."""
        base = self.scenarios["siras"].mttf
        best = self.scenarios["siras_masking"].mttf
        return 100.0 * (best - base) / base if base else 0.0


def build_dependability_report(
    baseline_records: Sequence[TestLogRecord],
    masked_campaign_records: Sequence[TestLogRecord],
    masked_count: int,
    campaign_start: float = 0.0,
) -> DependabilityReport:
    """Assemble Table 4.

    ``baseline_records``: unmasked failure reports of the masking-off
    campaign (drives scenarios 1-3).  ``masked_campaign_records``: the
    *unmasked* residual failures of the masking-on campaign, with
    ``masked_count`` the incidents its masking absorbed.
    """
    scenarios = {
        name: compute_scenario(baseline_records, name, campaign_start)
        for name in ("only_reboot", "app_restart_reboot", "siras")
    }
    scenarios["siras_masking"] = compute_scenario(
        masked_campaign_records, "siras_masking", campaign_start, masked_count
    )
    return DependabilityReport(scenarios=scenarios)


def _mean(samples: List[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def _std(samples: List[float]) -> float:
    return statistics.pstdev(samples) if len(samples) > 1 else 0.0


__all__ = [
    "ScenarioMetrics",
    "ScenarioAccumulator",
    "DependabilityReport",
    "compute_scenario",
    "scenario_ttr",
    "build_dependability_report",
    "SCENARIOS",
    "REBOOT_TIME",
    "APP_RESTART_TIME",
    "MIN_TTF_FLOOR",
]
