"""Failure distribution analyses (paper §6, figures 3 and 4).

All functions take failure reports (and, where needed, the workload's
aggregate cycle statistics) and return plain dictionaries/series ready
for the reporting layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bluetooth.packets import PACKET_TYPE_ORDER
from repro.collection.records import TestLogRecord
from repro.collection.store import MASKED, PACKET_TYPE, PACKETS_SENT, TESTBED, WORKLOAD, Row
from repro.collection.store import _test_row
from repro.workload.bluetest import CycleStats
from .classification import classify_user_record
from .failure_model import UserFailureType


#: Figure 3b's bins over the packets sent before a loss (logical packets).
CONNECTION_AGE_BINS: Tuple[int, ...] = (0, 100, 250, 500, 1000, 2000, 4000, 7000, 10000)


class PacketLosses:
    """Figure 3's packet-loss failures, binned three ways in one pass.

    Counts every unmasked packet-loss report by Baseband packet type
    (3a), by packets sent before the loss (3b, over ``bin_edges``) and
    by emulated application (3c); the ``*_shares`` views turn the counts
    into the figures' percentages.
    """

    def __init__(self, bin_edges: Sequence[int] = CONNECTION_AGE_BINS) -> None:
        self.edges = list(bin_edges)
        self.by_packet_type: Dict[str, int] = {t.value: 0 for t in PACKET_TYPE_ORDER}
        self.by_age = [0] * (len(self.edges) - 1)
        self.by_application: Dict[str, int] = {}

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Count one report's row if it is an unmasked packet loss."""
        if row[MASKED] or user_type is not UserFailureType.PACKET_LOSS:
            return
        packet_type = row[PACKET_TYPE]
        if packet_type in self.by_packet_type:
            self.by_packet_type[packet_type] += 1
        edges = self.edges
        sent = row[PACKETS_SENT]
        for i in range(len(edges) - 1):
            if edges[i] <= sent < edges[i + 1]:
                self.by_age[i] += 1
                break
        else:
            if sent >= edges[-1]:
                self.by_age[-1] += 1
        workload = row[WORKLOAD]
        if workload != "random":
            self.by_application[workload] = self.by_application.get(workload, 0) + 1

    def packet_type_shares(
        self, cycles_by_type: Optional[Dict[str, int]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Figure 3a: see :func:`packet_loss_by_packet_type`."""
        total = sum(self.by_packet_type.values())
        result: Dict[str, Dict[str, float]] = {}
        for name, count in self.by_packet_type.items():
            entry = {"share_pct": 100.0 * count / total if total else 0.0, "losses": float(count)}
            if cycles_by_type:
                cycles = cycles_by_type.get(name, 0)
                entry["loss_rate_pct"] = 100.0 * count / cycles if cycles else 0.0
            result[name] = entry
        return result

    def connection_age_shares(self) -> List[Tuple[str, float]]:
        """Figure 3b: see :func:`packet_loss_by_connection_age`."""
        edges = self.edges
        total = sum(self.by_age)
        labels = [f"{edges[i]}-{edges[i + 1]}" for i in range(len(edges) - 1)]
        return [
            (label, 100.0 * count / total if total else 0.0)
            for label, count in zip(labels, self.by_age)
        ]

    def application_shares(self) -> Dict[str, float]:
        """Figure 3c: see :func:`packet_loss_by_application`."""
        total = sum(self.by_application.values())
        return {
            app: 100.0 * count / total if total else 0.0
            for app, count in sorted(self.by_application.items())
        }


def _packet_losses(
    records: Iterable[TestLogRecord],
    bin_edges: Sequence[int] = CONNECTION_AGE_BINS,
) -> PacketLosses:
    losses = PacketLosses(bin_edges)
    for record in records:
        losses.add_test(_test_row(record), classify_user_record(record))
    return losses


def packet_loss_by_packet_type(
    records: Iterable[TestLogRecord],
    cycles_by_type: Optional[Dict[str, int]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 3a: packet-loss failures vs Baseband packet type.

    Returns, per packet type, the share of all packet-loss failures
    (the figure's y-axis) and — when ``cycles_by_type`` is given — the
    per-cycle loss *rate*, which removes the workload's binomial
    type-selection bias.
    """
    return _packet_losses(records).packet_type_shares(cycles_by_type)


def packet_loss_by_connection_age(
    records: Iterable[TestLogRecord],
    bin_edges: Sequence[int] = CONNECTION_AGE_BINS,
) -> List[Tuple[str, float]]:
    """Figure 3b: packet-loss share vs packets sent before the loss.

    Returns (bin label, percentage) pairs over the given bin edges
    (logical packets).
    """
    return _packet_losses(records, bin_edges).connection_age_shares()


def packet_loss_by_application(
    records: Iterable[TestLogRecord],
) -> Dict[str, float]:
    """Figure 3c: packet-loss share per emulated networked application."""
    return _packet_losses(records).application_shares()


def failures_by_node(
    records: Iterable[TestLogRecord],
    testbed: Optional[str] = "realistic",
) -> Dict[str, Dict[str, float]]:
    """Figure 4: user-failure frequency distribution per host.

    Returns {host: {failure type value: share of that type's failures
    occurring on this host (%)}}.  The NAP never appears: it records
    only system-level data.
    """
    filtered = [
        r
        for r in records
        if not r.masked and (testbed is None or r.testbed == testbed)
    ]
    per_type_total: Dict[UserFailureType, int] = {}
    per_node_type: Dict[str, Dict[UserFailureType, int]] = {}
    for record in filtered:
        failure = classify_user_record(record)
        if failure is None:
            continue
        host = record.node.split(":", 1)[-1]
        per_type_total[failure] = per_type_total.get(failure, 0) + 1
        per_node_type.setdefault(host, {})[failure] = (
            per_node_type.setdefault(host, {}).get(failure, 0) + 1
        )
    result: Dict[str, Dict[str, float]] = {}
    for host, type_counts in sorted(per_node_type.items()):
        result[host] = {
            failure.value: 100.0 * count / per_type_total[failure]
            for failure, count in type_counts.items()
        }
    return result


def failures_by_distance(
    records: Iterable[TestLogRecord],
    testbed: Optional[str] = "realistic",
    exclude_bind: bool = True,
) -> Dict[float, float]:
    """§6: failure share per antenna distance (bind failures excluded).

    Bind failures would bias the measure — they only manifest on two
    hosts — so the paper leaves them out.
    """
    counts: Dict[float, int] = {}
    for record in records:
        if record.masked:
            continue
        if testbed is not None and record.testbed != testbed:
            continue
        failure = classify_user_record(record)
        if failure is None:
            continue
        if exclude_bind and failure is UserFailureType.BIND_FAILED:
            continue
        counts[record.distance] = counts.get(record.distance, 0) + 1
    total = sum(counts.values())
    return {
        distance: 100.0 * count / total if total else 0.0
        for distance, count in sorted(counts.items())
    }


class WorkloadSplit:
    """Unmasked failure counts per testbed, folded one row at a time."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Count one report's row if it is unmasked."""
        if not row[MASKED]:
            testbed = row[TESTBED]
            self.counts[testbed] = self.counts.get(testbed, 0) + 1

    def shares(self) -> Dict[str, float]:
        """Each testbed's percentage of the counted failures."""
        total = sum(self.counts.values())
        return {
            name: 100.0 * count / total if total else 0.0
            for name, count in sorted(self.counts.items())
        }


def workload_split(records: Iterable[TestLogRecord]) -> Dict[str, float]:
    """§6: share of failures generated by each testbed (random vs realistic)."""
    split = WorkloadSplit()
    for record in records:
        split.add_test(_test_row(record), None)
    return split.shares()


def workload_independence(
    records: Iterable[TestLogRecord],
    min_expected: int = 5,
) -> Dict[str, object]:
    """§4's claim: "Failure manifestations are workload independent".

    The same failure *types* appear regardless of the workload being
    run; only the *rates* differ.  Returns the per-testbed type sets and
    the types common to both, restricted to types frequent enough that
    their absence from one testbed would be informative
    (``min_expected`` observations overall).
    """
    per_testbed: Dict[str, Dict[UserFailureType, int]] = {}
    for record in records:
        if record.masked:
            continue
        failure = classify_user_record(record)
        if failure is None:
            continue
        per_testbed.setdefault(record.testbed, {})[failure] = (
            per_testbed.setdefault(record.testbed, {}).get(failure, 0) + 1
        )
    totals: Dict[UserFailureType, int] = {}
    for counts in per_testbed.values():
        for failure, count in counts.items():
            totals[failure] = totals.get(failure, 0) + count
    grand_total = sum(totals.values())
    type_sets = {name: set(counts) for name, counts in per_testbed.items()}
    common = set.intersection(*type_sets.values()) if type_sets else set()
    # A type's absence from a testbed is only informative when enough of
    # it was *expected* there: with an 84/16 failure split, a type with
    # a dozen total occurrences may legitimately miss the small testbed.
    violations = set()
    frequent = set()
    for name, counts in per_testbed.items():
        fraction = (
            sum(counts.values()) / grand_total if grand_total else 0.0
        )
        for failure, total in totals.items():
            expected_here = total * fraction
            if expected_here >= min_expected:
                frequent.add(failure)
                if failure not in counts:
                    violations.add(failure)
    return {
        "types_per_testbed": type_sets,
        "frequent_types": frequent,
        "common_types": common,
        "violations": violations,
        "independent": not violations if type_sets else False,
        "rates": {
            name: {f.value: n for f, n in counts.items()}
            for name, counts in per_testbed.items()
        },
    }


@dataclass(frozen=True)
class IdleTimeAnalysis:
    """§6: does leaving a connection idle cause failures?"""

    mean_idle_before_failure: float
    mean_idle_before_ok: float
    failed_cycles: int
    ok_cycles: int

    @property
    def idle_connections_harmless(self) -> bool:
        """True when the two means are within 20 % of each other —
        the paper's evidence that idle connections do not fail more."""
        a, b = self.mean_idle_before_failure, self.mean_idle_before_ok
        if a == 0.0 or b == 0.0:
            return False
        return abs(a - b) / max(a, b) < 0.20


def idle_time_analysis(stats: Iterable[CycleStats]) -> IdleTimeAnalysis:
    """Aggregate the clients' idle-time bookkeeping (realistic WL)."""
    fail_sum = fail_count = ok_sum = ok_count = 0.0
    for stat in stats:
        fail_sum += stat.idle_fail_sum
        fail_count += stat.idle_fail_count
        ok_sum += stat.idle_ok_sum
        ok_count += stat.idle_ok_count
    return IdleTimeAnalysis(
        mean_idle_before_failure=fail_sum / fail_count if fail_count else 0.0,
        mean_idle_before_ok=ok_sum / ok_count if ok_count else 0.0,
        failed_cycles=int(fail_count),
        ok_cycles=int(ok_count),
    )


__all__ = [
    "CONNECTION_AGE_BINS",
    "PacketLosses",
    "WorkloadSplit",
    "workload_independence",
    "packet_loss_by_packet_type",
    "packet_loss_by_connection_age",
    "packet_loss_by_application",
    "failures_by_node",
    "failures_by_distance",
    "workload_split",
    "IdleTimeAnalysis",
    "idle_time_analysis",
]
