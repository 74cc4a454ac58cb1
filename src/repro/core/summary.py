"""One-call full analysis report.

Bundles every analysis derivable from a repository into a single
structured result plus a rendered text report — what the CLI prints and
what the full-scale tool archives.  Dependability scenario comparison
(Table 4) needs a *pair* of campaigns and stays in
:mod:`repro.core.dependability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.collection.store import FailureStore
from repro.reporting import (
    format_bar_chart,
    render_relationship_table,
    render_sira_table,
)
from .classification import ClassificationCounts, classify_user_record
from .dependability import ScenarioAccumulator, ScenarioMetrics
from .distributions import PacketLosses, WorkloadSplit
from .failure_model import FailureModel
from .merge import fold_store
from .relationship import RelationshipMiner, RelationshipTable
from .relationship import build_relationship_table  # noqa: F401  (traced by name here)
from .sira_analysis import SiraTable
from .sira_analysis import build_sira_table  # noqa: F401  (traced by name here)
from .trends import FailureTimes, TrendResult


@dataclass
class AnalysisSummary:
    """Every single-repository analysis, in one object."""

    repository_summary: Dict[str, int]
    classification: Dict[str, int]
    relationship: RelationshipTable
    sira: SiraTable
    siras_metrics: ScenarioMetrics
    split: Dict[str, float]
    by_application: Dict[str, float]
    connection_age: List[Tuple[str, float]]
    trend: Optional[TrendResult]

    def render(self) -> str:
        """The full text report."""
        sections: List[str] = [FailureModel.as_table(), ""]
        totals = self.repository_summary
        sections.append(
            f"Failure data items: {totals['total_failure_data_items']} "
            f"({totals['user_level_reports']} user, "
            f"{totals['system_level_entries']} system); "
            f"classified {self.classification['user_classified']}/"
            f"{self.classification['user_total']} user reports."
        )
        sections.append("")
        sections.append(render_relationship_table(self.relationship))
        sections.append("")
        sections.append(render_sira_table(self.sira))
        metrics = self.siras_metrics
        sections.append("")
        sections.append(
            f"MTTF {metrics.mttf:.0f} s | MTTR {metrics.mttr:.1f} s | "
            f"availability {metrics.availability:.3f} | "
            f"coverage {metrics.coverage_pct:.1f}%"
        )
        if self.split:
            sections.append(
                "Workload split: "
                + ", ".join(f"{k} {v:.1f}%" for k, v in self.split.items())
            )
        if self.trend is not None and self.trend.n_failures:
            sections.append(
                f"Failure-intensity trend: {self.trend.verdict} "
                f"(Laplace factor {self.trend.laplace_factor:+.2f})"
            )
        if self.by_application:
            sections.append("")
            sections.append(format_bar_chart(
                sorted(self.by_application.items(), key=lambda kv: -kv[1]),
                title="Packet losses per application",
            ))
        if any(share for _, share in self.connection_age):
            sections.append("")
            sections.append(format_bar_chart(
                self.connection_age, title="Packet losses vs connection age"
            ))
        return "\n".join(sections)


def campaign_statistics(
    repository: FailureStore,
    node_nap_pairs: List[Tuple[str, str]],
    duration: Optional[float] = None,
) -> Dict[str, float]:
    """The Table 1-4 statistics of one campaign, as a flat scalar dict.

    This is the per-replicate view the sweep pool pools across seeds
    (:mod:`repro.parallel`): every key is always present (absent
    categories read 0.0) so shards from different seeds share one
    schema, and every value is a plain float so the dict crosses
    process boundaries and JSON checkpoints unchanged.  Key order is
    deterministic — pooled tables render identically run to run.

    Works against any :class:`FailureStore`: the statistics are read off
    :func:`summarize_repository`'s single merged pass (one test cursor,
    one system cursor, relationship coalescers for every PANU at once),
    so a 1000-seed sweep's record stream is analysed out-of-core, never
    materialised.  The store iteration contract (time order,
    ingestion-stable ties) makes the result byte-identical whichever
    backend holds the data.
    """
    from .failure_model import UserFailureType

    summary = summarize_repository(repository, node_nap_pairs)
    totals = summary.repository_summary
    metrics = summary.siras_metrics
    unmasked = metrics.failures
    stats: Dict[str, float] = {
        "total_failure_data_items": float(totals["total_failure_data_items"]),
        "user_level_reports": float(totals["user_level_reports"]),
        "system_level_entries": float(totals["system_level_entries"]),
        "unmasked_user_failures": float(unmasked),
        "masked_user_failures": float(totals["user_level_reports"] - unmasked),
    }
    if duration:
        stats["failures_per_day"] = unmasked / (duration / 86_400.0)
    user_total = totals["user_level_reports"]
    stats["user_classified_pct"] = (
        100.0 * summary.classification["user_classified"] / user_total if user_total else 0.0
    )
    shares = summary.relationship.shares()
    for failure_type in UserFailureType:
        stats[f"failure_share_pct.{failure_type.name}"] = shares.get(failure_type, 0.0)
    if unmasked:
        stats["mttf_s"] = metrics.mttf
        stats["mttr_s"] = metrics.mttr
        stats["availability"] = metrics.availability
        stats["coverage_pct"] = metrics.coverage_pct
    else:
        stats["mttf_s"] = stats["mttr_s"] = 0.0
        stats["availability"] = stats["coverage_pct"] = 0.0
    for testbed in ("random", "realistic"):
        stats[f"workload_split_pct.{testbed}"] = summary.split.get(testbed, 0.0)
    return stats


def importance_estimates(
    repository: FailureStore,
    duration: float,
    boost: float,
    boosted_types: Tuple["UserFailureType", ...],
) -> Dict[str, float]:
    """Reweighted Table 1-4 estimates from one *boosted* replicate.

    A replicate run with ``CampaignSpec.rare_boost = boost`` activates
    every failure class in ``boosted_types`` ``boost`` times more often,
    so its raw tables over-count them by the same factor.  This is the
    estimator half of that importance-sampling scheme: each classified
    unmasked failure report carries the per-trial likelihood ratio as a
    weight — ``1 / boost`` for boosted classes, ``1`` otherwise — and
    the weighted counts are unbiased Horvitz-Thompson estimates of the
    *nominal* expected counts (``E_q[w · 1{fail}] = q · p/q = p`` per
    stack-operation trial).  Shares are the self-normalised ratio of
    weighted counts, mirroring the plain pipeline's ratio of raw counts.

    Only the statistics a tilted replicate can estimate are returned:
    count/rate keys and the per-class shares.  Path-dependent keys
    (MTTF, availability, coverage, workload split) are deliberately
    absent — boosting changes recovery dynamics, so a boosted replicate
    is simply not a valid sample of them; the sweep pool takes those
    keys from the nominal stratum alone.

    All reductions use :func:`math.fsum`, so pooled merges of these
    estimates keep the sweep's byte-identity guarantees.
    """
    import math

    from .failure_model import UserFailureType

    if boost < 1.0:
        raise ValueError("boost must be >= 1")
    boosted = frozenset(boosted_types)
    inverse = 1.0 / boost
    per_type: Dict[UserFailureType, List[float]] = {}
    for record in repository.iter_records(kind="test"):
        if record.masked:
            continue
        failure_type = classify_user_record(record)
        if failure_type is None:
            continue
        weight = inverse if failure_type in boosted else 1.0
        per_type.setdefault(failure_type, []).append(weight)
    type_counts = {
        failure_type: math.fsum(weights)
        for failure_type, weights in per_type.items()
    }
    total = math.fsum(type_counts[t] for t in UserFailureType if t in type_counts)
    estimates: Dict[str, float] = {
        "unmasked_user_failures": total,
    }
    if duration:
        estimates["failures_per_day"] = total / (duration / 86_400.0)
    for failure_type in UserFailureType:
        share = (
            100.0 * type_counts.get(failure_type, 0.0) / total if total else 0.0
        )
        estimates[f"failure_share_pct.{failure_type.name}"] = share
    return estimates


def summarize_repository(
    repository: FailureStore,
    node_nap_pairs: List[Tuple[str, str]],
    duration: Optional[float] = None,
) -> AnalysisSummary:
    """Run every single-repository analysis in one pass over the store.

    One merged, time-ordered scan (:func:`repro.core.merge.fold_store`:
    one test cursor, one system cursor, each message text classified
    once) feeds every accumulator — classification counts, the per-pair
    relationship coalescers, the SIRA table, the Table 4 scenario, the
    workload split, the packet-loss figures and the failure times — so
    each stored row is decoded once, memory stays bounded (one open
    tuple per PANU) and the report works against the on-disk columnar
    store as well as the in-memory oracle.
    """
    classification = ClassificationCounts()
    relationship = RelationshipMiner(node_nap_pairs)
    sira = SiraTable()
    scenario = ScenarioAccumulator("siras")
    split = WorkloadSplit()
    losses = PacketLosses()
    failures = FailureTimes()
    tests = [
        classification.add_test,
        relationship.add_test,
        sira.add_test,
        scenario.add_test,
        split.add_test,
        losses.add_test,
    ]
    if duration:
        tests.append(failures.add_test)
    fold_store(
        repository,
        tests=tests,
        systems=(classification.add_system, relationship.add_system),
    )
    users, systems = classification.user_total, classification.system_total
    return AnalysisSummary(
        repository_summary={
            "user_level_reports": users,
            "system_level_entries": systems,
            "total_failure_data_items": users + systems,
        },
        classification=classification.report(),
        relationship=relationship.result(),
        sira=sira,
        siras_metrics=scenario.result(),
        split=split.shares(),
        by_application=losses.application_shares(),
        connection_age=losses.connection_age_shares(),
        trend=failures.trend(duration) if duration else None,
    )


__all__ = [
    "AnalysisSummary",
    "campaign_statistics",
    "importance_estimates",
    "summarize_repository",
]
