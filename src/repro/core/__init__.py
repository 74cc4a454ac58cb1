"""The paper's contribution: failure model, merge-and-coalesce analysis,
error-failure relationships, SIRA effectiveness, dependability estimation
and failure-distribution studies."""

from .failure_model import (
    FailureModel,
    SystemFailureType,
    SystemLocation,
    UserFailureGroup,
    UserFailureType,
)
from .classification import (
    classification_report,
    classify_system_message,
    classify_system_record,
    classify_user_message,
    classify_user_record,
)
from .merge import MergedEntry, Source, merge_node_logs, merge_records
from .coalescence import (
    PAPER_WINDOW,
    SensitivityResult,
    Tuple_,
    coalesce,
    default_windows,
    sensitivity_analysis,
)
from .relationship import (
    NO_EVIDENCE,
    RelationshipTable,
    all_columns,
    build_relationship_table,
    column_key,
)
from .sira_analysis import SiraTable, build_sira_table, record_severity
from .dependability import (
    DependabilityReport,
    ScenarioMetrics,
    build_dependability_report,
    compute_scenario,
    scenario_ttr,
)
from .distributions import (
    IdleTimeAnalysis,
    failures_by_distance,
    failures_by_node,
    idle_time_analysis,
    packet_loss_by_application,
    packet_loss_by_connection_age,
    packet_loss_by_packet_type,
    workload_split,
)
from .campaign import (
    CampaignResult,
    DAY,
    DEFAULT_DURATION,
    run_connection_length_experiment,
)
from .markov import (
    AvailabilityModel,
    build_ctmc,
    model_from_records,
    validate_against_measurement,
)
from .trends import (
    TrendResult,
    campaign_trend,
    intensity_series,
    laplace_test,
    replacement_effect,
)

__all__ = [
    "FailureModel",
    "UserFailureType",
    "UserFailureGroup",
    "SystemFailureType",
    "SystemLocation",
    "classify_user_message",
    "classify_system_message",
    "classify_user_record",
    "classify_system_record",
    "classification_report",
    "Source",
    "MergedEntry",
    "merge_records",
    "merge_node_logs",
    "Tuple_",
    "coalesce",
    "sensitivity_analysis",
    "default_windows",
    "SensitivityResult",
    "PAPER_WINDOW",
    "RelationshipTable",
    "build_relationship_table",
    "column_key",
    "all_columns",
    "NO_EVIDENCE",
    "SiraTable",
    "build_sira_table",
    "record_severity",
    "ScenarioMetrics",
    "DependabilityReport",
    "compute_scenario",
    "scenario_ttr",
    "build_dependability_report",
    "packet_loss_by_packet_type",
    "packet_loss_by_connection_age",
    "packet_loss_by_application",
    "failures_by_node",
    "failures_by_distance",
    "workload_split",
    "IdleTimeAnalysis",
    "idle_time_analysis",
    "CampaignResult",
    "run_connection_length_experiment",
    "DAY",
    "DEFAULT_DURATION",
    "AvailabilityModel",
    "build_ctmc",
    "model_from_records",
    "validate_against_measurement",
    "TrendResult",
    "laplace_test",
    "intensity_series",
    "campaign_trend",
    "replacement_effect",
]
