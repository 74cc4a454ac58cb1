"""repro — reproduction of "Collecting and Analyzing Failure Data of
Bluetooth Personal Area Networks" (Cinque, Cotroneo, Russo; DSN 2006).

The package simulates the paper's two Bluetooth PAN testbeds end to end
— protocol stack, radio channel, fault injection, BlueTest workloads,
log collection — and re-implements the paper's analysis pipeline on the
generated failure data: merge-and-coalesce, failure classification,
error-failure relationships (Table 2), SIRA effectiveness (Table 3),
dependability improvement (Table 4) and the §6 failure distributions.

Quickstart::

    from repro import api, build_relationship_table
    from repro.reporting import render_relationship_table

    result = api.run(duration=86_400.0, seed=7)
    table = build_relationship_table(result.repository, result.node_nap_pairs())
    print(render_relationship_table(table))
"""

import logging as _logging

#: Root name of the package logger hierarchy.
LOGGER_NAME = "repro"


def get_logger(name: str = "") -> "_logging.Logger":
    """The shared ``repro`` package logger (or a named child of it).

    Every module logs through this hierarchy — never through ad-hoc
    ``logging.getLogger(__name__)`` roots — so one call to
    :func:`configure_logging` (or the CLI's ``-v/--verbose`` flag)
    governs the whole package.

    NOTE: defined before the subpackage imports below so that modules
    deep in the package can ``from repro import get_logger`` while the
    package is still initialising.
    """
    return _logging.getLogger(f"{LOGGER_NAME}.{name}" if name else LOGGER_NAME)


def configure_logging(verbosity: int = 0, stream=None) -> "_logging.Logger":
    """Configure the package logger for console output.

    ``verbosity`` 0 shows warnings and errors, 1 adds info, 2+ adds
    debug.  Idempotent: re-configuring adjusts the level instead of
    stacking handlers.  Returns the root package logger.
    """
    root = get_logger()
    level = (
        _logging.WARNING
        if verbosity <= 0
        else _logging.INFO if verbosity == 1 else _logging.DEBUG
    )
    root.setLevel(level)
    if not root.handlers:
        handler = _logging.StreamHandler(stream)
        handler.setFormatter(
            _logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    else:
        for handler in root.handlers:
            if stream is not None and isinstance(handler, _logging.StreamHandler):
                handler.setStream(stream)
    return root


from .core import (
    CampaignResult,
    DAY,
    DependabilityReport,
    FailureModel,
    PAPER_WINDOW,
    RelationshipTable,
    SiraTable,
    SystemFailureType,
    UserFailureType,
    build_dependability_report,
    build_relationship_table,
    build_sira_table,
    coalesce,
    run_connection_length_experiment,
    sensitivity_analysis,
)
from .core.scorecard import Scorecard, evaluate as evaluate_scorecard
from .core.summary import AnalysisSummary, summarize_repository
from .obs import Observability
from .recovery import MaskingPolicy, RecoveryEngine
from .sim import RandomStreams, Simulator
from .bluetooth import Channel, ChannelConfig, LossProfile, TransferStatistics
from . import api
from .api import ExperimentConfig

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "LOGGER_NAME",
    "get_logger",
    "configure_logging",
    "api",
    "ExperimentConfig",
    "Channel",
    "ChannelConfig",
    "LossProfile",
    "TransferStatistics",
    "run_connection_length_experiment",
    "CampaignResult",
    "DAY",
    "FailureModel",
    "UserFailureType",
    "SystemFailureType",
    "RelationshipTable",
    "build_relationship_table",
    "SiraTable",
    "build_sira_table",
    "DependabilityReport",
    "build_dependability_report",
    "coalesce",
    "sensitivity_analysis",
    "PAPER_WINDOW",
    "MaskingPolicy",
    "RecoveryEngine",
    "Simulator",
    "RandomStreams",
    "Observability",
    "Scorecard",
    "evaluate_scorecard",
    "AnalysisSummary",
    "summarize_repository",
]
