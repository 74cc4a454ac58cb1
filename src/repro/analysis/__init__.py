"""Determinism & sim-safety static analysis.

The repo's reproducibility story rests on a handful of invariants that
no runtime test can economically cover: every stochastic component
draws from an injected, named :class:`random.Random` substream, no
sim-domain code reads wall clocks, unordered collections never feed
order-sensitive aggregation, and all event scheduling goes through the
engine API.  This package makes those invariants machine-checked: an
AST lint engine (rule registry, per-rule :class:`ast.NodeVisitor`
checkers, path-scoped configuration, inline ``# repro: allow[RULE]``
suppressions with unused-suppression detection) plus the DET001-DET007
rule pack encoding the contract.

On top of the per-file rules sits a *whole-program* suite (``--deep``)
built on a shared project graph (:mod:`.graph`): interprocedural
sim-domain wall-clock/entropy taint (DET010, :mod:`.taint`), RNG
stream-lineage analysis (DET011/DET012, :mod:`.lineage`), and
wire-contract drift detection across the shard/worker/cache/journal
serialisation boundaries (WIRE001-WIRE003, :mod:`.contracts`).  Every
finding gates: the shipped tree is kept clean, and an allowance LNT001
reports as dead is deleted by hand.

Run it as ``repro-bt lint [paths]`` or ``python -m repro.analysis``;
both exit non-zero when findings remain.
"""

from __future__ import annotations

from . import contracts as _contracts  # noqa: F401  (registers the deep passes)
from . import lineage as _lineage  # noqa: F401
from . import rules as _rules  # noqa: F401  (importing registers the rule pack)
from . import taint as _taint  # noqa: F401
from .config import LintConfig, module_for_path
from .engine import LintResult, iter_python_files, lint_paths, lint_source
from .findings import Finding
from .graph import ProjectGraph, build_graph
from .registry import (
    all_rules,
    deep_passes,
    deep_rule_ids,
    deep_rule_summaries,
    get_rule,
    rule_ids,
)
from .report import render_json, render_text
from .suppressions import SUPPRESSION_SYNTAX, Suppression, collect_suppressions

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ProjectGraph",
    "SUPPRESSION_SYNTAX",
    "Suppression",
    "all_rules",
    "build_graph",
    "collect_suppressions",
    "deep_passes",
    "deep_rule_ids",
    "deep_rule_summaries",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_for_path",
    "render_json",
    "render_text",
    "rule_ids",
]
