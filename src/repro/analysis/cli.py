"""Lint command-line front end, shared by ``repro-bt lint`` and
``python -m repro.analysis``."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .config import DEFAULT_CONFIG
from .engine import lint_paths
from .registry import all_rules, deep_rule_summaries
from .report import render_json, render_text
from .suppressions import SUPPRESSION_SYNTAX


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with repro-bt)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all per-file "
        "rules; naming a deep rule runs its whole-program pass)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program passes "
        "(DET010-DET012, WIRE001-WIRE003)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and suppression syntax, then exit",
    )


def list_rules_text() -> str:
    """Human-readable rule catalogue."""
    lines = ["Determinism rule pack:"]
    for checker in all_rules():
        lines.append(f"  {checker.rule_id}  {checker.summary}")
    lines.append("Whole-program rules (--deep):")
    for rule_id, summary in sorted(deep_rule_summaries().items()):
        lines.append(f"  {rule_id}  {summary}")
    lines.append("Meta findings:")
    lines.append("  LNT001  unused '# repro: allow[...]' suppression")
    lines.append("  LNT002  file does not parse / cannot be read")
    lines.append(f"Suppress a finding inline with: {SUPPRESSION_SYNTAX}")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        print(list_rules_text())
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"repro-bt lint: no such path(s): {', '.join(missing)}")
        return 2
    select = args.select.split(",") if args.select else None
    try:
        result = lint_paths(args.paths, DEFAULT_CONFIG, select, deep=args.deep)
    except ValueError as exc:
        print(f"repro-bt lint: {exc}")
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(result))
    return result.exit_code()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & sim-safety static analysis "
        "(per-file rules DET001-DET007; whole-program rules "
        "DET010-DET012 and WIRE001-WIRE003 with --deep; "
        "exits 1 on findings).",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)


__all__ = ["add_lint_arguments", "list_rules_text", "main", "run_lint"]
