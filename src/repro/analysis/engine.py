"""The lint engine: file discovery, per-file runs, the deep stage and
suppression filtering.

A lint run has up to two stages.  The *per-file* stage parses each file
independently and runs the DET001-DET007 checkers.  The *deep* stage
(``--deep``, or any deep rule named in ``--select``) builds one
:class:`~repro.analysis.graph.ProjectGraph` over every file of the run
— re-using the sources the per-file stage already read — and hands it
to the registered whole-program passes (DET010-DET012, WIRE001-WIRE003).

Both stages honour ``# repro: allow[RULE]`` and feed LNT001: an inline
allowance for a deep rule that suppresses nothing (and sanctions no
taint source or edge) is itself a finding, judged by whichever stage
owns the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .config import DEFAULT_CONFIG, LintConfig, module_for_path
from .findings import Finding
from .graph import build_graph
from .registry import all_rules, deep_passes, deep_rule_ids, rule_ids
from .suppressions import collect_suppressions

#: Rule id of the unused-suppression meta-finding.
UNUSED_SUPPRESSION_RULE = "LNT001"
#: Rule id reported for files the parser rejects.
SYNTAX_ERROR_RULE = "LNT002"


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run over a set of paths."""

    findings: List[Finding]
    files: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """Process exit status: 0 clean, 1 findings."""
        return 0 if self.ok else 1


def iter_python_files(
    paths: Iterable[Union[str, Path]],
    config: LintConfig = DEFAULT_CONFIG,
) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted for stable output."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if any(skip in parts for skip in config.skip_dirs):
                    continue
                files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
    return sorted(set(files))


def _resolve_selection(
    select: Optional[Sequence[str]], deep: bool
) -> Tuple[List[str], List[str]]:
    """(per-file rules, deep rules) this run executes.

    ``--select`` is exact: naming a deep rule runs its pass with or
    without ``--deep``, and with ``--select`` given, ``--deep`` adds
    nothing beyond what was named.  Unknown ids raise ``ValueError``
    listing the full valid vocabulary.
    """
    file_ids = rule_ids()
    deep_ids = deep_rule_ids()
    if select is None:
        return list(file_ids), (list(deep_ids) if deep else [])
    wanted = [rule.strip().upper() for rule in select if rule.strip()]
    unknown = sorted(set(wanted) - set(file_ids) - set(deep_ids))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} — "
            f"valid rules: {', '.join(file_ids + deep_ids)}"
        )
    return (
        [rule for rule in wanted if rule in set(file_ids)],
        [rule for rule in wanted if rule in set(deep_ids)],
    )


def _select_rules(select: Optional[Sequence[str]]) -> List[str]:
    """Normalize a ``--select`` list to the per-file rules it names."""
    return _resolve_selection(select, deep=False)[0]


def lint_source(
    source: str,
    path: Union[str, Path],
    config: LintConfig = DEFAULT_CONFIG,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file's contents (per-file rules only); sorted findings."""
    path_str = str(path)
    selected = _select_rules(select)
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as exc:
        return [
            Finding(
                path=path_str,
                line=exc.lineno or 1,
                col=exc.offset or 1,
                rule=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]

    module = module_for_path(path_str, config)
    raw: List[Finding] = []
    for checker_cls in all_rules():
        if checker_cls.rule_id not in selected:
            continue
        if not checker_cls.applies_to(module, config):
            continue
        checker = checker_cls(path_str, module, config)
        checker.visit(tree)
        raw.extend(checker.findings)

    suppressions = collect_suppressions(source)
    kept: List[Finding] = []
    for finding in raw:
        suppression = suppressions.get(finding.line)
        if suppression is not None and finding.rule in suppression.rules:
            suppression.used.add(finding.rule)
        else:
            kept.append(finding)

    known = set(rule_ids()) | set(deep_rule_ids())
    for line in sorted(suppressions):
        suppression = suppressions[line]
        for rule in suppression.unused_rules():
            if rule not in known:
                message = f"suppression names unknown rule {rule}"
            elif rule not in selected:
                continue  # rule not run this pass; can't judge the allowance
            else:
                message = f"unused suppression: no {rule} finding on this line"
            kept.append(
                Finding(
                    path=path_str,
                    line=line,
                    col=suppression.col,
                    rule=UNUSED_SUPPRESSION_RULE,
                    message=message,
                )
            )
    return sorted(kept)


def _run_deep(
    files: List[Path],
    sources: Dict[str, str],
    config: LintConfig,
    selected: Set[str],
) -> List[Finding]:
    """The whole-program stage: one shared graph, every selected pass."""
    graph = build_graph([str(f) for f in files], config, sources=sources)
    raw: List[Finding] = []
    for pass_cls in deep_passes():
        if not set(pass_cls.rules) & selected:
            continue
        raw.extend(pass_cls().run(graph, config, selected))
    kept: List[Finding] = []
    for finding in sorted(raw):
        mod = graph.by_path.get(finding.path)
        suppression = (
            mod.suppressions.get(finding.line) if mod is not None else None
        )
        if suppression is not None and finding.rule in suppression.rules:
            suppression.used.add(finding.rule)
        else:
            kept.append(finding)
    # Deep-rule allowances that neither suppressed a finding nor (for
    # DET010) sanctioned a source/edge are dead weight — report them.
    for path in sorted(graph.by_path):
        mod = graph.by_path[path]
        for line in sorted(mod.suppressions):
            suppression = mod.suppressions[line]
            for rule in suppression.unused_rules():
                if rule in selected:
                    kept.append(
                        Finding(
                            path=path,
                            line=line,
                            col=suppression.col,
                            rule=UNUSED_SUPPRESSION_RULE,
                            message=(
                                f"unused suppression: no {rule} finding "
                                "on this line"
                            ),
                        )
                    )
    return kept


def lint_paths(
    paths: Iterable[Union[str, Path]],
    config: LintConfig = DEFAULT_CONFIG,
    select: Optional[Sequence[str]] = None,
    deep: bool = False,
) -> LintResult:
    """Lint every Python file under ``paths``.

    ``deep=True`` adds the whole-program passes.  May raise
    ``ValueError`` for an unknown ``--select`` id.
    """
    file_sel, deep_sel = _resolve_selection(select, deep)
    findings: List[Finding] = []
    files = iter_python_files(paths, config)
    sources: Dict[str, str] = {}
    for file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    path=str(file_path),
                    line=1,
                    col=1,
                    rule=SYNTAX_ERROR_RULE,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        sources[str(file_path)] = source
        findings.extend(lint_source(source, file_path, config, file_sel))
    if deep_sel:
        findings.extend(_run_deep(files, sources, config, set(deep_sel)))
    return LintResult(findings=sorted(findings), files=len(files))


__all__ = [
    "LintResult",
    "SYNTAX_ERROR_RULE",
    "UNUSED_SUPPRESSION_RULE",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]
