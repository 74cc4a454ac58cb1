"""Rule registry and the checker base class.

Every rule is an :class:`ast.NodeVisitor` subclass registered under a
stable id (``DET001``...).  The engine instantiates one checker per
(file, rule) pair, asks :meth:`Checker.applies_to` whether the module
is in the rule's scope, and collects :class:`Finding` objects from it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Type, TypeVar

from .config import LintConfig
from .findings import Finding


class Checker(ast.NodeVisitor):
    """Base class for one lint rule over one file's AST."""

    #: Stable rule identifier, e.g. ``DET001``; set by subclasses.
    rule_id: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs.
    summary: str = ""

    def __init__(self, path: str, module: Optional[str], config: LintConfig) -> None:
        self.path = path
        self.module = module
        self.config = config
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, module: Optional[str], config: LintConfig) -> bool:
        """Whether this rule governs ``module`` (None = out-of-package file)."""
        return True

    def add(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s position."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule_id,
                message=message,
            )
        )


class DeepPass:
    """Base class for one whole-program pass over a :class:`ProjectGraph`.

    Unlike :class:`Checker` (one instance per file), a deep pass runs
    once per lint invocation against the shared project graph and may
    emit findings under several related rule ids.  ``rules`` maps each
    id to its one-line summary; ``run`` returns raw findings — the
    engine applies suppressions afterwards.
    """

    #: Rule id -> one-line summary for every rule this pass emits.
    rules: Dict[str, str] = {}

    def run(
        self, graph: "ProjectGraph", config: LintConfig, selected: Set[str]
    ) -> List[Finding]:
        """Findings for the rules in ``selected`` that this pass owns."""
        raise NotImplementedError


if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .graph import ProjectGraph


_REGISTRY: Dict[str, Type[Checker]] = {}
_DEEP_REGISTRY: Dict[str, Type[DeepPass]] = {}

CheckerT = TypeVar("CheckerT", bound=Type[Checker])
DeepPassT = TypeVar("DeepPassT", bound=Type[DeepPass])


def register(cls: CheckerT) -> CheckerT:
    """Class decorator adding a checker to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def register_deep(cls: DeepPassT) -> DeepPassT:
    """Class decorator adding a whole-program pass to the registry."""
    if not cls.rules:
        raise ValueError(f"{cls.__name__} declares no rules")
    taken = set(_REGISTRY) | {
        rule for pass_cls in _DEEP_REGISTRY.values() for rule in pass_cls.rules
    }
    clash = sorted(set(cls.rules) & taken)
    if clash:
        raise ValueError(f"duplicate rule id(s) {', '.join(clash)}")
    _DEEP_REGISTRY[min(cls.rules)] = cls
    return cls


def deep_passes() -> List[Type[DeepPass]]:
    """Every registered deep pass, ordered by lowest owned rule id."""
    return [_DEEP_REGISTRY[key] for key in sorted(_DEEP_REGISTRY)]


def deep_rule_ids() -> List[str]:
    """Sorted rule ids owned by the deep (whole-program) passes."""
    return sorted(
        rule for pass_cls in _DEEP_REGISTRY.values() for rule in pass_cls.rules
    )


def deep_rule_summaries() -> Dict[str, str]:
    """Rule id -> summary for every deep rule."""
    merged: Dict[str, str] = {}
    for pass_cls in _DEEP_REGISTRY.values():
        merged.update(pass_cls.rules)
    return merged


def all_rules() -> List[Type[Checker]]:
    """Every registered checker class, ordered by rule id."""
    return [_REGISTRY[rule_id] for rule_id in rule_ids()]


def rule_ids() -> List[str]:
    """Sorted registered rule ids."""
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Type[Checker]:
    """The checker class for ``rule_id`` (KeyError when unknown)."""
    return _REGISTRY[rule_id.upper()]


__all__ = [
    "Checker",
    "DeepPass",
    "all_rules",
    "deep_passes",
    "deep_rule_ids",
    "deep_rule_summaries",
    "get_rule",
    "register",
    "register_deep",
    "rule_ids",
]
