"""Rule base class and the global rule registry.

Rules self-register via the :func:`register` decorator at import time;
:mod:`repro.analysis.rules` imports every rule module so that importing
the package is enough to populate the registry.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..errors import AnalysisError
from .context import ModuleContext
from .violations import Violation

__all__ = ["Rule", "register", "all_rules", "get_rule", "rule_ids"]

_RULE_ID_RE = re.compile(r"^RPR\d{3}$")

_REGISTRY: dict[str, "Rule"] = {}


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``rule_id`` (``RPRnnn``), a short ``name`` slug, and a
    one-line ``summary``, then implement :meth:`check` as a generator of
    :class:`~repro.analysis.violations.Violation` records.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Yield every finding for the module in ``ctx``."""
        raise NotImplementedError

    def violation(
        self, ctx: ModuleContext, node, message: str, symbol: str | None = None
    ) -> Violation:
        """Build a Violation anchored at ``node`` with this rule's id."""
        return Violation(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol if symbol is not None else ctx.qualname(node),
        )


def register(cls: type) -> type:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    if not issubclass(cls, Rule):
        raise AnalysisError(f"{cls!r} is not a Rule subclass")
    if not _RULE_ID_RE.match(cls.rule_id):
        raise AnalysisError(f"rule id {cls.rule_id!r} does not match RPRnnn")
    if cls.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Sorted list of registered rule ids."""
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id; raises AnalysisError for unknown ids."""
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise AnalysisError(f"unknown rule {rule_id!r}; known rules: {known}") from None
