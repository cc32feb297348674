"""reprolint — one-pass AST static analysis for the repro library.

The paper's tool surface (six analytic tools x seven kernels x many
acceleration variants) means dozens of public entry points that must all
validate inputs, raise typed errors and keep numerical invariants — and,
since the parallel/observability subsystems landed, hold system-level
contracts (worker-invariant seeding, pure worker callables, span-wrapped
hot paths) that runtime tests can only sample.  This subpackage makes
those conventions machine-checked.  One serial pass parses each file once into a
:class:`~repro.analysis.context.ModuleContext`, runs the per-file rules
on it, and builds from the same contexts a
:class:`~repro.analysis.project.ProjectIndex` — module/import graph,
symbol tables, resolved call graph, per-function def-use summaries —
for the cross-module :class:`~repro.analysis.project.ProjectRule` checks.

Findings are triaged through inline ``# reprolint: disable=RPRnnn``
pragmas and a JSON baseline of justified exceptions; reporters cover
text, JSON and SARIF 2.1.0::

    python -m repro.analysis src/repro --format sarif

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and workflows.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry, load_baseline, save_entries, write_baseline
from .cli import build_parser, main
from .config import find_project_root
from .engine import AnalysisResult, analyze_paths, analyze_source, iter_python_files
from .project import ProjectIndex, ProjectRule
from .registry import Rule, all_rules, get_rule, rule_ids
from .reporting import render_json, render_sarif, render_text
from .violations import PARSE_ERROR_ID, Violation

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineEntry",
    "PARSE_ERROR_ID",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "build_parser",
    "find_project_root",
    "get_rule",
    "iter_python_files",
    "load_baseline",
    "main",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "save_entries",
    "write_baseline",
]
