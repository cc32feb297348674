"""Analysis engine: one serial pass over the files, then triage.

The engine is the pure-library layer under the CLI.  Each target file
is read and parsed once into a :class:`~repro.analysis.context.ModuleContext`.
The per-file rules run on that context, and the same contexts build the
:class:`~repro.analysis.project.ProjectIndex` (module graph, symbol
tables, call graph, def-use summaries) that the cross-module
:class:`~repro.analysis.project.ProjectRule` checks run against.

Raw findings are then triaged into *active* (failing), *baselined*
(accepted with a justification) and *suppressed* (silenced by an inline
pragma) buckets.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .baseline import Baseline, BaselineEntry
from .config import find_project_root
from .context import ModuleContext, parse_pragmas
from .project import ProjectIndex, ProjectRule
from .registry import Rule, all_rules
from .rules import __all__ as _rule_modules  # noqa: F401  (registers rules)
from .violations import PARSE_ERROR_ID, Violation

__all__ = [
    "AnalysisResult",
    "analyze_source",
    "analyze_paths",
    "iter_python_files",
]


@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one analysis run over a set of files."""

    violations: list[Violation]
    baselined: list[Violation]
    suppressed: list[Violation]
    files_checked: int
    unused_baseline: list[BaselineEntry]

    @property
    def ok(self) -> bool:
        """True when no active (non-baselined, non-suppressed) findings."""
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-serialisable representation used by ``--format json``."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "active": len(self.violations),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "unused_baseline": len(self.unused_baseline),
            },
            "violations": [v.to_dict() for v in self.violations],
            "baselined": [v.to_dict() for v in self.baselined],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "unused_baseline": [e.to_dict() for e in self.unused_baseline],
        }


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (sorted, each file once)."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def _relpath(path: Path, root: Path) -> str:
    """Project-relative POSIX path used for display and fingerprints."""
    resolved = path.resolve()
    root_resolved = Path(root).resolve()
    if resolved.is_relative_to(root_resolved):
        return resolved.relative_to(root_resolved).as_posix()
    return path.as_posix()


def _split_rules(rules: Sequence[Rule] | None) -> tuple[list[Rule], list[ProjectRule]]:
    """Partition a rule set (default: every rule) into file and project rules."""
    selected = all_rules() if rules is None else list(rules)
    file_rules = [r for r in selected if not isinstance(r, ProjectRule)]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    return file_rules, project_rules


def _parse_failure(relpath: str, exc: Exception) -> Violation:
    """RPR000 finding for a file that cannot be read or parsed."""
    detail = getattr(exc, "msg", None) or str(exc)
    return Violation(
        rule_id=PARSE_ERROR_ID,
        path=relpath,
        line=getattr(exc, "lineno", None) or 1,
        col=0,
        message=f"file cannot be analysed: {detail}",
    )


def _check_file(
    relpath: str, source: str, file_rules: Sequence[Rule]
) -> tuple[ModuleContext | None, list[Violation]]:
    """Parse one module and run the per-file rules over it.

    Returns the context (``None`` when the source does not parse) and
    the raw findings: an unparsable file yields a single ``RPR000``.
    """
    try:
        ctx = ModuleContext(relpath, source)
    except SyntaxError as exc:
        return None, [_parse_failure(relpath, exc)]
    findings: list[Violation] = []
    for rule in file_rules:
        findings.extend(rule.check(ctx))
    return ctx, findings


def _check_project(
    contexts: Mapping[str, ModuleContext], project_rules: Sequence[ProjectRule]
) -> list[Violation]:
    """Run the cross-module rules over an index of the parsed modules."""
    if not project_rules:
        return []
    index = ProjectIndex.build(contexts)
    findings: list[Violation] = []
    for rule in project_rules:
        findings.extend(rule.check_project(index))
    return findings


def analyze_source(
    source: str,
    path: str = "<memory>",
    rules: Sequence[Rule] | None = None,
    respect_pragmas: bool = True,
) -> list[Violation]:
    """Run rules over in-memory source; the fixture-test entry point.

    Project rules run against a single-module index built from the one
    source, so RPR011–RPR015 fixtures work without touching disk.
    Returns the findings that survive pragma filtering (all findings when
    ``respect_pragmas`` is false).  Unparsable source yields a single
    ``RPR000`` finding rather than raising.
    """
    file_rules, project_rules = _split_rules(rules)
    ctx, findings = _check_file(path, source, file_rules)
    if ctx is None:
        return findings
    findings.extend(_check_project({path: ctx}, project_rules))
    findings.sort(key=lambda v: (v.line, v.col, v.rule_id))
    if not respect_pragmas:
        return findings
    return [v for v in findings if not ctx.is_disabled(v.rule_id, v.line)]


def analyze_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
    baseline: Baseline | None = None,
) -> AnalysisResult:
    """Analyze files/directories in one pass and triage the findings.

    ``root`` anchors the project-relative paths that findings and the
    baseline use; it defaults to the nearest ancestor of ``paths[0]``
    holding a ``pyproject.toml``.  ``rules`` defaults to every
    registered rule.
    """
    if root is None:
        root = find_project_root(Path(paths[0]) if paths else Path.cwd())
    file_rules, project_rules = _split_rules(rules)

    contexts: dict[str, ModuleContext] = {}
    pragmas: dict[str, dict[int, frozenset[str]]] = {}
    findings_by_file: dict[str, list[Violation]] = {}
    files_checked = 0
    for file_path in iter_python_files(paths):
        files_checked += 1
        relpath = _relpath(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings_by_file[relpath] = [_parse_failure(relpath, exc)]
            continue
        ctx, findings_by_file[relpath] = _check_file(relpath, source, file_rules)
        if ctx is None:
            pragmas[relpath] = parse_pragmas(source.splitlines())
        else:
            contexts[relpath] = ctx
            pragmas[relpath] = ctx.pragmas
    for violation in _check_project(contexts, project_rules):
        findings_by_file.setdefault(violation.path, []).append(violation)

    active: list[Violation] = []
    baselined: list[Violation] = []
    suppressed: list[Violation] = []
    for relpath in sorted(findings_by_file):
        file_pragmas = pragmas.get(relpath, {})
        for violation in sorted(
            findings_by_file[relpath], key=lambda v: (v.line, v.col, v.rule_id)
        ):
            ids = file_pragmas.get(violation.line)
            if ids is not None and ("ALL" in ids or violation.rule_id in ids):
                suppressed.append(violation)
            elif baseline is not None and baseline.matches(violation):
                baselined.append(violation)
            else:
                active.append(violation)
    return AnalysisResult(
        violations=active,
        baselined=baselined,
        suppressed=suppressed,
        files_checked=files_checked,
        unused_baseline=baseline.unused_entries() if baseline is not None else [],
    )
