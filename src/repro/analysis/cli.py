"""reprolint command line: ``python -m repro.analysis [paths] [options]``.

Exit codes: 0 — clean (possibly via baseline/pragmas), 1 — active
violations found (or, with ``--prune-baseline``, stale entries pruned),
2 — usage error (unknown rule id, malformed baseline file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import AnalysisError
from .baseline import Baseline, load_baseline, save_entries, write_baseline
from .config import DEFAULT_BASELINE_NAME, find_project_root
from .engine import analyze_paths
from .registry import all_rules, get_rule
from .reporting import render_json, render_sarif, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the reprolint CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST static analysis enforcing the repro "
            "library's determinism, parallelism and observability contracts."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse (default: src/repro, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif targets code scanning)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline JSON of accepted violations (default: "
            f"{DEFAULT_BASELINE_NAME} at the project root, when it exists)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current active violations into the baseline file",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline entries whose violation no longer fires; exits "
            "non-zero when stale entries had to be pruned (CI fails until "
            "the shrunken baseline is committed)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run exclusively (e.g. RPR003,RPR006)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="itemise baselined and pragma-suppressed findings in text output",
    )
    return parser


def _default_paths() -> list[str]:
    """``src/repro`` when it exists (repo layout), else the current dir."""
    return ["src/repro"] if Path("src/repro").is_dir() else ["."]


def _resolve_rules(args: argparse.Namespace):
    """Apply --select/--disable to the registry; None means every rule."""
    if not args.select and not args.disable:
        return None
    if args.select:
        selected = [get_rule(r.strip()) for r in args.select.split(",") if r.strip()]
    else:
        selected = all_rules()
    if args.disable:
        dropped = {get_rule(r.strip()).rule_id for r in args.disable.split(",") if r.strip()}
        selected = [r for r in selected if r.rule_id not in dropped]
    return selected


def _resolve_baseline(
    args: argparse.Namespace, root: Path
) -> tuple[Baseline | None, Path]:
    """The baseline to apply (if any) and the path a write would target."""
    path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    return (load_baseline(path) if path.exists() else None), path


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:26s} {rule.summary}")
        return 0
    paths = args.paths or _default_paths()
    try:
        root = find_project_root(paths[0] if Path(paths[0]).exists() else Path.cwd())
        rules = _resolve_rules(args)
        baseline, baseline_path = _resolve_baseline(args, root)
        result = analyze_paths(paths, root=root, rules=rules, baseline=baseline)
        if args.write_baseline:
            accepted = result.violations + result.baselined
            write_baseline(baseline_path, accepted, existing=baseline)
            print(
                f"wrote {baseline_path} accepting {len(accepted)} violation(s); "
                f"edit the justifications before committing"
            )
            return 0
        if args.prune_baseline:
            return _prune_baseline(result, baseline, baseline_path)
    except AnalysisError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result, verbose=args.verbose)
    print(report)
    return 0 if result.ok else 1


def _prune_baseline(result, baseline: Baseline | None, baseline_path: Path) -> int:
    """Drop stale baseline entries; non-zero exit when any were pruned."""
    if baseline is None:
        print("no baseline file; nothing to prune")
        return 0 if result.ok else 1
    stale = {entry.fingerprint() for entry in result.unused_baseline}
    if not stale:
        print(
            f"baseline {baseline_path} is minimal "
            f"({len(baseline.entries)} entries, none stale)"
        )
        return 0 if result.ok else 1
    kept = [e for e in baseline.entries if e.fingerprint() not in stale]
    save_entries(baseline_path, kept)
    for entry in result.unused_baseline:
        print(
            f"pruned stale baseline entry {entry.rule}:{entry.path}"
            f":{entry.symbol}"
        )
    print(
        f"pruned {len(stale)} stale entr{'y' if len(stale) == 1 else 'ies'} "
        f"from {baseline_path} ({len(kept)} remain); commit the shrunken "
        f"baseline"
    )
    return 1
