"""Project root discovery and the default baseline location."""

from __future__ import annotations

from pathlib import Path

__all__ = ["find_project_root", "DEFAULT_BASELINE_NAME"]

#: Baseline filename, relative to the project root, used unless the CLI
#: names another with ``--baseline``.
DEFAULT_BASELINE_NAME = ".reprolint-baseline.json"


def find_project_root(start: str | Path) -> Path:
    """Nearest ancestor of ``start`` containing ``pyproject.toml``.

    Falls back to ``start`` itself (as a directory) when no marker is
    found, so the linter still runs on loose files.
    """
    path = Path(start).resolve()
    if path.is_file():
        path = path.parent
    for candidate in (path, *path.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return path
