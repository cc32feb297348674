"""RPR009 — all parallelism goes through the shared executor.

:mod:`repro.parallel` is the single place the library touches thread or
process pools: it owns the worker/backend defaults, the chunked dispatch
that keeps submission order, and the ``SeedSequence`` fan-out that makes
Monte-Carlo reductions bit-identical for every worker count.  A module
that imports :mod:`concurrent.futures` or :mod:`multiprocessing` directly
bypasses all three guarantees, so reprolint flags the import and points
the author at the shared layer instead.

One carve-out: :mod:`repro.serve` may import :mod:`threading` for its
*synchronisation* primitives (locks, events, the admission semaphore, the
HTTP server's connection threads) — that is coordination state, not a
compute pool, and the determinism contract does not apply to it.  Compute
fan-out inside the server still goes through :mod:`repro.parallel`;
``concurrent.futures``/``multiprocessing`` stay forbidden there too.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["SharedExecutorRule"]

#: Top-level modules that spawn workers outside the shared executor.
_POOL_MODULES = frozenset({"concurrent", "multiprocessing", "threading"})

#: The one module allowed to own pool machinery (project-relative POSIX).
_EXECUTOR_PATH = "src/repro/parallel.py"

#: Package allowed to import :mod:`threading` for synchronisation (locks,
#: events, semaphores) — never for compute pools.
_SYNC_PACKAGE = "src/repro/serve/"


def _root_module(dotted: str) -> str:
    """First component of a dotted module path (``concurrent.futures`` →
    ``concurrent``)."""
    return dotted.split(".", 1)[0]


@register
class SharedExecutorRule(Rule):
    """Worker pools are created only inside :mod:`repro.parallel`."""

    rule_id = "RPR009"
    name = "shared-executor"
    summary = (
        "thread/process pools bypass the shared executor; route the work "
        "through repro.parallel so worker-count determinism holds"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Flag concurrent.futures/multiprocessing/threading imports."""
        path = ctx.path.replace("\\", "/")
        if path.endswith(_EXECUTOR_PATH):
            return
        allowed = (
            frozenset({"threading"}) if _SYNC_PACKAGE in path else frozenset()
        )
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _root_module(alias.name)
                    if root in _POOL_MODULES and root not in allowed:
                        yield self.violation(
                            ctx,
                            node,
                            f"direct import of {alias.name!r}; use "
                            "repro.parallel (parallel_map/parallel_submit) "
                            "so results stay worker-count invariant",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None:
                    root = _root_module(node.module)
                    if root in _POOL_MODULES and root not in allowed:
                        yield self.violation(
                            ctx,
                            node,
                            f"direct import from {node.module!r}; use "
                            "repro.parallel (parallel_map/parallel_submit) "
                            "so results stay worker-count invariant",
                        )
