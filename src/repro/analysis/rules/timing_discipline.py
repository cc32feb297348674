"""RPR010 — wall-clock timing goes through :mod:`repro.obs`.

:mod:`repro.obs` is the single place the library reads the monotonic
clock: spans record wall time only when tracing is active, and the
collector merge keeps traces worker-invariant.  A module that calls
``time.perf_counter`` / ``time.monotonic`` directly re-invents ad-hoc
timing that the trace cannot see (and that tempts result types into
carrying non-deterministic seconds), so reprolint flags the call and
points the author at ``obs.span`` / ``obs.Stopwatch`` instead.

The benchmark harness (:mod:`repro.bench.timing`) measures wall time
*as its output* with ``obs.Stopwatch``, which reads the clock whether or
not tracing is on, so it needs no exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["TimingDisciplineRule"]

#: ``time`` attributes that read the monotonic/performance clock.
_CLOCK_ATTRS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)

#: The one module allowed to own clock reads (project-relative POSIX).
_OBS_PATH = "src/repro/obs.py"


@register
class TimingDisciplineRule(Rule):
    """Monotonic-clock reads happen only inside :mod:`repro.obs`."""

    rule_id = "RPR010"
    name = "timing-discipline"
    summary = (
        "direct monotonic-clock reads bypass repro.obs; time code with "
        "obs.span/obs.Stopwatch so the trace sees it"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Flag ``time.perf_counter``/``time.monotonic`` outside obs."""
        if ctx.path.replace("\\", "/").endswith(_OBS_PATH):
            return
        for node in ctx.walk():
            if isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "time":
                    for alias in node.names:
                        if alias.name in _CLOCK_ATTRS:
                            yield self.violation(
                                ctx,
                                node,
                                f"import of time.{alias.name}; use obs.span "
                                "or obs.Stopwatch so timing is part of the "
                                "trace",
                            )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    and node.attr in _CLOCK_ATTRS
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"direct time.{node.attr} call; use obs.span or "
                        "obs.Stopwatch so timing is part of the trace",
                    )
