"""Best-of wall-clock timing for the benchmark harness."""

from __future__ import annotations

from typing import Callable

from ..errors import ParameterError
from ..obs import Stopwatch

__all__ = ["measure"]


def measure(fn: Callable[[], object], repeat: int = 3) -> tuple[float, object]:
    """Best-of-``repeat`` wall time of ``fn`` plus its (last) return value."""
    repeat = int(repeat)
    if repeat < 1:
        raise ParameterError(f"repeat must be >= 1, got {repeat}")
    best = float("inf")
    result: object = None
    for _ in range(repeat):
        with Stopwatch() as sw:
            result = fn()
        best = min(best, sw.seconds)
    return best, result
