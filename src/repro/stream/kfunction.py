"""Delta-maintained windowed Ripley K over a sliding event window.

:class:`StreamingKFunction` keeps the ordered pair counts of the planar
K-function (paper Definition 2) current under window slides by charging
only the pairs that involve entering or leaving events:

* the **leaving** events are removed from a :class:`~repro.index.
  DynamicGridIndex` first, then their pair counts against the surviving
  window (plus the pairs among themselves) are subtracted;
* the **entering** events are counted against the surviving window (plus
  the pairs among themselves) and inserted.

Both directions are one batched :func:`~repro.index.threshold_totals`
over the dynamic index — the cell-block pair kernel of the batch grid
backend, fed the whole changed batch at once, counting per threshold
without listing the pairs — and the pairs among the changed events are
the same kernel over a :class:`~repro.index.GridIndex` of the batch.
Leaving events leave the index in one
:meth:`~repro.index.DynamicGridIndex.remove_many`.  A slide touching ``k``
events costs ``O(k)`` query points instead of the batch's ``O(n)``.

All maintained state is an integer pair-count vector, and the dynamic
index reproduces the static :class:`~repro.index.GridIndex` distance
arithmetic bit for bit, so the streamed K equals
:func:`~repro.core.kfunction.ripley_k` over the same window contents
exactly, not merely approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._validation import check_thresholds
from ..core.kfunction import ripley_normalize
from ..errors import ParameterError
from ..geometry import BoundingBox
from ..index import DynamicGridIndex, GridIndex, threshold_totals
from ..obs import Diagnostics
from ..parallel import parallel_starmap
from .window import StreamDelta

__all__ = ["StreamKSnapshot", "StreamingKFunction"]

#: Query-chunk size of the parallel path.  Fixed — never derived from the
#: worker count — and harmless to determinism anyway: chunk results are
#: exact int64 totals, and integer addition is order-independent.
_QUERY_CHUNK = 512


@dataclass(frozen=True)
class StreamKSnapshot:
    """One refresh of the streamed K-function.

    ``k`` is Ripley's normalised estimate (``|A| counts / (n (n-1))``),
    ``counts`` the raw ordered pair counts (self-pairs excluded), both
    over the window contents at snapshot time.
    """

    thresholds: np.ndarray
    counts: np.ndarray
    k: np.ndarray
    n_points: int
    diagnostics: Diagnostics | None = None


class StreamingKFunction:
    """Maintained windowed Ripley K over a sliding event window.

    Parameters
    ----------
    bbox:
        Study window (also the normalising area of Ripley's estimate).
    thresholds:
        Sorted positive distance thresholds; the largest one sizes the
        dynamic grid's cells, so queries inspect at most a 3x3 block.
    workers, backend:
        Parallelism of the per-refresh range queries: deltas larger than
        one chunk fan their (read-only) queries through
        :func:`repro.parallel.parallel_starmap`.  Counts are integers, so
        the result is identical for every combination.

    Register with a :class:`~repro.stream.StreamEngine`; read the curve
    with :meth:`snapshot`, which equals the batch
    :func:`~repro.core.kfunction.ripley_k` of the window contents.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        thresholds,
        workers: int | None = None,
        backend: str | None = None,
    ):
        self.bbox = bbox
        self.thresholds = check_thresholds(thresholds)
        rmax = float(self.thresholds.max())
        if rmax <= 0.0:
            raise ParameterError(
                "streaming K needs a positive largest threshold"
            )
        self._rmax = rmax
        self.workers = workers
        self.backend = backend
        self._index = DynamicGridIndex(bbox, rmax)
        self._slots = np.empty(0, dtype=np.int64)  # oldest event first
        self._counts = np.zeros(self.thresholds.shape[0], dtype=np.int64)
        self.events_applied = 0
        self.staleness = 0

    @property
    def n_points(self) -> int:
        """Number of events currently in the maintained pair counts."""
        return len(self._slots)

    @property
    def counts(self) -> np.ndarray:
        """Ordered pair counts per threshold, self-pairs excluded (a copy)."""
        return self._counts.copy()

    def _cross_counts(self, queries: np.ndarray) -> np.ndarray:
        """Pair counts of each query against the *current* index, summed."""
        n = queries.shape[0]
        if n <= _QUERY_CHUNK:
            return threshold_totals(self._index, queries, self.thresholds)
        jobs = [
            (self._index, queries[c0:c0 + _QUERY_CHUNK], self.thresholds)
            for c0 in range(0, n, _QUERY_CHUNK)
        ]
        with obs.span("kfunction.queries"):
            totals = parallel_starmap(
                threshold_totals, jobs, workers=self.workers, backend=self.backend
            )
        return np.sum(totals, axis=0)

    def _within_counts(self, pts: np.ndarray) -> np.ndarray:
        """Unordered pair counts among ``pts`` (same arithmetic as batch).

        The ordered total over a grid of ``pts`` holds every unordered
        pair twice (``(a-b)**2 == (b-a)**2`` exactly) plus ``n`` self
        pairs at distance 0.
        """
        n = pts.shape[0]
        if n < 2:
            return np.zeros(self.thresholds.shape[0], dtype=np.int64)
        grid = GridIndex.for_radius(pts, self._rmax)
        ordered = threshold_totals(grid, pts, self.thresholds)
        return (ordered - n) // 2

    def apply(self, delta: StreamDelta) -> "StreamingKFunction":
        """Subtract the leaving events' pairs, add the entering events'."""
        left = delta.left_points
        if delta.n_left:
            if delta.n_left > len(self._slots):
                raise ParameterError(
                    f"delta removes {delta.n_left} events but only "
                    f"{len(self._slots)} are present"
                )
            self._index.remove_many(self._slots[:delta.n_left])
            self._slots = self._slots[delta.n_left:]
            # Every L-L pair and every L-survivor pair, each ordered pair
            # contributing 2 (the K-function counts ordered pairs).
            self._counts -= 2 * (
                self._cross_counts(left) + self._within_counts(left)
            )
        entered = delta.entered_points
        if delta.n_entered:
            self._counts += 2 * (
                self._cross_counts(entered) + self._within_counts(entered)
            )
            self._slots = np.concatenate(
                [self._slots, self._index.insert_many(entered)]
            )
        n_applied = delta.n_entered + delta.n_left
        self.events_applied += n_applied
        self.staleness += n_applied
        obs.count("stream.kfunction.events", n_applied)
        return self

    def snapshot(self) -> StreamKSnapshot:
        """The current windowed K curve.

        ``k`` equals the batch ``ripley_k(window.points, thresholds,
        bbox, method="grid")`` exactly: the maintained integer pair
        counts match the batch's, and both pass through the shared
        :func:`~repro.core.kfunction.ripley_normalize`.  Raises
        :class:`~repro.errors.ParameterError` with fewer than two events
        in the window, as the batch estimate does.  Diagnostics records:
        ``events_applied``, ``staleness`` (reset by this call),
        ``n_points``.
        """
        with obs.task("stream.kfunction") as t:
            t.record("events_applied", self.events_applied)
            t.record("staleness", self.staleness)
            t.record("n_points", self.n_points)
            k = ripley_normalize(self._counts, self.n_points, self.bbox)
        self.staleness = 0
        return StreamKSnapshot(
            thresholds=self.thresholds.copy(),
            counts=self.counts,
            k=k,
            n_points=self.n_points,
            diagnostics=t.diagnostics,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingKFunction(n={self.n_points}, "
            f"thresholds={self.thresholds.shape[0]}, rmax={self._rmax:g})"
        )
