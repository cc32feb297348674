"""Delta-maintained KDV surface with drift control and a dirty-tile ledger.

:class:`StreamingKDV` is the library's one maintained KDV surface.  It
drives a single-surface, unit-weight
:class:`repro.core.kdv.MultiSurfaceAccumulator` (the exact cutoff-scatter
substrate) as a window-driven analytic:

* each :class:`~repro.stream.StreamDelta` costs one kernel patch per
  entering/leaving event — the delta cost model — instead of one full
  scatter of the window per refresh;
* insert-then-remove cancellation leaves float rounding residue that
  grows with the *gross* weight ever scattered, so the accumulator's
  drift gauges are watched and the surface is re-scattered from the live
  window contents whenever ``drift_ratio`` crosses the policy ratio
  (mirroring the STKDV shared backend's drift-triggered re-centering);
* a :class:`DirtyTileLedger` records which fixed grid tiles changed mass
  since the last snapshot, so a renderer repaints only dirty tiles.  A
  tile is flagged **iff** one of its pixels actually changed: candidate
  tiles (from the patch windows of the changed events) are compared
  pixel-for-pixel before/after the scatter, not merely assumed dirty.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive
from ..core.kdv import MultiSurfaceAccumulator
from ..core.kernels import Kernel
from ..errors import ParameterError
from ..geometry import BoundingBox
from ..raster import DensityGrid
from .window import StreamDelta

__all__ = ["DirtyTileLedger", "StreamingKDV"]


class DirtyTileLedger:
    """Boolean ledger over fixed ``tile x tile``-pixel grid tiles.

    Tracks which tiles of an ``(nx, ny)`` surface changed since the
    ledger was last cleared.  The tile lattice is fixed at construction
    (the last row/column of tiles may be smaller when ``tile`` does not
    divide the surface), so tile ids are stable across refreshes.
    """

    def __init__(self, nx: int, ny: int, tile: int = 32):
        tile = int(tile)
        if tile < 1:
            raise ParameterError(f"tile must be a positive integer, got {tile}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.tile = tile
        self.tiles_nx = -(-self.nx // tile)
        self.tiles_ny = -(-self.ny // tile)
        self._dirty = np.zeros((self.tiles_nx, self.tiles_ny), dtype=bool)

    @property
    def mask(self) -> np.ndarray:
        """Current dirty mask, ``(tiles_nx, tiles_ny)`` bool (a copy)."""
        return self._dirty.copy()

    @property
    def dirty_count(self) -> int:
        """Number of tiles currently flagged dirty."""
        return int(self._dirty.sum())

    def mark(self, tx: int, ty: int) -> None:
        """Flag tile ``(tx, ty)`` as changed."""
        self._dirty[tx, ty] = True

    def bounds(self, tx: int, ty: int) -> tuple[int, int, int, int]:
        """Pixel bounds ``(x0, x1, y0, y1)`` of tile ``(tx, ty)`` (half-open)."""
        if not (0 <= tx < self.tiles_nx and 0 <= ty < self.tiles_ny):
            raise ParameterError(
                f"tile ({tx}, {ty}) outside the "
                f"{self.tiles_nx}x{self.tiles_ny} tile lattice"
            )
        x0 = tx * self.tile
        y0 = ty * self.tile
        return x0, min(x0 + self.tile, self.nx), y0, min(y0 + self.tile, self.ny)

    def take(self) -> np.ndarray:
        """Return the dirty mask and clear the ledger (snapshot semantics)."""
        out = self._dirty.copy()
        self._dirty[:] = False
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirtyTileLedger({self.tiles_nx}x{self.tiles_ny} tiles of "
            f"{self.tile}px, dirty={self.dirty_count})"
        )


class StreamingKDV:
    """Maintained KDV surface over a sliding event window.

    Parameters
    ----------
    bbox, size, bandwidth, kernel, tail, dtype:
        Forwarded to the underlying single-surface
        :class:`~repro.core.kdv.MultiSurfaceAccumulator` (fixed window,
        lattice, kernel and bandwidth for the analytic's lifetime).
    tile:
        Side length in pixels of the dirty-tile lattice.
    rescatter_ratio:
        Drift policy: when ``gross_weight / net_weight`` reaches this
        ratio the surface is rebuilt from the live window contents and
        the drift clock restarts.  ``None`` disables automatic
        re-scatter (the drift gauges remain available).
    workers, backend:
        Forwarded to :meth:`MultiSurfaceAccumulator.rescatter` — the
        rebuild is chunk-parallel and bit-identical for every
        combination.

    Register with a :class:`~repro.stream.StreamEngine` (or call
    :meth:`apply` with deltas directly); read the current surface with
    :meth:`snapshot`.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        size: tuple[int, int],
        bandwidth: float,
        kernel: str | Kernel = "quartic",
        tile: int = 32,
        rescatter_ratio: float | None = 64.0,
        tail: float = 1e-12,
        dtype=np.float64,
        workers: int | None = None,
        backend: str | None = None,
    ):
        self._acc = MultiSurfaceAccumulator(
            bbox, size, bandwidth, kernel=kernel, n_surfaces=1, tail=tail,
            dtype=dtype,
        )
        self.bbox = self._acc.bbox
        self.nx = self._acc.nx
        self.ny = self._acc.ny
        self.bandwidth = self._acc.bandwidth
        self.kernel = self._acc.kernel
        if rescatter_ratio is not None:
            rescatter_ratio = check_positive(rescatter_ratio, "rescatter_ratio")
            if rescatter_ratio < 1.0:
                raise ParameterError(
                    f"rescatter_ratio must be >= 1, got {rescatter_ratio}"
                )
        self.rescatter_ratio = rescatter_ratio
        self.workers = workers
        self.backend = backend
        self.ledger = DirtyTileLedger(self.nx, self.ny, tile=tile)
        self.events_applied = 0
        self.staleness = 0
        self.rescatters = 0

    @property
    def accumulator(self) -> MultiSurfaceAccumulator:
        """The underlying accumulator (drift gauges, raw surface access)."""
        return self._acc

    @property
    def n_points(self) -> int:
        """Number of events currently on the surface."""
        return self._acc.n_points

    def _compare_and_mark(
        self, candidates: list[tuple[int, int]], before: list[np.ndarray]
    ) -> int:
        """Mark candidate tiles whose pixels actually changed; count them."""
        view = self._acc.surface_view(0)
        dirtied = 0
        for (tx, ty), old in zip(candidates, before):
            x0, x1, y0, y1 = self.ledger.bounds(tx, ty)
            if not np.array_equal(view[x0:x1, y0:y1], old):
                self.ledger.mark(tx, ty)
                dirtied += 1
        return dirtied

    def apply(self, delta: StreamDelta) -> "StreamingKDV":
        """Scatter the delta's entering/leaving events onto the surface.

        Cost: one kernel patch per changed event, plus a pixel compare of
        the candidate tiles.  May trigger a full re-scatter from
        ``delta.window`` when the drift policy fires.
        """
        changed = np.vstack([delta.entered_points, delta.left_points])
        candidates = self._acc.scatterer.window_tiles(changed, self.ledger.tile)
        view = self._acc.surface_view(0)
        before = [
            view[x0:x1, y0:y1].copy()
            for x0, x1, y0, y1 in (self.ledger.bounds(*t) for t in candidates)
        ]
        if delta.n_entered:
            self._acc.add_weighted(
                delta.entered_points, np.ones((delta.n_entered, 1))
            )
        if delta.n_left:
            self._acc.remove_weighted(
                delta.left_points, np.ones((delta.n_left, 1))
            )
        dirtied = self._compare_and_mark(candidates, before)
        n_applied = delta.n_entered + delta.n_left
        self.events_applied += n_applied
        self.staleness += n_applied
        obs.count("stream.kdv.events", n_applied)
        obs.count("stream.kdv.tiles_dirtied", dirtied)

        if (
            self.rescatter_ratio is not None
            and self._acc.drift_ratio >= self.rescatter_ratio
        ):
            self.rescatter(delta.window.points)
        return self

    def rescatter(self, points) -> "StreamingKDV":
        """Rebuild the surface from scratch as a scatter of ``points``.

        The drift escape hatch: resets the accumulator's gross-weight
        clock.  Tiles whose pixels change in the rebuild are marked dirty
        (compared against the pre-rebuild surface), so ledger exactness
        survives re-scatters.
        """
        pts = np.asarray(points, dtype=np.float64)
        old = self._acc.surface(0)
        self._acc.rescatter(
            pts, np.ones((pts.shape[0], 1)),
            workers=self.workers, backend=self.backend,
        )
        view = self._acc.surface_view(0)
        for tx in range(self.ledger.tiles_nx):
            for ty in range(self.ledger.tiles_ny):
                x0, x1, y0, y1 = self.ledger.bounds(tx, ty)
                if not np.array_equal(view[x0:x1, y0:y1], old[x0:x1, y0:y1]):
                    self.ledger.mark(tx, ty)
        self.rescatters += 1
        obs.count("stream.kdv.rescatter")
        return self

    def snapshot(self) -> DensityGrid:
        """The current density surface with streaming diagnostics attached.

        Diagnostics records: ``events_applied`` (lifetime), ``staleness``
        (events since the previous snapshot — reset to 0 by this call),
        ``rescatters``, ``drift_ratio``, ``dirty_tiles`` and
        ``dirty_mask`` (the ledger content, which this call clears — the
        "changed since last snapshot" contract).
        """
        with obs.task("stream.kdv") as t:
            t.record("events_applied", self.events_applied)
            t.record("staleness", self.staleness)
            t.record("rescatters", self.rescatters)
            t.record("drift_ratio", self._acc.drift_ratio)
            t.record("dirty_tiles", self.ledger.dirty_count)
            t.record("dirty_mask", self.ledger.take())
            values = np.maximum(self._acc.surface(0), 0.0)
        self.staleness = 0
        return DensityGrid(self.bbox, values, diagnostics=t.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self.n_points}, "
            f"grid={self.nx}x{self.ny}, "
            f"b={self.bandwidth:g}, drift={self._acc.drift_ratio:.2f}, "
            f"rescatters={self.rescatters})"
        )
