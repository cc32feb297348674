"""Streaming-maintained KDV surfaces aligned to the serving tile lattice.

A :class:`MaintainedSurface` **is** a :class:`repro.stream.StreamingKDV`
whose raster is ``tile_px * 2**zoom`` pixels square with a dirty-tile
ledger of exactly ``tile_px``-pixel tiles — so the ledger lattice is the
serving tile lattice, and "tile ``(tx, ty)`` is dirty" translates
one-for-one into "evict cache key ``(tx, ty)``".  That alignment is the
whole trick behind streaming-driven invalidation: an ingest batch
touches the kernel patches of its new events only, the ledger compares
those candidate tiles pixel-for-pixel, and the service evicts exactly
the tiles that changed while the rest of the cached pyramid stays warm.

Surfaces are additions-only consumers (the serving dataset is
append-only), so the accumulator's insert/remove drift never grows and
the re-scatter escape hatch stays dormant; ``rescatter_ratio=None``
makes that explicit.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ParameterError, ServeError
from ..geometry import BoundingBox
from ..stream import StreamDelta, StreamingKDV

__all__ = ["MaintainedSurface"]

_EMPTY_POINTS = np.empty((0, 2), dtype=np.float64)
_EMPTY_TIMES = np.empty(0, dtype=np.float64)


class MaintainedSurface(StreamingKDV):
    """One dataset's KDV pyramid level, kept current by ingest deltas.

    Parameters
    ----------
    dataset:
        The :class:`~repro.serve.datasets.Dataset` this surface tracks
        (fixed window; append-only contents).
    zoom:
        Pyramid level; the raster is ``tile_px * 2**zoom`` square and the
        tile lattice is ``2**zoom x 2**zoom``.
    bandwidth, kernel, dtype:
        KDV parameters, fixed for the surface's lifetime — the service
        keys surfaces by them.
    tile_px:
        Tile side in pixels; it is the dirty-tile ledger's ``tile``.
    """

    def __init__(self, dataset, zoom: int, bandwidth: float,
                 kernel: str = "quartic", tile_px: int = 64, dtype=None):
        zoom = int(zoom)
        if zoom < 0:
            raise ParameterError(f"zoom must be >= 0, got {zoom}")
        tile_px = int(tile_px)
        if tile_px < 1:
            raise ParameterError(f"tile_px must be positive, got {tile_px}")
        npx = tile_px * (2 ** zoom)
        super().__init__(
            dataset.bbox, (npx, npx), bandwidth, kernel=kernel,
            tile=tile_px, rescatter_ratio=None,
            dtype=np.float64 if dtype is None else dtype,
        )
        self.zoom = zoom
        self._lock = threading.Lock()
        self._version = -1   # dataset version last synced (-1 = never)

    def sync(self, dataset) -> tuple[tuple[int, int], ...]:
        """Scatter any dataset points this surface has not seen yet.

        Returns the ``(tx, ty)`` tiles whose pixels actually changed
        (read through the ledger's public
        :meth:`~repro.stream.DirtyTileLedger.dirty_tiles` accessor, then
        cleared) — exactly the cache entries the service must evict.
        Returns ``()`` when already current, which is the hot no-op path
        of every cached tile request.
        """
        with self._lock:
            if dataset.version == self._version:
                return ()
            # Append-only: the points on the surface are a dataset prefix.
            new_pts, new_ts = dataset.points_since(self.n_points)
            self.apply(StreamDelta(
                entered_points=np.asarray(new_pts, dtype=np.float64),
                entered_times=np.asarray(new_ts, dtype=np.float64),
                left_points=_EMPTY_POINTS,
                left_times=_EMPTY_TIMES,
                window=dataset,
            ))
            self._version = dataset.version
            dirty = self.ledger.dirty_tiles()
            self.ledger.clear_dirty()
            return dirty

    def tile_bounds_px(self, tx: int, ty: int) -> tuple[int, int, int, int]:
        """Pixel bounds of tile ``(tx, ty)``; bad addresses raise 404s."""
        ledger = self.ledger
        if not (0 <= tx < ledger.tiles_nx and 0 <= ty < ledger.tiles_ny):
            raise ServeError(
                f"tile ({tx}, {ty}) outside the "
                f"{ledger.tiles_nx}x{ledger.tiles_ny} lattice at zoom "
                f"{self.zoom}"
            )
        return ledger.bounds(tx, ty)

    def tile_bbox(self, tx: int, ty: int) -> BoundingBox:
        """Geographic extent of tile ``(tx, ty)``."""
        x0, x1, y0, y1 = self.tile_bounds_px(tx, ty)
        dx, dy = self.bbox.pixel_size(self.nx, self.ny)
        return BoundingBox(
            self.bbox.xmin + x0 * dx, self.bbox.ymin + y0 * dy,
            self.bbox.xmin + x1 * dx, self.bbox.ymin + y1 * dy,
        )

    def tile_values(self, tx: int, ty: int) -> np.ndarray:
        """Density values of tile ``(tx, ty)``, ``(tile_px, tile_px)``.

        Clamped at zero like :meth:`StreamingKDV.snapshot` (float
        cancellation residue must not leak negative densities to
        clients); always a fresh array, safe to cache.
        """
        x0, x1, y0, y1 = self.tile_bounds_px(tx, ty)
        with self._lock:
            view = self.accumulator.surface_view(0)
            return np.maximum(view[x0:x1, y0:y1], 0.0)
