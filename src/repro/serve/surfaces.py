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

A surface starts with no tile rendered.  Each tile is rendered the first
time it is read: its pixels are zeroed and the synced dataset prefix is
scattered clipped to the tile (:meth:`~repro.core.scatter.PatchScatter.
scatter`'s ``clip``), so a cold tile costs one tile, not its zoom level.
Only rendered ("ready") tiles are compared and reported by :meth:`sync`.
A ready tile is bit-identical to the same tile of a surface that had
scattered every sync eagerly: each pixel adds the dataset's points in
order from +0.0, and the render replays the syncs' batches, because a
float32 scatter orders each batch by bucket.
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
        self._dataset = dataset
        self._lock = threading.Lock()
        self._version = -1   # dataset version last synced (-1 = never)
        self._ready = np.zeros(
            (self.ledger.tiles_nx, self.ledger.tiles_ny), dtype=bool
        )
        # The synced dataset prefix length after each sync that added
        # points: the batch boundaries a render replays.
        self._synced = [0]

    @property
    def n_points(self) -> int:
        """Length of the synced dataset prefix every tile stands for."""
        return self._synced[-1]

    @property
    def tiles_ready(self) -> int:
        """Number of tiles rendered so far."""
        return int(np.count_nonzero(self._ready))

    def sync(self, dataset) -> tuple[tuple[int, int], ...]:
        """Take in any dataset points this surface has not seen yet.

        The new points are scattered onto the surface and the ready tiles
        they may touch are compared pixel for pixel.  Returns the ready
        ``(tx, ty)`` tiles whose pixels actually changed (read through the
        ledger's public :meth:`~repro.stream.DirtyTileLedger.dirty_tiles`
        accessor, then cleared) — exactly the cache entries the service
        must evict; a tile never rendered was never served.  Returns
        ``()`` when already current, which is the hot no-op path of every
        cached tile request.  A surface with no ready tile scatters
        nothing: each first read renders from the prefix.
        """
        with self._lock:
            if dataset.version == self._version:
                return ()
            # Append-only: the points on the surface are a dataset prefix.
            start = self.n_points
            new_pts, new_ts = dataset.points_since(start)
            self._version = dataset.version
            if new_pts.shape[0] == 0:
                return ()
            self._synced.append(start + new_pts.shape[0])
            if not self._ready.any():
                return ()
            self.apply(StreamDelta(
                entered_points=np.asarray(new_pts, dtype=np.float64),
                entered_times=np.asarray(new_ts, dtype=np.float64),
                left_points=_EMPTY_POINTS,
                left_times=_EMPTY_TIMES,
                window=dataset,
            ))
            dirty = self.ledger.dirty_tiles()
            self.ledger.clear_dirty()
            return dirty

    def _candidate_tiles(self, pts: np.ndarray) -> list[tuple[int, int]]:
        """The ready tiles ``pts``'s kernel patches may touch."""
        return [
            t for t in super()._candidate_tiles(pts) if self._ready[t]
        ]

    def render(self, tx: int, ty: int) -> bool:
        """Render tile ``(tx, ty)`` unless it is ready; True if it rendered.

        Zeroes the tile's pixels and scatters the synced prefix onto it,
        one scatter per sync batch, clipped to the tile.  Candidate
        points come from one bounding-box test padded by the kernel's
        reach; the clipped windows make the exact cut.
        """
        self.tile_bounds_px(tx, ty)   # a bad address is a 404
        with self._lock:
            return self._render(tx, ty)

    def _render(self, tx: int, ty: int) -> bool:
        if self._ready[tx, ty]:
            return False
        clip = self.ledger.bounds(tx, ty)
        x0, x1, y0, y1 = clip
        scatterer = self.accumulator.scatterer
        box = self.tile_bbox(tx, ty)
        dx, dy = self.bbox.pixel_size(self.nx, self.ny)
        reach = scatterer.radius + max(dx, dy)
        pts = self._dataset.points[:self.n_points]
        near = np.flatnonzero(
            (pts[:, 0] >= box.xmin - reach) & (pts[:, 0] <= box.xmax + reach)
            & (pts[:, 1] >= box.ymin - reach) & (pts[:, 1] <= box.ymax + reach)
        )
        cuts = np.searchsorted(near, self._synced).tolist()
        view = self.accumulator.surface_view(0)
        view[x0:x1, y0:y1] = 0.0
        # Unweighted, where sync adds unit weights: ``1.0 * x`` is ``x``,
        # and a float32 sum taken in float64 then rounded is the float32
        # sum, so the pixels match bit for bit.
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b > a:
                scatterer.scatter(view, pts[near[a:b]], clip=clip)
        self._ready[tx, ty] = True
        return True

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

        Renders the tile first if it is not ready.  Clamped at zero like
        :meth:`StreamingKDV.snapshot` (float cancellation residue must
        not leak negative densities to clients); always a fresh array,
        safe to cache.
        """
        x0, x1, y0, y1 = self.tile_bounds_px(tx, ty)
        with self._lock:
            self._render(tx, ty)
            view = self.accumulator.surface_view(0)
            return np.maximum(view[x0:x1, y0:y1], 0.0)

    def snapshot(self):
        """The whole surface, every unready tile rendered first."""
        with self._lock:
            for tx, ty in np.argwhere(~self._ready).tolist():
                self._render(tx, ty)
            return super().snapshot()
