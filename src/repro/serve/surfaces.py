"""Maintained KDV surfaces stored as the serving tiles they rendered.

A :class:`MaintainedSurface` is one dataset's KDV pyramid level: a
``tile_px * 2**zoom`` square raster cut into the serving lattice of
``tile_px``-pixel tiles.  It stores only the tiles it has rendered, so
its memory is bounded by the tiles read, never by the zoom level.

Every write scatters a point batch onto one stored tile, clipped to it
(:meth:`~repro.core.scatter.PatchScatter.scatter`'s ``clip``).  A tile
is rendered on its first read by replaying the synced batches onto a
zero tile.  A sync scatters a new batch onto the rendered ("ready")
tiles its kernel windows reach and reports those whose pixels changed:
exactly the cache keys the service must evict.  A ready tile is
bit-identical to the same tile of a surface that scattered every sync
eagerly onto the whole raster: each pixel adds the dataset's points in
order from +0.0, batch by batch, because a float32 scatter orders each
batch by bucket.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.scatter import PatchScatter
from ..errors import ParameterError, ServeError
from ..geometry import BoundingBox
from ..raster import DensityGrid

__all__ = ["MaintainedSurface"]


class MaintainedSurface:
    """One dataset's KDV pyramid level, kept current by ingest syncs.

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
        Tile side in pixels.
    """

    def __init__(self, dataset, zoom: int, bandwidth: float,
                 kernel: str = "quartic", tile_px: int = 64, dtype=None):
        zoom = int(zoom)
        if zoom < 0:
            raise ParameterError(f"zoom must be >= 0, got {zoom}")
        tile_px = int(tile_px)
        if tile_px < 1:
            raise ParameterError(f"tile_px must be positive, got {tile_px}")
        self.zoom = zoom
        self.tile_px = tile_px
        self.side = 2 ** zoom
        self.nx = self.ny = tile_px * self.side
        self.bbox = dataset.bbox
        self._scatterer = PatchScatter(
            self.bbox, (self.nx, self.ny), bandwidth, kernel=kernel,
            dtype=np.float64 if dtype is None else dtype,
        )
        self._dataset = dataset
        self._lock = threading.Lock()
        self._version = -1   # dataset version last synced (-1 = never)
        self._tiles: dict[tuple[int, int], np.ndarray] = {}
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
        return len(self._tiles)

    def _scatter(self, tile: np.ndarray, t, pts: np.ndarray) -> None:
        """Add ``pts``'s kernel patches to tile ``t``, clipped to it."""
        # Unweighted: ``1.0 * x`` is ``x``, and a float32 sum taken in
        # float64 then rounded is the float32 sum, so a tile matches a
        # unit-weight whole-raster scatter bit for bit.
        self._scatterer.scatter(tile, pts, clip=self.tile_bounds_px(*t))

    def sync(self, dataset) -> tuple[tuple[int, int], ...]:
        """Take in any dataset points this surface has not seen yet.

        The new points are scattered onto the ready tiles their kernel
        windows reach.  Returns the sorted ``(tx, ty)`` of those whose
        pixels actually changed — exactly the cache entries the service
        must evict; a tile never rendered was never served.  Returns
        ``()`` when already current, which is the hot no-op path of every
        cached tile request.
        """
        with self._lock:
            if dataset.version == self._version:
                return ()
            # Append-only: the points on the surface are a dataset prefix.
            start = self.n_points
            new_pts, _ = dataset.points_since(start)
            self._version = dataset.version
            if new_pts.shape[0] == 0:
                return ()
            self._synced.append(start + new_pts.shape[0])
            if not self._tiles:
                return ()
            dirty = []
            for t in self._scatterer.window_tiles(new_pts, self.tile_px):
                tile = self._tiles.get(t)
                if tile is None:
                    continue
                before = tile.copy()
                self._scatter(tile, t, new_pts)
                if not np.array_equal(tile, before):
                    dirty.append(t)
            return tuple(dirty)

    def render(self, tx: int, ty: int) -> bool:
        """Render tile ``(tx, ty)`` unless it is ready; True if it rendered.

        Scatters the synced prefix onto a zero tile, one scatter per sync
        batch.  Candidate points come from one bounding-box test padded
        by the kernel's reach; the clipped windows make the exact cut.
        """
        self.tile_bounds_px(tx, ty)   # a bad address is a 404
        with self._lock:
            return self._render((tx, ty))

    def _render(self, t) -> bool:
        if t in self._tiles:
            return False
        box = self.tile_bbox(*t)
        dx, dy = self.bbox.pixel_size(self.nx, self.ny)
        reach = self._scatterer.radius + max(dx, dy)
        pts = self._dataset.prefix(self.n_points)
        near = np.flatnonzero(
            (pts[:, 0] >= box.xmin - reach) & (pts[:, 0] <= box.xmax + reach)
            & (pts[:, 1] >= box.ymin - reach) & (pts[:, 1] <= box.ymax + reach)
        )
        cuts = np.searchsorted(near, self._synced).tolist()
        tile = np.zeros((self.tile_px, self.tile_px),
                        dtype=self._scatterer.dtype)
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b > a:
                self._scatter(tile, t, pts[near[a:b]])
        self._tiles[t] = tile
        return True

    def tile_bounds_px(self, tx: int, ty: int) -> tuple[int, int, int, int]:
        """Pixel bounds of tile ``(tx, ty)``; bad addresses raise 404s."""
        if not (0 <= tx < self.side and 0 <= ty < self.side):
            raise ServeError(
                f"tile ({tx}, {ty}) outside the {self.side}x{self.side} "
                f"lattice at zoom {self.zoom}"
            )
        x0, y0 = tx * self.tile_px, ty * self.tile_px
        return x0, x0 + self.tile_px, y0, y0 + self.tile_px

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

        Renders the tile first if it is not ready.  Clamped at zero (float
        cancellation residue must not leak negative densities to
        clients); always a fresh array, safe to cache.
        """
        self.tile_bounds_px(tx, ty)
        with self._lock:
            self._render((tx, ty))
            return np.maximum(self._tiles[tx, ty], 0.0)

    def snapshot(self) -> DensityGrid:
        """The whole surface, every unready tile rendered first."""
        values = np.empty((self.nx, self.ny), dtype=self._scatterer.dtype)
        with self._lock:
            for tx in range(self.side):
                for ty in range(self.side):
                    self._render((tx, ty))
                    x0, x1, y0, y1 = self.tile_bounds_px(tx, ty)
                    values[x0:x1, y0:y1] = np.maximum(self._tiles[tx, ty], 0.0)
        return DensityGrid(self.bbox, values)
