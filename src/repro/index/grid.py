"""Uniform grid (bucket) index over a planar point set.

The grid index is the workhorse behind the cutoff-based KDV backend, the
planar K-function family, and DBSCAN: points are hashed into square cells
of a chosen size, and a range query only inspects the O((r/cell)^2) cells
overlapping the query disc.

The implementation uses a CSR-style layout (``cell_start`` / ``order``)
instead of per-cell Python lists, so construction and queries are fully
vectorised.  The same cell-sorted order backs a
:class:`~repro.index.counts.CellLayout`, the batched pair kernel behind
``neighbor_pairs`` and so behind every planar K count; single-point
queries keep the cheaper per-query CSR slices.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_points, check_non_negative, check_positive
from ..geometry import BoundingBox
from ..geometry.distance import search_reach, squared_norm, within
from .counts import CellLayout, lattice_axis

__all__ = ["GridIndex"]


def _axis_cell(raw: float) -> int:
    """Floor a (possibly huge) cell coordinate into a safe Python int."""
    if raw > 2**62:
        return 2**62
    if raw < -(2**62):
        return -(2**62)
    return int(np.floor(raw))


class GridIndex:
    """Bucket index with square cells of side ``cell_size``.

    Parameters
    ----------
    points:
        ``(n, 2)`` planar coordinates.
    cell_size:
        Side length of each square cell.  For a query radius ``r`` the usual
        choice is ``cell_size = r`` so a query touches at most 9 cells of
        candidates (3x3 block).
    bbox:
        Optional window; defaults to the tight bounding box of the points.
        Points outside the window are clamped to boundary cells, so queries
        remain correct for any coordinates.
    """

    def __init__(self, points, cell_size: float, bbox: BoundingBox | None = None):
        self.points = as_points(points)
        self.cell_size = check_positive(cell_size, "cell_size")
        self.bbox = bbox if bbox is not None else BoundingBox.of_points(self.points)

        # Cap the lattice so a tiny cell_size (or huge window) cannot blow
        # up memory: the grid only pays off while cells >~ points anyway.
        n = self.points.shape[0]
        per_axis_cap = max(64, int(2 * np.sqrt(n)) + 1)

        def axis_cells(extent: float) -> int:
            raw = extent / self.cell_size
            if not np.isfinite(raw) or raw > per_axis_cap:
                return per_axis_cap
            return max(1, int(np.ceil(raw)))

        self.nx = axis_cells(self.bbox.width)
        self.ny = axis_cells(self.bbox.height)
        # Effective per-axis cell sizes (== cell_size unless capped).
        self.cell_w = max(self.bbox.width / self.nx, self.cell_size)
        self.cell_h = max(self.bbox.height / self.ny, self.cell_size)

        ix, iy = self._cell_of(self.points[:, 0], self.points[:, 1])
        flat = ix * self.ny + iy
        # CSR layout: order sorts points by cell, cell_start[c]..cell_start[c+1]
        # is the slice of `order` holding cell c's points.
        self.order = np.argsort(flat, kind="stable")
        sorted_flat = flat[self.order]
        counts = np.bincount(sorted_flat, minlength=self.nx * self.ny)
        self.cell_start = np.concatenate([[0], np.cumsum(counts)])
        self._sorted_points = self.points[self.order]
        self._layout = CellLayout(
            sorted_flat, self._sorted_points[:, 0], self._sorted_points[:, 1],
            self.bbox.xmin, self.bbox.ymin, self.cell_w, self.cell_h,
            self.nx, self.ny,
        )

    # -- internals -----------------------------------------------------------

    def _cell_of(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        return (lattice_axis(xs, self.bbox.xmin, self.cell_w, self.nx),
                lattice_axis(ys, self.bbox.ymin, self.cell_h, self.ny))

    def _candidate_slices(self, x: float, y: float, radius: float) -> list[tuple[int, int]]:
        """CSR slices of every cell a point within ``radius`` can occupy."""
        reach = search_reach(radius)
        ix_lo = _axis_cell((x - reach - self.bbox.xmin) / self.cell_w)
        ix_hi = _axis_cell((x + reach - self.bbox.xmin) / self.cell_w)
        iy_lo = _axis_cell((y - reach - self.bbox.ymin) / self.cell_h)
        iy_hi = _axis_cell((y + reach - self.bbox.ymin) / self.cell_h)
        # Clamp into the valid cell range (points outside the window were
        # clamped into boundary cells at build time, so boundary cells act
        # as half-open catch-alls; the exact distance filter removes any
        # false positives this introduces).
        ix_lo = min(max(ix_lo, 0), self.nx - 1)
        iy_lo = min(max(iy_lo, 0), self.ny - 1)
        ix_hi = min(max(ix_hi, 0), self.nx - 1)
        iy_hi = min(max(iy_hi, 0), self.ny - 1)
        slices: list[tuple[int, int]] = []
        for ix in range(ix_lo, ix_hi + 1):
            base = ix * self.ny
            start = self.cell_start[base + iy_lo]
            stop = self.cell_start[base + iy_hi + 1]
            if stop > start:
                slices.append((int(start), int(stop)))
        return slices

    def _candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Positions (into the CSR ordering) of all candidate points."""
        slices = self._candidate_slices(x, y, radius)
        if not slices:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b) for a, b in slices])

    # -- queries ---------------------------------------------------------------

    def range_indices(self, center, radius: float) -> np.ndarray:
        """Indices (into the original point array) within ``radius`` of ``center``."""
        radius = check_positive(radius, "radius")
        x, y = float(center[0]), float(center[1])
        pos = self._candidates(x, y, radius)
        if pos.size == 0:
            return pos
        cand = self._sorted_points[pos]
        keep = within(squared_norm(cand[:, 0] - x, cand[:, 1] - y), radius)
        return self.order[pos[keep]]

    def range_count(self, center, radius: float) -> int:
        """Number of points within ``radius`` of ``center``."""
        return int(self.range_indices(center, radius).shape[0])

    def neighbor_pairs(self, queries: np.ndarray, radius: float):
        """``(query_index, d2)`` chunks of every pair within ``radius >= 0``.

        The batched cell-block kernel (:meth:`CellLayout.pairs`) over the
        whole ``(m, 2)`` query array; :func:`threshold_counts` reads it.
        """
        return self._layout.pairs(queries, radius)

    def neighbor_d2(self, center, radius: float) -> np.ndarray:
        """Unsorted squared distances of every point within ``radius >= 0``."""
        radius = check_non_negative(radius, "radius")
        x, y = float(center[0]), float(center[1])
        pos = self._candidates(x, y, radius)
        if pos.size == 0:
            return np.empty(0, dtype=np.float64)
        cand = self._sorted_points[pos]
        d2 = squared_norm(cand[:, 0] - x, cand[:, 1] - y)
        return d2[within(d2, radius)]

    def neighbor_distances(self, center, radius: float) -> np.ndarray:
        """Unsorted distances from ``center`` to every point within ``radius``."""
        radius = check_positive(radius, "radius")
        return np.sqrt(self.neighbor_d2(center, radius))

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridIndex(n={len(self)}, cells={self.nx}x{self.ny}, "
            f"cell_size={self.cell_size:g})"
        )
