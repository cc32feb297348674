"""Uniform grid (bucket) index over a planar point set.

The grid index is the workhorse behind the cutoff-based KDV backend, the
planar K-function family, and DBSCAN: points are hashed into square cells
of a chosen size, and a range query only inspects the O((r/cell)^2) cells
overlapping the query disc.

Points are sorted by cell once, at construction, into a
:class:`~repro.index.counts.CellLayout`: the batched cell-block kernel
answers every query, batched or single-point (a batch of one), through
:class:`~repro.index.counts.CellQueries`.  :meth:`GridIndex.for_radius`
builds the grid of a radius query with the one cell-size floor.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_points, check_positive
from ..geometry import BoundingBox
from .counts import CellLayout, CellQueries, lattice_axis

__all__ = ["GridIndex"]

#: Floor of a radius grid's cell side.  A zero radius (coincident points
#: only) still gets a valid grid: the lattice cap keeps the cells as wide
#: as ``GridIndex`` allows, and the pair kernel accepts radius 0.
_MIN_CELL = float(np.finfo(float).tiny)


class GridIndex(CellQueries):
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

        ix = lattice_axis(self.points[:, 0], self.bbox.xmin, self.cell_w, self.nx)
        iy = lattice_axis(self.points[:, 1], self.bbox.ymin, self.cell_h, self.ny)
        flat = ix * self.ny + iy
        # ``order`` sorts the points by cell id: the kernel's ids.
        self.order = np.argsort(flat, kind="stable")
        sorted_points = self.points[self.order]
        self._layout = CellLayout(
            flat[self.order], self.order, sorted_points[:, 0], sorted_points[:, 1],
            self.bbox.xmin, self.bbox.ymin, self.cell_w, self.cell_h,
            self.nx, self.ny,
        )

    @classmethod
    def for_radius(cls, points, radius: float,
                   bbox: BoundingBox | None = None) -> "GridIndex":
        """The grid a query at ``radius >= 0`` walks: cells of that radius.

        The cell side is floored at :data:`_MIN_CELL`, so a zero radius
        needs no special case; the exact distance test makes the floor
        invisible in every result.
        """
        return cls(points, cell_size=max(float(radius), _MIN_CELL), bbox=bbox)

    def _cells_layout(self) -> CellLayout:
        return self._layout

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridIndex(n={len(self)}, cells={self.nx}x{self.ny}, "
            f"cell_size={self.cell_size:g})"
        )
