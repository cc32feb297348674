"""Density grids: the raster output of KDV / IDW / kriging.

A :class:`DensityGrid` couples an ``(nx, ny)`` value array with the window
and pixel lattice it was evaluated on.  Values are indexed ``values[i, j]``
for pixel column ``i`` (x) and row ``j`` (y), matching the pixel-centre
convention of :meth:`repro.geometry.BoundingBox.pixel_centers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, ParameterError
from ..geometry import BoundingBox
from ..obs import Diagnostics

__all__ = ["DensityGrid"]


@dataclass(frozen=True)
class DensityGrid:
    """Raster of per-pixel values over a bounding box.

    ``diagnostics`` is an optional :class:`repro.obs.Diagnostics` record
    attached by the backend that produced the grid (span tree + counters,
    plus structured records such as the dual-tree backend's
    ``RefinementStats`` under ``records["refinement"]``); it is ``None``
    for backends that do not report one and never participates in
    numeric behaviour.
    """

    bbox: BoundingBox
    values: np.ndarray
    diagnostics: Diagnostics | None = None

    def __post_init__(self) -> None:
        # float32 surfaces (the scatter core's reduced-accuracy mode) keep
        # their dtype; everything else is coerced to the float64 default.
        arr = np.asarray(self.values)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("density grid contains non-finite values")
        object.__setattr__(self, "values", arr)

    # -- shape ----------------------------------------------------------------

    @property
    def nx(self) -> int:
        return int(self.values.shape[0])

    @property
    def ny(self) -> int:
        return int(self.values.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return self.bbox.pixel_centers(self.nx, self.ny)

    # -- statistics -------------------------------------------------------------

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def min(self) -> float:
        return float(self.values.min())

    def normalized(self) -> np.ndarray:
        """Values linearly rescaled to [0, 1] (constant grids map to 0)."""
        lo, hi = self.min, self.max
        if hi == lo:
            return np.zeros_like(self.values)
        return (self.values - lo) / (hi - lo)

    def argmax_coords(self) -> tuple[float, float]:
        """Planar coordinates of the highest-density pixel centre."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        xs, ys = self.pixel_centers()
        return float(xs[i]), float(ys[j])

    def value_at(self, x: float, y: float) -> float:
        """Value of the pixel containing ``(x, y)``."""
        if not (self.bbox.xmin <= x <= self.bbox.xmax and self.bbox.ymin <= y <= self.bbox.ymax):
            raise ParameterError(f"({x}, {y}) lies outside the grid window")
        dx, dy = self.bbox.pixel_size(self.nx, self.ny)
        i = min(int((x - self.bbox.xmin) / dx), self.nx - 1)
        j = min(int((y - self.bbox.ymin) / dy), self.ny - 1)
        return float(self.values[i, j])

    def threshold_mask(self, quantile: float) -> np.ndarray:
        """Boolean mask of pixels at or above the given value quantile.

        This is the "red region" selector of the paper's heatmaps: e.g.
        ``quantile=0.95`` marks the top 5% densest pixels as the hotspot.
        """
        if not (0.0 <= quantile < 1.0):
            raise ParameterError(f"quantile must be in [0, 1), got {quantile}")
        cut = np.quantile(self.values, quantile)
        return self.values >= cut

    # -- arithmetic ---------------------------------------------------------------

    def max_abs_difference(self, other: "DensityGrid") -> float:
        """Largest absolute per-pixel difference (grids must align)."""
        self._check_aligned(other)
        return float(np.abs(self.values - other.values).max())

    def max_relative_error(self, other: "DensityGrid", floor: float = 1e-12) -> float:
        """Largest per-pixel relative error against ``other`` as reference."""
        self._check_aligned(other)
        ref = np.maximum(np.abs(other.values), floor)
        return float((np.abs(self.values - other.values) / ref).max())

    def _check_aligned(self, other: "DensityGrid") -> None:
        if self.shape != other.shape or self.bbox != other.bbox:
            raise ParameterError("grids are defined on different lattices")
