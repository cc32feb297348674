"""Axis-aligned bounding boxes (the "study window" of point-pattern analysis).

Every analytic tool in the library operates within a rectangular window.
:class:`BoundingBox` carries that window, knows its area (needed by Ripley's
normalisation and CSR simulation), and can generate the pixel-centre lattices
used by the visualisation tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_points, check_positive
from ..errors import ParameterError

__all__ = ["BoundingBox"]


@dataclass(frozen=True)
class BoundingBox:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ParameterError(
                "BoundingBox requires xmin < xmax and ymin < ymax, got "
                f"[{self.xmin}, {self.xmax}] x [{self.ymin}, {self.ymax}]"
            )

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))

    # -- construction ------------------------------------------------------

    @classmethod
    def of_points(cls, points, margin: float = 0.0) -> "BoundingBox":
        """Tight bounding box of a point set, optionally padded by ``margin``.

        A degenerate (zero-width or zero-height) extent is padded by half a
        unit on the degenerate side so the result is always a valid window.
        """
        pts = as_points(points)
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        if xmin == xmax:
            xmin, xmax = xmin - 0.5, xmax + 0.5
        if ymin == ymax:
            ymin, ymax = ymin - 0.5, ymax + 0.5
        if margin:
            margin = float(margin)
            xmin, xmax = xmin - margin, xmax + margin
            ymin, ymax = ymin - margin, ymax + margin
        return cls(float(xmin), float(ymin), float(xmax), float(ymax))

    @classmethod
    def unit(cls) -> "BoundingBox":
        """The unit square ``[0, 1]^2``."""
        return cls(0.0, 0.0, 1.0, 1.0)

    def expanded(self, margin: float) -> "BoundingBox":
        """A copy grown by ``margin`` on every side."""
        margin = float(margin)
        return BoundingBox(
            self.xmin - margin, self.ymin - margin,
            self.xmax + margin, self.ymax + margin,
        )

    # -- queries -----------------------------------------------------------

    def contains(self, points) -> np.ndarray:
        """Boolean mask of which ``points`` fall inside the (closed) box."""
        pts = as_points(points, allow_empty=True)
        return (
            (pts[:, 0] >= self.xmin)
            & (pts[:, 0] <= self.xmax)
            & (pts[:, 1] >= self.ymin)
            & (pts[:, 1] <= self.ymax)
        )

    def clip(self, points) -> np.ndarray:
        """Return the subset of ``points`` inside the box."""
        pts = as_points(points, allow_empty=True)
        return pts[self.contains(pts)]

    # -- lattices ----------------------------------------------------------

    def pixel_centers(self, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
        """Centres of an ``nx x ny`` pixel grid covering the box.

        Returns ``(xs, ys)`` where ``xs`` has length ``nx`` and ``ys`` length
        ``ny``.  Pixel (i, j) covers
        ``[xmin + i*dx, xmin + (i+1)*dx] x [ymin + j*dy, ymin + (j+1)*dy]``
        and its centre is ``(xs[i], ys[j])``.
        """
        nx = int(nx)
        ny = int(ny)
        if nx <= 0 or ny <= 0:
            raise ParameterError(f"grid resolution must be positive, got {nx}x{ny}")
        dx = self.width / nx
        dy = self.height / ny
        xs = self.xmin + dx * (np.arange(nx) + 0.5)
        ys = self.ymin + dy * (np.arange(ny) + 0.5)
        return xs, ys

    def pixel_size(self, nx: int, ny: int) -> tuple[float, float]:
        """Side lengths ``(dx, dy)`` of a pixel in an ``nx x ny`` grid."""
        nx = int(nx)
        ny = int(ny)
        if nx <= 0 or ny <= 0:
            raise ParameterError(f"grid resolution must be positive, got {nx}x{ny}")
        return self.width / nx, self.height / ny

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` i.i.d. uniform points in the box (a binomial/CSR sample)."""
        n = int(n)
        if n < 0:
            raise ParameterError(f"sample size must be non-negative, got {n}")
        xs = rng.uniform(self.xmin, self.xmax, size=n)
        ys = rng.uniform(self.ymin, self.ymax, size=n)
        return np.column_stack([xs, ys])

    def torus_displacement(self, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Wrap coordinate differences onto the torus induced by the box.

        Used by the torus edge-correction of Ripley's K: each displacement is
        mapped to its shortest representative modulo the window period.
        """
        width = self.width
        height = self.height
        dx = np.abs(np.asarray(dx, dtype=np.float64))
        dy = np.abs(np.asarray(dy, dtype=np.float64))
        # ``abs``: a displacement a rounding error past the period wraps to
        # that small error, not to a negative length.
        dx = np.minimum(dx, np.abs(width - dx))
        dy = np.minimum(dy, np.abs(height - dy))
        return dx, dy

    def scaled_bandwidth(self, fraction: float) -> float:
        """A bandwidth expressed as a fraction of the window diagonal."""
        return check_positive(fraction, "fraction") * self.diagonal
