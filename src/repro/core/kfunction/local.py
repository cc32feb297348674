"""Local K-function: per-point neighbourhood counts with CSR z-scores.

The global K-function answers "is the dataset clustered?"; the *local*
K-function (Getis & Franklin 1987) answers "which points sit in clusters?"
— the bridge between correlation analysis and hotspot detection that the
paper's §2.1 narrative builds.

For point ``p_i`` the local statistic is the neighbour count

    K_i(s) = #{ j != i : dist(p_i, p_j) <= s }.

Under CSR within the window each other point falls in the disc with
probability ``pi s^2 / |A|`` (ignoring edge effects), so

    K_i(s) ~ Binomial(n - 1, pi s^2 / |A|),

which yields a per-point z-score; points with large positive z are cluster
members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..._validation import as_points, check_thresholds
from ...errors import ParameterError
from ...geometry import BoundingBox
from ...index import GridIndex, threshold_counts

__all__ = ["LocalKResult", "local_k_function"]


@dataclass(frozen=True)
class LocalKResult:
    """Per-point local K counts and CSR z-scores."""

    thresholds: np.ndarray
    counts: np.ndarray  # (n, D)
    z_scores: np.ndarray  # (n, D)

    def cluster_members(self, threshold_index: int = -1, z_cut: float = 1.96) -> np.ndarray:
        """Boolean mask of points whose neighbourhood is significantly dense."""
        return self.z_scores[:, threshold_index] > z_cut


def local_k_function(
    points,
    thresholds,
    bbox: BoundingBox,
) -> LocalKResult:
    """Local K-function for every point at every threshold.

    Computed with one grid-index walk per point at the largest threshold
    (the same multi-threshold batching as the global tool).
    """
    pts = as_points(points)
    ts = check_thresholds(thresholds)
    n = pts.shape[0]
    if n < 2:
        raise ParameterError("local K-function needs at least two points")
    if not isinstance(bbox, BoundingBox):
        raise ParameterError("bbox must be a BoundingBox")

    grid = GridIndex.for_radius(pts, ts[-1])
    counts = threshold_counts(grid, pts, ts) - 1  # drop self

    # Binomial CSR null per threshold.
    p = np.clip(np.pi * ts * ts / bbox.area, 0.0, 1.0)
    mean = (n - 1) * p
    var = (n - 1) * p * (1.0 - p)
    sd = np.sqrt(np.maximum(var, 1e-300))
    z = (counts - mean[None, :]) / sd[None, :]
    return LocalKResult(thresholds=ts, counts=counts, z_scores=z)
