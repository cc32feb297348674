"""Pair-correlation function g(r) — the K-function's derivative view.

Where Ripley's K is cumulative (pairs within ``s``), the pair-correlation
function is the density of pairs *at* distance ``r``:

    g(r) = K'(r) / (2 pi r),

with ``g = 1`` under CSR, ``g > 1`` at distances where points attract and
``g < 1`` where they repel.  Because it is not cumulative, g localises the
interaction scale far better than K — spatstat plots both, and analysts
read cluster radii off the g curve.

The estimator bins the pair distances and kernel-smooths them (Epanechnikov
smoothing over distance, the spatstat default):

    g(r) = |A| / (2 pi r n (n-1)) * sum_{i != j} k_h(r - d_ij).
"""

from __future__ import annotations

import numpy as np

from ..._validation import as_points, check_positive, check_thresholds
from ...errors import ParameterError
from ...geometry import BoundingBox
from ...index import QUERY_BLOCK, GridIndex

__all__ = ["pair_correlation"]


def pair_correlation(
    points,
    radii,
    bbox: BoundingBox,
    smoothing: float | None = None,
) -> np.ndarray:
    """Estimate g(r) at the given radii.

    Parameters
    ----------
    points:
        ``(n, 2)`` event locations.
    radii:
        Sorted positive radii at which to evaluate g.
    bbox:
        Study window (provides |A| for the intensity normalisation).
    smoothing:
        Epanechnikov smoothing half-width ``h``; defaults to
        ``0.15 / sqrt(lambda)`` (a spatstat-style intensity-scaled rule).

    Returns
    -------
    ``(len(radii),)`` float array of g estimates.
    """
    pts = as_points(points)
    rs = check_thresholds(radii, name="radii")
    if rs[0] <= 0.0:
        raise ParameterError("radii must be strictly positive (g(0) diverges)")
    n = pts.shape[0]
    if n < 2:
        raise ParameterError("pair correlation needs at least two points")

    lam = n / bbox.area
    if smoothing is None:
        smoothing = 0.15 / np.sqrt(lam)
    else:
        smoothing = check_positive(smoothing, "smoothing")

    # Collect pair distances out to r_max + h via the grid index.
    reach = float(rs.max()) + smoothing
    index = GridIndex.for_radius(pts, reach)
    all_d: list[np.ndarray] = []
    for start in range(0, n, QUERY_BLOCK):
        for _, d2 in index.neighbor_pairs(pts[start:start + QUERY_BLOCK], reach):
            d2 = d2[d2 > 0.0]  # drop the self-distance
            if d2.size:
                all_d.append(np.sqrt(d2))
    if not all_d:
        return np.zeros(rs.shape[0], dtype=np.float64)
    dists = np.sort(np.concatenate(all_d))

    # Epanechnikov smoothing: k_h(u) = 0.75/h (1 - (u/h)^2) on |u| <= h.
    out = np.empty(rs.shape[0], dtype=np.float64)
    h = smoothing
    for k, r in enumerate(rs):
        lo = np.searchsorted(dists, r - h, side="left")
        hi = np.searchsorted(dists, r + h, side="right")
        window = dists[lo:hi]
        if window.size == 0:
            out[k] = 0.0
            continue
        u = (window - r) / h
        weights = 0.75 / h * (1.0 - u * u)
        total = float(weights.sum())
        out[k] = bbox.area * total / (2.0 * np.pi * r * n * (n - 1))
    return out
