"""Grid-accelerated DBSCAN.

The paper's introduction lists spatial clustering [18, 88] among the
quadratic-cost tools, and §2.4 cites the DBSCAN hardness results [48, 49].
This implementation uses the library's uniform grid index so each
eps-neighbourhood query inspects only the 3x3 cell block — the standard
practical acceleration.

Labels follow the scikit-learn convention: ``-1`` marks noise, clusters
are numbered from 0 in discovery order.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..._validation import as_points, check_positive
from ...errors import ParameterError
from ...index import GridIndex

__all__ = ["dbscan"]


def dbscan(points, eps: float, min_pts: int = 5) -> np.ndarray:
    """Density-based clustering; returns an (n,) int label array.

    Parameters
    ----------
    points:
        ``(n, 2)`` locations.
    eps:
        Neighbourhood radius.
    min_pts:
        Minimum neighbourhood size (including the point itself) for a core
        point.
    """
    pts = as_points(points)
    eps = check_positive(eps, "eps")
    min_pts = int(min_pts)
    if min_pts < 1:
        raise ParameterError(f"min_pts must be >= 1, got {min_pts}")

    n = pts.shape[0]
    index = GridIndex.for_radius(pts, eps)

    # Pre-compute neighbourhoods once: DBSCAN visits each at most twice.
    neighborhoods: list[np.ndarray] = []
    for _, bounds, ids, _ in index.neighbor_blocks(pts, eps):
        neighborhoods.extend(np.split(ids, bounds[1:-1]))
    core = np.array([nbr.shape[0] >= min_pts for nbr in neighborhoods])

    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != -1 or not core[seed]:
            continue
        labels[seed] = cluster
        queue = deque(neighborhoods[seed])
        while queue:
            j = int(queue.popleft())
            if labels[j] == -1:
                labels[j] = cluster
                if core[j]:
                    queue.extend(neighborhoods[j])
        cluster += 1
    return labels
