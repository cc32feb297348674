"""Spatial index substrate: uniform grid, kd-tree, and ball-tree.

All three structures are implemented from scratch (the paper's
range-query-based methods cite kd-trees [21], ball-trees [71] and uniform
grids as the standard carriers).  They expose a common core:

* ``range_indices(center, radius)`` / ``range_count(center, radius)``
* ``neighbor_distances(center, radius)`` and the squared
  ``neighbor_d2(center, radius)`` (grid, kd-tree, dynamic grid)
* ``count_within_thresholds(queries, thresholds)`` (grid, kd-tree) —
  multi-threshold batching for K-function plots
* node-level traversal with distance bounds (kd-tree, ball-tree) — carrier
  for the bound-based KDV refinement.

Every query decides membership with the library's single within-distance
test, :func:`repro.geometry.distance.within`, so all structures (and the
naive pair counts) agree on boundary and underflow cases.
"""

from .balltree import BallTree
from .dynamic import DynamicGridIndex
from .grid import GridIndex
from .kdtree import KDTree
from .rangetree import RangeTree

__all__ = ["BallTree", "DynamicGridIndex", "GridIndex", "KDTree", "RangeTree"]
