"""Spatial index substrate: uniform grid, kd-tree, and ball-tree.

All three structures are implemented from scratch (the paper's
range-query-based methods cite kd-trees [21], ball-trees [71] and uniform
grids as the standard carriers).  They expose a common core:

* ``range_indices(center, radius)`` / ``range_count(center, radius)``
  (a non-finite centre raises :class:`~repro.errors.DataError`)
* ``neighbor_distances(center, radius)``, the squared
  ``neighbor_d2(center, radius)`` and the batched
  ``neighbor_pairs(queries, radius)`` (grid, kd-tree, dynamic grid; both
  grids answer every query, single-point ones as a batch of one, and the
  id-yielding ``neighbors`` / ``neighbor_blocks`` through one vectorised
  cell-block kernel)
* the module-level ``threshold_counts(index, queries, thresholds)`` over
  any of those three — the one multi-threshold pair counter of the planar
  K-function family — and ``threshold_totals``, its sum over the queries
  counted on either grid without listing the pairs
* node-level traversal with distance bounds (kd-tree, ball-tree) — carrier
  for the bound-based KDV refinement.

Every query decides membership with the library's single within-distance
test, :func:`repro.geometry.distance.within`, so all structures (and the
naive pair counts) agree on boundary and underflow cases.
"""

from .balltree import BallTree
from .counts import QUERY_BLOCK, threshold_counts, threshold_totals
from .dynamic import DynamicGridIndex
from .grid import GridIndex
from .kdtree import KDTree
from .rangetree import RangeTree

__all__ = ["QUERY_BLOCK", "BallTree", "DynamicGridIndex", "GridIndex", "KDTree",
           "RangeTree", "threshold_counts", "threshold_totals"]
