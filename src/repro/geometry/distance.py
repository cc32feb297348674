"""Distance computations used throughout the library.

Everything here is vectorised NumPy.  The pairwise helpers deliberately
support *chunked* evaluation so that O(n^2) baselines (naive K-function,
naive KDV) can run on large inputs without materialising an n x n matrix.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .._validation import as_points, check_positive
from ..errors import ParameterError

__all__ = [
    "search_reach",
    "squared_norm",
    "within",
    "squared_distances",
    "distances",
    "pairwise_distances",
    "iter_pairwise_squared",
    "haversine",
    "EARTH_RADIUS_M",
]

EARTH_RADIUS_M = 6_371_008.8
"""Mean Earth radius in metres (IUGG), used by :func:`haversine`."""

#: Extra reach for subnormal rounding.  A squared distance below
#: ``2**-1022`` is subnormal and is off by up to ``2**-1075``, so a point
#: can pass :func:`within` at a distance up to ``sqrt(r*r + 2**-1074)``,
#: which is at most ``r + 2**-537``.  Any reach of at least ``2**-537``
#: covers that; ``2**-510`` is a conservative bound.
_UNDERFLOW_REACH = 2.0 ** -510


# -- the within-distance predicate ------------------------------------------
#
# Every range query and pair count in the library decides "is this point
# within r of that one" with the same float expression, so that the
# methods agree on every input, including the ulp-level boundary and the
# underflow cases where squared and unsquared comparisons disagree.  Index
# structures prune and bulk-accept with bounds that are consistent with
# it (see search_reach).

def squared_norm(dx, dy):
    """``dx * dx + dy * dy``: the squared distance :func:`within` tests."""
    return dx * dx + dy * dy


def within(d2, radius):
    """The one within-distance test: ``d2 <= radius * radius``.

    ``d2`` is :func:`squared_norm` of the float coordinate differences
    ``(px - qx, py - qy)``.  A multi-threshold count is the same test
    applied per threshold, ``d2 <= t2[k]`` with ``t2 = copysign(t * t,
    t)`` so a negative threshold admits nothing
    (``repro.index.threshold_totals`` and ``threshold_counts``).
    """
    return d2 <= radius * radius


def search_reach(radius: float) -> float:
    """A distance every point that passes :func:`within` lies inside.

    Rounding lets a point slightly farther than ``radius`` pass the
    squared test: by a relative ``1e-9`` at most for normal squares, and
    by an absolute ``2**-537`` at most once the squares are subnormal.
    Candidate searches (grid cells, rectangles, tree pruning) use this
    reach so they never drop a point the test would keep.
    """
    return radius * (1.0 + 1e-9) + _UNDERFLOW_REACH


def squared_distances(queries, points) -> np.ndarray:
    """Squared Euclidean distances between query rows and point rows.

    Returns an ``(nq, np)`` matrix.  Computed with the expanded form
    ``|q|^2 - 2 q.p + |p|^2`` clipped at zero, which is the fastest
    vectorised formulation; the clip guards against tiny negative values
    from floating-point cancellation.
    """
    q = as_points(queries, name="queries", allow_empty=True)
    p = as_points(points, name="points", allow_empty=True)
    q_sq = np.sum(q * q, axis=1)[:, None]
    p_sq = np.sum(p * p, axis=1)[None, :]
    d2 = q_sq + p_sq - 2.0 * (q @ p.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def distances(queries, points) -> np.ndarray:
    """Euclidean distance matrix between query rows and point rows."""
    return np.sqrt(squared_distances(queries, points))


def pairwise_distances(points) -> np.ndarray:
    """Full symmetric pairwise distance matrix of one point set."""
    return distances(points, points)


def iter_pairwise_squared(points, chunk: int = 2048) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, block)`` of squared distances in row chunks.

    ``block`` holds the squared distances from points ``start:stop`` to all
    points.  Memory use is bounded by ``chunk * n`` doubles, so quadratic
    baselines can process hundreds of thousands of points.
    """
    pts = as_points(points)
    chunk = int(chunk)
    if chunk <= 0:
        raise ParameterError(f"chunk must be positive, got {chunk}")
    n = pts.shape[0]
    p_sq = np.sum(pts * pts, axis=1)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = p_sq[start:stop, None] + p_sq[None, :] - 2.0 * (pts[start:stop] @ pts.T)
        np.maximum(block, 0.0, out=block)
        yield start, stop, block


def haversine(lonlat_a, lonlat_b, radius: float = EARTH_RADIUS_M) -> np.ndarray:
    """Great-circle distance between ``(lon, lat)`` degree pairs.

    Provided for users whose raw data is in geographic coordinates; the
    analytic tools themselves operate on planar coordinates (project first).
    Broadcasts like NumPy: both arguments are ``(n, 2)`` arrays (or a single
    pair) of degrees, and the result is the elementwise distance in the
    units of ``radius`` (metres by default).
    """
    radius = check_positive(radius, "radius")
    a = np.radians(np.asarray(lonlat_a, dtype=np.float64).reshape(-1, 2))
    b = np.radians(np.asarray(lonlat_b, dtype=np.float64).reshape(-1, 2))
    dlon = b[:, 0] - a[:, 0]
    dlat = b[:, 1] - a[:, 1]
    h = np.sin(dlat / 2.0) ** 2 + np.cos(a[:, 1]) * np.cos(b[:, 1]) * np.sin(dlon / 2.0) ** 2
    h = np.clip(h, 0.0, 1.0)
    out = 2.0 * radius * np.arcsin(np.sqrt(h))
    return out if out.size > 1 else float(out[0])
