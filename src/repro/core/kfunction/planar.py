"""Planar K-function (paper Definition 2) and Ripley's normalisation.

Two backends mirror the paper's §2.3 taxonomy:

* ``naive`` — the O(n^2) double sum the paper calls out as unscalable,
  evaluated in memory-bounded chunks (the exactness reference, and the
  only backend that supports torus edge-correction, which needs raw
  displacements);
* ``grid`` — the range-query-based method: one batched cell-block pass
  over every point's candidate neighbours at the largest threshold,
  counted at all D thresholds in that one pass, without listing a pair.

Every grid count in the planar family runs over the grid that
:meth:`GridIndex.for_radius <repro.index.GridIndex.for_radius>` builds at
the largest threshold: :func:`repro.index.threshold_totals` for the
global and cross K, which sum over their queries, and
:func:`repro.index.threshold_counts` for the per-point border-corrected
and local K.  Both apply the same ``d2 <= t * t`` test, and the grid's
one cell-size floor means a zero threshold needs no special case
anywhere.

By default self-pairs are excluded (the spatstat convention).  The paper's
Equation 2 literally sums over *all* ordered pairs including ``i = j``;
pass ``include_self=True`` to match it exactly — the difference is a
constant ``+n`` per threshold and does not change any conclusion.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import as_points, check_thresholds
from ...errors import ParameterError
from ...geometry import BoundingBox
from ...index import GridIndex, threshold_counts, threshold_totals

__all__ = [
    "k_function",
    "ripley_k",
    "ripley_normalize",
    "border_ripley_k",
    "l_function",
    "K_METHODS",
]

K_METHODS = ("auto", "naive", "grid")


def _check_k_method(method: str) -> None:
    if method not in K_METHODS:
        raise ParameterError(
            f"unknown K-function method {method!r}; available: {', '.join(K_METHODS)}"
        )


def _k_naive(
    pts: np.ndarray,
    thresholds: np.ndarray,
    bbox: BoundingBox | None,
    torus: bool,
    chunk: int,
) -> np.ndarray:
    n = pts.shape[0]
    t2 = thresholds * thresholds
    counts = np.zeros(thresholds.shape[0], dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dx = np.abs(pts[start:stop, 0][:, None] - pts[None, :, 0])
        dy = np.abs(pts[start:stop, 1][:, None] - pts[None, :, 1])
        if torus:
            dx, dy = bbox.torus_displacement(dx, dy)
        d2 = dx * dx + dy * dy
        # Self-pairs land in the first bin; they are subtracted by the caller.
        flat = np.sort(d2, axis=None)
        counts += np.searchsorted(flat, t2, side="right")
    return counts


def k_function(
    points,
    thresholds,
    method: str = "auto",
    bbox: BoundingBox | None = None,
    edge_correction: str = "none",
    include_self: bool = False,
    chunk: int = 1024,
) -> np.ndarray:
    """Raw K-function counts ``K_P(s_d)`` for every threshold.

    Parameters
    ----------
    points:
        ``(n, 2)`` event locations.
    thresholds:
        Sorted non-negative distance thresholds ``s_1 <= ... <= s_D``.
    method:
        ``naive`` (O(n^2)), ``grid``, or ``auto`` (grid).
    bbox:
        Study window; required for ``edge_correction="torus"``.
    edge_correction:
        ``"none"`` or ``"torus"`` (naive backend only): distances are
        measured on the torus induced by the window, removing the downward
        boundary bias of raw counts.
    include_self:
        Count the ``i = j`` pairs (paper Equation 2 literal form).
    chunk:
        Row-chunk size of the naive backend.

    Returns
    -------
    ``(D,)`` int64 array of pair counts (ordered pairs, i.e. each
    unordered pair contributes 2).
    """
    pts = as_points(points)
    ts = check_thresholds(thresholds)
    n = pts.shape[0]

    if edge_correction not in ("none", "torus"):
        raise ParameterError(
            f"edge_correction must be 'none' or 'torus', got {edge_correction!r}"
        )
    torus = edge_correction == "torus"
    if torus and bbox is None:
        raise ParameterError("torus edge correction requires bbox")
    _check_k_method(method)
    if method == "auto":
        method = "grid"
    if torus and method != "naive":
        raise ParameterError(
            "torus edge correction is only supported by method='naive'"
        )

    obs.count("kfunction.points", n)
    obs.count(f"kfunction.method.{method}")

    if method == "naive":
        counts = _k_naive(pts, ts, bbox, torus, int(chunk))
    else:
        grid = GridIndex.for_radius(pts, ts[-1])
        counts = threshold_totals(grid, pts, ts)

    # Ordered pairs (self-pairs included) admitted at the largest threshold.
    if ts.shape[0]:
        obs.count("kfunction.pairs_within_smax", int(counts[-1]))

    if not include_self:
        counts = counts - n  # every point matches itself at distance 0
    return counts.astype(np.int64)


def ripley_normalize(counts, n: int, bbox: BoundingBox) -> np.ndarray:
    """Turn ordered pair counts into Ripley's K: ``|A| counts / (n (n-1))``.

    Shared by the batch :func:`ripley_k` and the streaming K-function so
    maintained pair counts and freshly computed ones pass through the exact
    same arithmetic (the streamed-equals-batch contract reduces to the
    integer pair counts being equal).
    """
    if n < 2:
        raise ParameterError("Ripley's K needs at least two points")
    counts = np.asarray(counts)
    return bbox.area * counts.astype(np.float64) / (n * (n - 1))


def ripley_k(
    points,
    thresholds,
    bbox: BoundingBox,
    method: str = "auto",
    edge_correction: str = "none",
) -> np.ndarray:
    """Ripley's K estimate ``|A| / (n (n - 1)) * pair_counts``.

    Under CSR, ``K(s) ~ pi s^2``, which is what :func:`l_function`
    linearises.  Self-pairs are always excluded here.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ParameterError("ripley_k needs at least two points")
    counts = k_function(
        pts, thresholds, method=method, bbox=bbox, edge_correction=edge_correction
    )
    return ripley_normalize(counts, n, bbox)


def border_ripley_k(points, thresholds, bbox: BoundingBox) -> np.ndarray:
    """Border-corrected (reduced-sample) Ripley K.

    At threshold ``s`` only the points at least ``s`` away from the window
    boundary act as *query* points — their ``s``-discs lie fully inside the
    window, so their neighbour counts are unbiased:

        K_b(s) = (|A| / n) * mean_{i interior(s)} count_i(s).

    Simpler than torus wrapping (and valid for point patterns that are not
    plausibly periodic), at the price of discarding boundary queries;
    thresholds for which no interior point remains yield ``nan``.
    """
    pts = as_points(points)
    ts = check_thresholds(thresholds)
    n = pts.shape[0]
    if n < 2:
        raise ParameterError("border_ripley_k needs at least two points")
    grid = GridIndex.for_radius(pts, ts[-1])
    table = threshold_counts(grid, pts, ts) - 1  # drop self

    boundary_dist = np.minimum.reduce(
        [
            pts[:, 0] - bbox.xmin,
            bbox.xmax - pts[:, 0],
            pts[:, 1] - bbox.ymin,
            bbox.ymax - pts[:, 1],
        ]
    )
    out = np.empty(ts.shape[0], dtype=np.float64)
    for d, s in enumerate(ts):
        interior = boundary_dist >= s
        m = int(interior.sum())
        if m == 0:
            out[d] = np.nan
            continue
        out[d] = bbox.area / n * table[interior, d].mean()
    return out


def l_function(
    points,
    thresholds,
    bbox: BoundingBox,
    method: str = "auto",
    edge_correction: str = "none",
) -> np.ndarray:
    """Besag's L-function ``L(s) = sqrt(K(s) / pi)``.

    Under CSR, ``L(s) ~ s``; plotting ``L(s) - s`` centres the null at zero.
    """
    k = ripley_k(points, thresholds, bbox, method=method, edge_correction=edge_correction)
    return np.sqrt(k / np.pi)
