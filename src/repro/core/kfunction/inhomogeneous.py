"""Inhomogeneous K-function: clustering beyond first-order intensity.

The plain K-function confounds two effects: *interaction* between points
and *spatially varying intensity* (more points downtown does not mean
points attract each other).  Baddeley-Møller-Waagepetersen's
inhomogeneous K separates them by weighting each pair by the inverse
intensity at both ends:

    K_inhom(s) = (1 / |A|) * sum_{i != j} I(d_ij <= s) / (lambda(p_i) lambda(p_j)).

Under an inhomogeneous Poisson process (no interaction) it still satisfies
``K_inhom(s) ~ pi s^2`` — so a dataset that looks wildly clustered under
plain Ripley K but matches ``pi s^2`` under K_inhom has *trend, not
contagion*.  The intensity is estimated with the library's own KDV
(leave-one-out corrected) unless the caller supplies it.
"""

from __future__ import annotations

import numpy as np

from ..._validation import as_points, check_positive, check_thresholds
from ...errors import DataError, ParameterError
from ...geometry import BoundingBox
from ...index import GridIndex
from ..kernels import get_kernel

__all__ = ["intensity_at_points", "inhomogeneous_k"]


def intensity_at_points(
    points,
    bbox: BoundingBox,
    bandwidth: float,
    kernel: str = "quartic",
) -> np.ndarray:
    """Leave-one-out kernel intensity estimate at the data points.

    ``lambda(p_i) = sum_{j != i} K(d_ij; b) / integral(K)`` — the
    normalised KDE evaluated at each point with itself removed (keeping
    the self term biases K_inhom towards CSR).
    """
    pts = as_points(points)
    bandwidth = check_positive(bandwidth, "bandwidth")
    kern = get_kernel(kernel)
    radius = kern.support_radius(bandwidth)
    if not np.isfinite(radius):
        radius = kern.effective_radius(bandwidth)
    index = GridIndex.for_radius(pts, radius, bbox=bbox)
    norm = kern.integral(bandwidth)
    self_term = float(kern.evaluate(0.0, bandwidth))  # distance zero
    out = np.empty(pts.shape[0], dtype=np.float64)
    for start, bounds, _, d2 in index.neighbor_blocks(pts, radius):
        k = kern.evaluate(np.sqrt(d2), bandwidth)
        for i, (s0, s1) in enumerate(zip(bounds[:-1], bounds[1:]), start):
            total = float(k[s0:s1].sum()) - self_term
            out[i] = max(total, 0.0) / norm
    return out


def inhomogeneous_k(
    points,
    thresholds,
    bbox: BoundingBox,
    intensity=None,
    bandwidth: float | None = None,
    min_intensity_quantile: float = 0.05,
) -> np.ndarray:
    """The inhomogeneous K estimate at every threshold.

    Parameters
    ----------
    points, thresholds, bbox:
        As in :func:`~repro.core.kfunction.ripley_k`.
    intensity:
        Optional per-point intensities ``lambda(p_i)``; computed with
        :func:`intensity_at_points` when omitted (then ``bandwidth`` is
        required).
    bandwidth:
        Intensity-estimation bandwidth for the default estimator.
    min_intensity_quantile:
        Intensities are floored at this quantile of the estimates so a
        point in an empty region cannot blow up the statistic (spatstat
        applies the same kind of clamping).

    Returns
    -------
    ``(D,)`` float array; compare against ``pi s^2``.
    """
    pts = as_points(points)
    ts = check_thresholds(thresholds)
    n = pts.shape[0]
    if n < 2:
        raise ParameterError("inhomogeneous K needs at least two points")

    if intensity is None:
        if bandwidth is None:
            raise ParameterError(
                "provide either per-point intensity or a bandwidth to estimate it"
            )
        intensity = intensity_at_points(pts, bbox, bandwidth)
    else:
        intensity = np.asarray(intensity, dtype=np.float64).ravel()
        if intensity.shape[0] != n:
            raise DataError(f"intensity must have length {n}")
        if np.any(intensity < 0) or not np.all(np.isfinite(intensity)):
            raise DataError("intensity must be finite and non-negative")

    positive = intensity[intensity > 0]
    if positive.size == 0:
        raise DataError("all intensity estimates are zero")
    floor = float(np.quantile(positive, min_intensity_quantile))
    lam = np.maximum(intensity, floor)
    inv = 1.0 / lam

    rmax = float(ts.max())
    index = GridIndex.for_radius(pts, rmax)
    out = np.zeros(ts.shape[0], dtype=np.float64)
    for start, bounds, ids, d2 in index.neighbor_blocks(pts, rmax):
        for i, (s0, s1) in enumerate(zip(bounds[:-1], bounds[1:]), start):
            other = ids[s0:s1] != i
            idx, d2_i = ids[s0:s1][other], d2[s0:s1][other]
            if idx.size == 0:
                continue
            w = inv[i] * inv[idx]
            order = np.argsort(d2_i)
            w_cum = np.concatenate([[0.0], np.cumsum(w[order])])
            pos = np.searchsorted(d2_i[order], ts * ts, side="right")
            out += w_cum[pos]
    return out / bbox.area
