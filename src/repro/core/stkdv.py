"""Spatiotemporal kernel density visualisation (STKDV, paper §2.2, Figure 4).

The spatiotemporal density at pixel ``q`` and time ``t`` is

    F(q, t) = sum_i  K_s(dist(q, p_i); b_s) * K_t(|t - t_i|; b_t),

a separable product of a spatial and a temporal kernel — the standard
formulation of [41, 57, 69] the paper builds on.  The output is a stack of
density frames, one per requested timestamp; Figure 4's two panels are two
frames of such a stack.

Backends:

* ``naive`` — every frame weights *all* n points by the temporal kernel
  and evaluates the O(XYn) sum: O(T * XY * n) total;
* ``window`` — the sliding-window sharing of SWS [27]: points are sorted
  by time once, each frame touches only the points inside its temporal
  support via binary search, and the spatial pass uses the exact cutoff
  scatter: O(T * (XY + n_window * patch));
* ``shared`` — incremental temporal sharing (the SWS [27] line of work):
  frames are processed in time order and the density surface is *updated*
  instead of rebuilt.  For a polynomial temporal kernel,
  ``K_t(|t - t_i|; b_t) = sum_m alpha_m(t) * t_i^m`` inside the support
  (see :func:`repro.core.kernels.temporal_expansion_matrix`), so the
  backend maintains a bank of moment grids
  ``M_m(q) = sum_{i in window} t_i^m * patch_i(q)`` via cutoff-scatter
  add/remove of only the events entering/leaving the temporal support
  between consecutive frames, and emits each frame as the per-pixel
  polynomial combination ``sum_m alpha_m(t) * M_m(q)``.  Each event is
  scattered at most once per monotone pass — O(n * patch * M + T * XY * M)
  total — instead of once per overlapping frame.  Requires a polynomial
  temporal kernel (uniform, epanechnikov, quartic); other temporal
  kernels fall back to ``window``.  Sharing is inherently serial across
  frames, so ``workers``/``backend`` are ignored and the result is
  bit-identical to ``workers=1`` by construction (the PR 2 determinism
  contract holds trivially).

All are exact (up to the 1e-12 truncation of infinite kernels, and
float rounding in the ``shared`` moment combination, well below 1e-8
relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .. import obs
from .._validation import as_points, as_timestamps, check_positive
from ..errors import ParameterError
from ..geometry import BoundingBox
from ..parallel import parallel_map
from ..raster import DensityGrid
from .kdv.base import KDVProblem
from .kdv.gridcut import kde_gridcut
from .kdv.naive import _gather
from .kdv.streaming import MultiSurfaceAccumulator
from .kdv.sweep import kde_sweep
from .kernels import Kernel, get_kernel, temporal_expansion_matrix
from .scatter import resolve_dtype

__all__ = ["STKDVResult", "stkdv", "STKDV_METHODS"]

STKDV_METHODS = ("auto", "naive", "window", "shared")

#: The shared backend re-references its moment grids whenever the frame
#: time drifts further than this many temporal cutoffs from the current
#: origin; it bounds the magnitude of the accumulated time powers (and
#: hence the cancellation in the moment combination) by a constant.
_RECENTER_CUTOFFS = 4.0


@dataclass(frozen=True)
class STKDVResult:
    """A stack of density frames over a common window and pixel lattice.

    ``diagnostics`` is the optional :class:`repro.obs.Diagnostics` record
    of the producing call (populated when tracing is enabled); it never
    participates in numeric behaviour.
    """

    bbox: BoundingBox
    times: np.ndarray
    values: np.ndarray  # (nx, ny, T)
    diagnostics: obs.Diagnostics | None = None

    @property
    def n_frames(self) -> int:
        return int(self.values.shape[2])

    def frame(self, j: int) -> DensityGrid:
        """Frame ``j`` as a standalone density grid (a defensive copy).

        The copy means mutating the returned grid's ``values`` can never
        corrupt the stack (or vice versa), matching
        :meth:`repro.stream.StreamingKDV.snapshot`.
        """
        return DensityGrid(self.bbox, self.values[:, :, j].copy())

    def frame_at(self, t: float) -> DensityGrid:
        """The frame whose timestamp is closest to ``t``."""
        j = int(np.argmin(np.abs(self.times - t)))
        return self.frame(j)

    def hotspot_track(self) -> np.ndarray:
        """(T, 2) coordinates of the densest pixel in each frame.

        The movement of this track across frames is Figure 4's message:
        outbreak regions change with time.
        """
        return np.array([self.frame(j).argmax_coords() for j in range(self.n_frames)])

    def total_mass(self) -> np.ndarray:
        """Per-frame sum of the raw kernel mass (case-load proxy)."""
        return self.values.sum(axis=(0, 1))


def _temporal_cutoff(kernel: Kernel, bandwidth: float) -> float:
    radius = kernel.support_radius(bandwidth)
    if np.isfinite(radius):
        return float(radius)
    return float(kernel.effective_radius(bandwidth))


def _naive_frame_task(task):
    """One naive STKDV frame (module-level for process-backend pickling)."""
    t, pts, ts_vals, bbox, size, b_s, b_t, k_s, k_t = task
    with obs.span("stkdv.frame"):
        obs.count("stkdv.frames")
        obs.count("stkdv.points_scattered", pts.shape[0])
        w = k_t.evaluate(np.abs(ts_vals - t), b_t)
        problem = KDVProblem(pts, bbox, size, b_s, k_s, weights=w)
        # Already inside a worker: one direct gather, no nested pool.
        return problem.make_grid(_gather(problem, *problem.pixel_centers())).values


def _window_frame_task(task):
    """One sliding-window STKDV frame over its temporal support."""
    (t, sorted_pts, sorted_ts, bbox, size, b_s, b_t, k_s, k_t, cutoff,
     spatial_method, dtype) = task
    nx, ny = size
    with obs.span("stkdv.frame"):
        obs.count("stkdv.frames")
        lo = np.searchsorted(sorted_ts, t - cutoff, side="left")
        hi = np.searchsorted(sorted_ts, t + cutoff, side="right")
        if lo >= hi:
            return np.zeros((nx, ny), dtype=dtype)
        w = k_t.evaluate(np.abs(sorted_ts[lo:hi] - t), b_t)
        active = w > 0.0
        if not active.any():
            return np.zeros((nx, ny), dtype=dtype)
        obs.count("stkdv.points_scattered", int(active.sum()))
        problem = KDVProblem(
            sorted_pts[lo:hi][active], bbox, size, b_s, k_s, weights=w[active]
        )
        if spatial_method == "sweep":
            return kde_sweep(problem).values
        return kde_gridcut(problem, dtype=dtype).values


def _recenter_matrix(n_moments: int, delta: float) -> np.ndarray:
    """Moment re-referencing map for the origin shift ``t' = t - delta``.

    ``sum_i (t_i - delta)^m patch_i = sum_j C(m, j) (-delta)^(m-j) M_j``,
    so new moments are a lower-triangular recombination of the old ones.
    """
    matrix = np.zeros((n_moments, n_moments), dtype=np.float64)
    for m in range(n_moments):
        for j in range(m + 1):
            matrix[m, j] = comb(m, j) * (-delta) ** (m - j)
    return matrix


def _shared_frames(
    frames: np.ndarray,
    sorted_pts: np.ndarray,
    sorted_ts: np.ndarray,
    bbox: BoundingBox,
    size: tuple[int, int],
    b_s: float,
    k_s: Kernel,
    cutoff: float,
    expansion: np.ndarray,
    dtype=np.float64,
) -> list[np.ndarray]:
    """Temporal-sharing STKDV: incremental moment grids over sorted frames.

    Serial across frames by construction — each frame's window is derived
    from the previous one's, so the output cannot depend on worker count.
    """
    nx, ny = size
    n_moments = expansion.shape[0]
    acc = MultiSurfaceAccumulator(
        bbox, size, b_s, kernel=k_s, n_surfaces=n_moments, dtype=dtype
    )
    order = np.argsort(frames, kind="stable")
    out: list[np.ndarray | None] = [None] * frames.shape[0]
    lo = hi = 0
    entering_n = leaving_n = recenterings = resets = 0
    # Temporal origin of the moment bank; drift-triggered re-referencing
    # keeps |t - origin| (and every accumulated time power) O(cutoff).
    origin = float(frames[order[0]])
    for j in order:
        t = float(frames[j])
        new_lo = int(np.searchsorted(sorted_ts, t - cutoff, side="left"))
        new_hi = int(np.searchsorted(sorted_ts, t + cutoff, side="right"))
        if new_lo >= new_hi:
            # Empty window: drop any residue and re-anchor the origin.
            acc.reset()
            resets += 1
            origin = t
            lo, hi = new_lo, new_hi
            out[j] = np.zeros((nx, ny), dtype=dtype)
            continue
        if acc.n_points and abs(t - origin) > _RECENTER_CUTOFFS * cutoff:
            acc.recombine(_recenter_matrix(n_moments, t - origin))
            recenterings += 1
            origin = t
        elif not acc.n_points:
            origin = t
        # Events leaving the support: in the old window but left of the new.
        drop_hi = min(new_lo, hi)
        if lo < drop_hi:
            leaving_n += drop_hi - lo
            leaving = sorted_ts[lo:drop_hi] - origin
            acc.remove_weighted(
                sorted_pts[lo:drop_hi],
                leaving[:, None] ** np.arange(n_moments)[None, :],
            )
        # Events entering the support: in the new window but right of the old.
        add_lo = max(new_lo, hi)
        if add_lo < new_hi:
            entering_n += new_hi - add_lo
            entering = sorted_ts[add_lo:new_hi] - origin
            acc.add_weighted(
                sorted_pts[add_lo:new_hi],
                entering[:, None] ** np.arange(n_moments)[None, :],
            )
        lo, hi = new_lo, new_hi
        tau = t - origin
        alpha = expansion @ (tau ** np.arange(n_moments))
        # Cancellation in the moment combination can leave tiny negative
        # residue where the true density is ~0; clip it like the streaming
        # accumulator does.
        # combine() runs in float64 (the factors are f64); fold back to
        # the bank's dtype — a no-op in the default float64 mode.
        out[j] = np.maximum(acc.combine(alpha), 0.0).astype(dtype, copy=False)
    obs.count("stkdv.frames", frames.shape[0])
    obs.count("stkdv.events_entering", entering_n)
    obs.count("stkdv.events_leaving", leaving_n)
    obs.count("stkdv.points_scattered", entering_n)
    obs.count("stkdv.recenterings", recenterings)
    obs.count("stkdv.window_resets", resets)
    return out


def stkdv(
    points,
    times,
    bbox: BoundingBox,
    size: tuple[int, int],
    frame_times,
    bandwidth_space: float,
    bandwidth_time: float,
    kernel_space: str | Kernel = "quartic",
    kernel_time: str | Kernel = "epanechnikov",
    method: str = "auto",
    spatial_method: str = "auto",
    dtype=None,
    workers: int | None = None,
    backend: str | None = None,
) -> STKDVResult:
    """Spatiotemporal KDV over the given frame timestamps.

    Parameters
    ----------
    points, times:
        Event locations and timestamps.
    bbox, size:
        Window and per-frame pixel resolution (X x Y).
    frame_times:
        Timestamps at which density frames are evaluated (any order;
        must be finite).
    bandwidth_space, bandwidth_time:
        The spatial ``b_s`` and temporal ``b_t`` bandwidths.
    kernel_space, kernel_time:
        Spatial and temporal kernels (any library kernel; the temporal one
        is applied to ``|t - t_i|``).
    method:
        ``naive``, ``window``, ``shared``, or ``auto`` (window).
        ``shared`` requires a temporal kernel that is polynomial in the
        squared distance (uniform, epanechnikov, quartic) and falls back
        to ``window`` otherwise.
    spatial_method:
        Spatial pass of the ``window`` backend: ``"grid"`` (cutoff
        scatter), ``"sweep"`` (sweep line — polynomial spatial kernels
        only), or ``"auto"`` (sweep when the kernel supports it and the
        bandwidth spans at least two pixels; grid otherwise).  The
        ``shared`` backend always scatters (its moment grids are
        incremental cutoff-scatter surfaces), so this argument only
        affects ``window`` (including the ``shared`` fallback).
    dtype:
        Accuracy mode of the scatter core (``"float64"`` default,
        bit-identical; ``"float32"`` table-driven under the bounded-error
        contract in ``docs/PERFORMANCE.md``).  ``float32`` requires a
        scatter path: it is rejected for ``method="naive"`` and for
        ``spatial_method="sweep"``, and forces ``spatial_method="auto"``
        to resolve to ``"grid"``.
    workers, backend:
        ``naive``/``window`` frame evaluation fans out over the shared
        executor (:mod:`repro.parallel`); each frame writes its own slice
        of the stack, so the result is identical at every worker count.
        The ``shared`` backend is inherently serial across frames and
        ignores both arguments (trivially worker-invariant).
    """
    pts = as_points(points)
    ts_vals = as_timestamps(times, pts.shape[0])
    frames = np.asarray(frame_times, dtype=np.float64).ravel()
    if frames.size == 0:
        raise ParameterError("frame_times must contain at least one timestamp")
    if not np.all(np.isfinite(frames)):
        raise ParameterError("frame_times contains non-finite entries")
    b_s = check_positive(bandwidth_space, "bandwidth_space")
    b_t = check_positive(bandwidth_time, "bandwidth_time")
    k_s = get_kernel(kernel_space)
    k_t = get_kernel(kernel_time)
    nx, ny = int(size[0]), int(size[1])

    if method == "auto":
        method = "window"
    if method not in ("naive", "window", "shared"):
        raise ParameterError(
            f"unknown STKDV method {method!r}; available: {', '.join(STKDV_METHODS)}"
        )
    expansion = None
    if method == "shared":
        expansion = temporal_expansion_matrix(k_t, b_t)
        if expansion is None:
            # Non-polynomial temporal kernel: no finite moment bank exists;
            # fall back to per-frame windowing (documented contract).
            method = "window"
    resolved_dtype = resolve_dtype(dtype)
    if resolved_dtype == np.dtype(np.float32):
        if method == "naive":
            raise ParameterError(
                "dtype='float32' requires a scatter path; the naive STKDV "
                "method has none (use method='window' or 'shared')"
            )
        if spatial_method == "sweep":
            raise ParameterError(
                "dtype='float32' requires the scatter spatial pass; "
                "spatial_method='sweep' is float64-only (use 'grid')"
            )
        if spatial_method == "auto":
            spatial_method = "grid"
    if spatial_method == "auto":
        # A speed rule, not an accuracy one: below two pixels a point
        # touches a few pixels, so its scatter beats a sweep that still
        # pays for every row's window cells.
        dx, dy = bbox.pixel_size(nx, ny)
        use_sweep = (
            k_s.poly_coeffs(b_s) is not None and b_s >= 2.0 * max(dx, dy)
        )
        spatial_method = "sweep" if use_sweep else "grid"
    if spatial_method not in ("grid", "sweep"):
        raise ParameterError(
            f"spatial_method must be 'grid' or 'sweep', got {spatial_method!r}"
        )
    with obs.task("stkdv") as trace:
        obs.count("stkdv.points", pts.shape[0])
        obs.count(f"stkdv.method.{method}")
        if method == "naive":
            tasks = [
                (float(t), pts, ts_vals, bbox, (nx, ny), b_s, b_t, k_s, k_t)
                for t in frames
            ]
            frame_values = parallel_map(
                _naive_frame_task, tasks, workers=workers, backend=backend
            )
        elif method == "shared":
            cutoff = _temporal_cutoff(k_t, b_t)
            order = np.argsort(ts_vals, kind="stable")
            frame_values = _shared_frames(
                frames, pts[order], ts_vals[order], bbox, (nx, ny),
                b_s, k_s, cutoff, expansion, dtype=resolved_dtype,
            )
        else:
            cutoff = _temporal_cutoff(k_t, b_t)
            order = np.argsort(ts_vals, kind="stable")
            sorted_pts = pts[order]
            sorted_ts = ts_vals[order]
            tasks = [
                (float(t), sorted_pts, sorted_ts, bbox, (nx, ny), b_s, b_t, k_s,
                 k_t, cutoff, spatial_method, resolved_dtype)
                for t in frames
            ]
            frame_values = parallel_map(
                _window_frame_task, tasks, workers=workers, backend=backend
            )

        values = np.stack(frame_values, axis=2)
    return STKDVResult(bbox=bbox, times=frames, values=values,
                       diagnostics=trace.diagnostics)
