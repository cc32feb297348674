"""Spatiotemporal K-function (paper Equation 8, Figure 6).

Counts pairs that are simultaneously within a spatial threshold ``s`` and
a temporal threshold ``t``, over an ``M x T`` grid of thresholds; the
result is the surface of Figure 6, with lower/upper envelope surfaces from
simulated space-time CSR (Equations 9-10).

The multi-threshold grid is computed by **joint histogramming**: each
pair's ``(distance, |dt|)`` lands in a 2-D bin, and a double cumulative sum
turns the histogram into threshold counts — every (s, t) cell for the
price of one pass over the pairs.  The ``grid`` backend restricts the pair
enumeration to spatial candidates within ``s_max`` via the grid index's
batched kernel, one block of queries at a time (``s_max = 0`` included).
Both backends fan their row/point blocks out over the shared executor
(``workers``/``backend``, see :mod:`repro.parallel`); the reduction is an
integer sum over fixed-size blocks, so the counts are bit-identical for
every worker count and backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import obs
from ..._validation import as_points, as_timestamps, check_thresholds
from ...errors import ParameterError
from ...geometry import BoundingBox
from ...geometry.distance import squared_norm
from ...index import QUERY_BLOCK, GridIndex
from ...parallel import parallel_map, spawn_rngs
from .result import STKResult

__all__ = [
    "STKResult",
    "st_k_function",
    "STKFunctionPlot",
    "st_k_function_plot",
    "ST_K_METHODS",
]

ST_K_METHODS = ("auto", "naive", "grid")


def _hist_counts(
    d2: np.ndarray,
    dt: np.ndarray,
    s_ts: np.ndarray,
    t_ts: np.ndarray,
) -> np.ndarray:
    """Pair counts per (s, t) threshold cell from raw pair measures.

    ``d2`` are squared spatial distances.  ``searchsorted`` on the sorted
    thresholds maps each pair to the first threshold that admits it; the
    double cumulative sum then accumulates "first admitted at <= (alpha,
    beta)".
    """
    hist = np.zeros((s_ts.shape[0] + 1, t_ts.shape[0] + 1), dtype=np.int64)
    # First s index with d2 <= s * s: the library's within test.
    si = np.searchsorted(s_ts * s_ts, d2, side="left")
    ti = np.searchsorted(t_ts, dt, side="left")
    np.add.at(hist, (si, ti), 1)
    grid = hist[:-1, :-1].cumsum(axis=0).cumsum(axis=1)
    return grid


def _st_naive_block_task(task):
    """Counts from one row block of the naive O(n^2) scan (module-level)."""
    pts, ts_vals, s_ts, t_ts, start, stop = task
    block = pts[start:stop]
    # Difference form, not the |a|^2 + |b|^2 - 2ab expansion: the latter
    # loses ulps, so a pair at distance exactly equal to a threshold can
    # land in a different cell than under the grid backend's (exact for
    # representable coordinates) difference form.
    diff = block[:, None, :] - pts[None, :, :]
    d2 = squared_norm(diff[..., 0], diff[..., 1]).ravel()
    dt = np.abs(ts_vals[start:stop, None] - ts_vals[None, :]).ravel()
    obs.count("stk.pairs_binned", d2.shape[0])
    return _hist_counts(d2, dt, s_ts, t_ts)


def _st_grid_block_task(task):
    """Counts from one query block of the grid-index scan (module-level)."""
    index, pts, ts_vals, s_ts, t_ts, smax, tmax, start, stop = task
    counts = np.zeros((s_ts.shape[0], t_ts.shape[0]), dtype=np.int64)
    pairs = 0
    for qi, ids, d2 in index.neighbors(pts[start:stop], smax):
        dt = np.abs(ts_vals[ids] - ts_vals[start + qi])
        near = dt <= tmax
        if obs.is_active():
            pairs += int(near.sum())
        counts += _hist_counts(d2[near], dt[near], s_ts, t_ts)
    if pairs:
        obs.count("stk.pairs_binned", pairs)
    return counts


def _st_counts(
    pts: np.ndarray,
    ts_vals: np.ndarray,
    s_ts: np.ndarray,
    t_ts: np.ndarray,
    method: str,
    chunk: int,
    workers: int | None,
    backend: str | None,
) -> np.ndarray:
    """Raw ordered-pair counts (self-pairs included) for one backend."""
    n = pts.shape[0]
    if method == "naive":
        chunk = int(chunk)
        if chunk < 1:
            raise ParameterError(f"chunk must be >= 1, got {chunk}")
        tasks = [
            (pts, ts_vals, s_ts, t_ts, start, min(start + chunk, n))
            for start in range(0, n, chunk)
        ]
        with obs.span("stk.counts.naive"):
            partials = parallel_map(
                _st_naive_block_task, tasks, workers=workers, backend=backend
            )
    else:  # "grid" — validated by the caller
        smax = float(s_ts.max())
        tmax = float(t_ts.max())
        index = GridIndex.for_radius(pts, smax)
        # Fixed query blocks (never derived from ``workers``) keep the
        # partition, and hence the merged trace, worker-invariant; the
        # integer count reduction is order-invariant anyway.
        tasks = [
            (index, pts, ts_vals, s_ts, t_ts, smax, tmax, start,
             min(start + QUERY_BLOCK, n))
            for start in range(0, n, QUERY_BLOCK)
        ]
        with obs.span("stk.counts.grid"):
            partials = parallel_map(
                _st_grid_block_task, tasks, workers=workers, backend=backend
            )
    counts = np.zeros((s_ts.shape[0], t_ts.shape[0]), dtype=np.int64)
    for part in partials:
        counts += part
    return counts


def st_k_function(
    points,
    times,
    s_thresholds,
    t_thresholds,
    method: str = "auto",
    include_self: bool = False,
    chunk: int = 1024,
    workers: int | None = None,
    backend: str | None = None,
) -> STKResult:
    """Raw spatiotemporal K counts ``K(s_alpha, t_beta)`` (Equation 8).

    Returns an ``(M, T)`` :class:`STKResult` — an ``np.ndarray`` subclass
    of int64 ordered-pair counts that additionally carries
    ``s_thresholds`` / ``t_thresholds`` / ``diagnostics``.  Self-pairs are
    excluded unless ``include_self=True`` (Equation 8 literal form).

    ``workers``/``backend`` fan the row/point blocks out over the shared
    executor (``None`` uses the :mod:`repro.parallel` defaults); counts
    are bit-identical for every combination.
    """
    pts = as_points(points)
    ts_vals = as_timestamps(times, pts.shape[0])
    s_ts = check_thresholds(s_thresholds, name="s_thresholds")
    t_ts = check_thresholds(t_thresholds, name="t_thresholds")
    n = pts.shape[0]

    if method == "auto":
        method = "grid"
    if method not in ("naive", "grid"):
        raise ParameterError(
            f"unknown ST K method {method!r}; available: {', '.join(ST_K_METHODS)}"
        )

    with obs.task("stk") as trace:
        obs.count("stk.points", n)
        obs.count(f"stk.method.{method}")
        counts = _st_counts(
            pts, ts_vals, s_ts, t_ts, method, chunk, workers, backend
        )
        if not include_self:
            counts = counts - n  # the diagonal satisfies every (s, t) cell
    return STKResult(
        counts.astype(np.int64),
        s_thresholds=s_ts,
        t_thresholds=t_ts,
        diagnostics=trace.diagnostics,
    )


@dataclass(frozen=True)
class STKFunctionPlot:
    """Observed ST-K surface with envelope surfaces (Figure 6)."""

    s_thresholds: np.ndarray
    t_thresholds: np.ndarray
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_simulations: int
    diagnostics: "obs.Diagnostics | None" = None

    def clustered_mask(self) -> np.ndarray:
        """(M, T) mask of threshold cells with significant ST clustering."""
        return self.observed > self.upper

    def dispersed_mask(self) -> np.ndarray:
        return self.observed < self.lower

    def fraction_clustered(self) -> float:
        """Share of the (s, t) grid in the clustered regime."""
        return float(self.clustered_mask().mean())


def _st_csr_k_task(task):
    """One space-time null simulation of the ST-K surface (module-level)."""
    rng, null, pts, ts_vals, bbox, t_lo, t_hi, s_ts, t_ts, method, n = task
    with obs.span("simulation"):
        obs.count("stk.simulations")
        if null == "csr":
            sim_pts = bbox.sample_uniform(n, rng)
            sim_times = rng.uniform(t_lo, t_hi, size=n)
        else:
            sim_pts = pts
            sim_times = rng.permutation(ts_vals)
        return st_k_function(sim_pts, sim_times, s_ts, t_ts, method=method).astype(
            np.float64
        )


def st_k_function_plot(
    points,
    times,
    bbox: BoundingBox,
    s_thresholds,
    t_thresholds,
    n_simulations: int = 39,
    method: str = "auto",
    null: str = "csr",
    seed=None,
    workers: int | None = None,
    backend: str | None = None,
) -> STKFunctionPlot:
    """Spatiotemporal K-function plot (Equations 8-10, Figure 6).

    ``null`` selects the simulation model:

    * ``"csr"`` — uniform space x uniform time over the observed ranges
      (the paper's "randomly generated datasets");
    * ``"permute"`` — keep the observed locations, permute timestamps:
      tests *space-time interaction* specifically, the classic Knox-style
      null used in epidemiology [55].

    Simulations fan out over the shared executor (``workers``/
    ``backend``, see :mod:`repro.parallel`) with one RNG stream per
    simulation, so the envelope surfaces are bit-identical for every
    worker count.
    """
    pts = as_points(points)
    ts_vals = as_timestamps(times, pts.shape[0])
    s_ts = check_thresholds(s_thresholds, name="s_thresholds")
    t_ts = check_thresholds(t_thresholds, name="t_thresholds")
    n_simulations = int(n_simulations)
    if n_simulations < 1:
        raise ParameterError(f"n_simulations must be >= 1, got {n_simulations}")
    if null not in ("csr", "permute"):
        raise ParameterError(f"null must be 'csr' or 'permute', got {null!r}")

    with obs.task("stk.plot") as trace:
        observed = st_k_function(
            pts, ts_vals, s_ts, t_ts, method=method,
            workers=workers, backend=backend,
        )
        n = pts.shape[0]
        t_lo, t_hi = float(ts_vals.min()), float(ts_vals.max())

        tasks = [
            (rng, null, pts, ts_vals, bbox, t_lo, t_hi, s_ts, t_ts, method, n)
            for rng in spawn_rngs(seed, n_simulations)
        ]
        sims = np.stack(
            parallel_map(_st_csr_k_task, tasks, workers=workers, backend=backend)
        )

    return STKFunctionPlot(
        s_thresholds=s_ts,
        t_thresholds=t_ts,
        observed=observed.astype(np.float64),
        lower=sims.min(axis=0),
        upper=sims.max(axis=0),
        n_simulations=n_simulations,
        diagnostics=trace.diagnostics,
    )
