"""Streaming / incremental KDV: the signed-weight surface bank.

The interactive systems the paper describes (KDV-Explorer [28], the live
COVID hotspot maps [6, 8]) must refresh heatmaps as new events arrive and
old ones expire.  Recomputing from scratch per update wastes the work on
the unchanged points; a :class:`MultiSurfaceAccumulator` maintains ``S``
density surfaces under point insertions and deletions at the cost of one
kernel *patch* per changed point (the cutoff-scatter update, which is
exact), scattering each point's patch onto surface ``s`` scaled by a
per-point, per-surface weight.

It has two consumers: the temporal-sharing STKDV backend (``S`` moment
surfaces, re-referenced by :meth:`~MultiSurfaceAccumulator.recombine`),
and :class:`repro.stream.StreamingKDV`, the maintained single surface
(``S = 1``, unit weights) with a drift policy and a dirty-tile ledger.
Typical sliding-window use goes through the latter::

    kdv = StreamingKDV(bbox, (256, 192), bandwidth=2.0)
    engine = StreamEngine(StreamWindow(capacity=5000))
    engine.register("kdv", kdv)
    engine.push(new_points, new_times)   # expired events leave the window
    grid = kdv.snapshot()
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import as_points
from ...errors import DataError, ParameterError
from ...geometry import BoundingBox
from ...parallel import parallel_starmap
from ..kernels import Kernel
from ..scatter import PatchScatter

__all__ = ["MultiSurfaceAccumulator"]

#: Event-chunk size of :meth:`MultiSurfaceAccumulator.rescatter`.  A fixed
#: constant — never derived from the worker count — so the chunk
#: partition, the per-chunk scatters and the chunk-order summation are
#: identical for every ``workers``/``backend`` combination (the same
#: fixed-partition rule as ``repro.parallel``).
_RESCATTER_CHUNK = 4096

#: Empirical safety factor of :attr:`MultiSurfaceAccumulator.
#: drift_tolerance`.  Worst-case rounding analysis gives error
#: ``<= ops * eps * running_magnitude`` per pixel; measured drift over
#: thousands of add/remove cycles sits two to three orders of magnitude
#: below ``eps * K(0) * gross_weight``, so 64 leaves ample headroom while
#: keeping the bound tight enough to be a meaningful contract.
_DRIFT_SAFETY = 64.0


def _rescatter_chunk(
    scatterer: PatchScatter, pts: np.ndarray, w: np.ndarray, n_surfaces: int
) -> np.ndarray:
    """Scatter one fixed chunk onto a fresh zero bank (worker callable)."""
    bank = np.zeros((n_surfaces, scatterer.nx, scatterer.ny),
                    dtype=scatterer.dtype)
    scatterer.scatter(bank, pts, w)
    return bank


class MultiSurfaceAccumulator:
    """Weighted cutoff-scatter accumulation onto ``S`` parallel surfaces.

    Maintains ``S`` grids ``V_s(q) = sum_i w[i, s] * patch_i(q)`` over a
    fixed window/lattice/kernel/bandwidth, where ``patch_i`` is the exact
    spatial kernel patch of point ``i``.  Signed weights make removal the
    same operation as insertion (scatter with negated weights), which is
    what the STKDV temporal-sharing backend uses to slide its moment
    grids along the time axis.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        size: tuple[int, int],
        bandwidth: float,
        kernel: str | Kernel = "quartic",
        n_surfaces: int = 1,
        tail: float = 1e-12,
        dtype=np.float64,
    ):
        n_surfaces = int(n_surfaces)
        if n_surfaces < 1:
            raise ParameterError(
                f"n_surfaces must be >= 1, got {n_surfaces}"
            )
        # The scatter core owns everything invariant for the accumulator's
        # lifetime: pixel lattice, cutoff radius, whether the kernel is
        # truncated at that radius, and (float32) the kernel table.
        self._scatterer = PatchScatter(
            bbox, size, bandwidth, kernel=kernel, tail=tail, dtype=dtype
        )
        self.bbox = self._scatterer.bbox
        self.nx = self._scatterer.nx
        self.ny = self._scatterer.ny
        self.n_surfaces = n_surfaces
        self.bandwidth = self._scatterer.bandwidth
        self.kernel = self._scatterer.kernel
        self.dtype = self._scatterer.dtype
        self._radius = self._scatterer.radius
        self._values = np.zeros((n_surfaces, self.nx, self.ny),
                                dtype=self.dtype)
        self._count = 0
        self._gross = 0.0
        self._net = 0.0

    @property
    def n_points(self) -> int:
        """Number of points currently contributing to the surfaces."""
        return self._count

    @property
    def scatterer(self) -> PatchScatter:
        """The shared scatter core this accumulator writes through."""
        return self._scatterer

    # -- float-drift accounting ---------------------------------------------
    #
    # Every scatter rounds; insert-then-remove cancels exactly in real
    # arithmetic but leaves rounding residue on the surface.  The residue
    # grows with the *gross* weight ever scattered, not with the *net*
    # weight currently present, so a long-lived sliding window drifts away
    # from a fresh scatter of its contents even though the contents are
    # small.  These counters quantify that: callers (repro.stream) watch
    # ``drift_ratio`` and re-scatter when it crosses their policy ratio —
    # the same shape as the STKDV shared backend's drift-triggered
    # re-centering.

    @property
    def gross_weight(self) -> float:
        """Total ``sum |w|`` scattered since construction/reset/rescatter."""
        return self._gross

    @property
    def net_weight(self) -> float:
        """``sum |w|`` of the points currently present (adds minus removes)."""
        return self._net

    @property
    def drift_ratio(self) -> float:
        """Gross-over-net weight ratio — the cancellation-pressure gauge."""
        return self._gross / max(self._net, 1.0)

    @property
    def drift_tolerance(self) -> float:
        """Published bound on ``|maintained - fresh scatter|`` per pixel.

        ``64 * eps(dtype) * K(0) * max(gross_weight, 1)`` — rounding
        residue scales with the machine epsilon of the surface dtype, the
        per-unit-weight patch peak ``K(0)``, and the gross weight ever
        scattered.  The float32 mode adds its kernel-table term
        (``table.max_abs_error``) because incremental and fresh scatters
        may batch lookups differently.  Guaranteed by the drift
        regression tests in ``tests/test_streaming_contours_hawkes.py``.
        """
        eps = float(np.finfo(self.dtype).eps)
        peak = float(self.kernel.evaluate(np.zeros(1), self.bandwidth)[0])
        tol = _DRIFT_SAFETY * eps * peak * max(self._gross, 1.0)
        table = self._scatterer.table
        if table is not None:
            tol += 2.0 * table.max_abs_error * max(self._gross, 1.0)
        return tol

    def scatter(self, points, weights) -> "MultiSurfaceAccumulator":
        """Scatter each point's patch onto every surface, scaled by weights.

        ``weights`` is an ``(n, S)`` array of signed per-point, per-surface
        factors; surface ``s`` receives ``weights[i, s] * patch_i``.  The
        point count tracks the *net* signed mass on surface 0's convention:
        callers doing add/remove bookkeeping should use
        :meth:`add_weighted` / :meth:`remove_weighted` instead.
        """
        pts = as_points(points, allow_empty=True)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape != (pts.shape[0], self.n_surfaces):
            raise DataError(
                f"weights must have shape ({pts.shape[0]}, {self.n_surfaces}), "
                f"got {w.shape}"
            )
        if w.size and not np.all(np.isfinite(w)):
            raise DataError("weights contain non-finite entries")
        self._scatterer.scatter(self._values, pts, w)
        self._gross += float(np.abs(w).sum())
        return self

    def add_weighted(self, points, weights) -> "MultiSurfaceAccumulator":
        """Insert points with the given ``(n, S)`` weights."""
        self.scatter(points, weights)
        self._count += as_points(points, allow_empty=True).shape[0]
        self._net += float(np.abs(np.asarray(weights, dtype=np.float64)).sum())
        return self

    def remove_weighted(self, points, weights) -> "MultiSurfaceAccumulator":
        """Remove previously-inserted points (same weights as insertion)."""
        pts = as_points(points, allow_empty=True)
        if pts.shape[0] > self._count:
            raise ParameterError(
                f"cannot remove {pts.shape[0]} points; only {self._count} present"
            )
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        self.scatter(pts, -w)
        self._count -= pts.shape[0]
        self._net = max(self._net - float(np.abs(w).sum()), 0.0)
        if self._count == 0:
            # Snap accumulated float noise back to exactly empty.
            self._values[:] = 0.0
            self._net = 0.0
        return self

    def rescatter(
        self, points, weights, workers: int | None = None,
        backend: str | None = None,
    ) -> "MultiSurfaceAccumulator":
        """Rebuild the bank from scratch as if only ``points`` were added.

        The cancellation-residue escape hatch: replaces the maintained
        surfaces with a fresh scatter of the given points/weights and
        resets the gross-weight counter, so the drift clock restarts.
        The event list is split into fixed ``_RESCATTER_CHUNK`` chunks
        scattered concurrently through :func:`repro.parallel.
        parallel_starmap` and summed in chunk order — the result is
        bit-identical for every ``workers``/``backend`` combination, and
        bit-identical to a fresh serial ``add_weighted`` whenever the
        window fits a single chunk.
        """
        pts = as_points(points, allow_empty=True)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape != (pts.shape[0], self.n_surfaces):
            raise DataError(
                f"weights must have shape ({pts.shape[0]}, {self.n_surfaces}), "
                f"got {w.shape}"
            )
        if w.size and not np.all(np.isfinite(w)):
            raise DataError("weights contain non-finite entries")
        n = pts.shape[0]
        if n <= _RESCATTER_CHUNK:
            self.reset()
            if n:
                self.add_weighted(pts, w)
            return self
        jobs = [
            (self._scatterer, pts[c0:c0 + _RESCATTER_CHUNK],
             w[c0:c0 + _RESCATTER_CHUNK], self.n_surfaces)
            for c0 in range(0, n, _RESCATTER_CHUNK)
        ]
        with obs.span("rescatter"):
            banks = parallel_starmap(
                _rescatter_chunk, jobs, workers=workers, backend=backend
            )
        fresh = banks[0]
        for bank in banks[1:]:
            fresh += bank
        self._values = fresh
        self._count = n
        total = float(np.abs(w).sum())
        self._gross = total
        self._net = total
        return self

    def surface_view(self, s: int) -> np.ndarray:
        """Surface ``s`` as a *live read-only view* (no copy).

        For delta-cost inspection of the maintained bank — the streaming
        KDV's dirty-tile compare reads candidate tile regions through this
        without copying the whole surface per refresh.  Callers must not
        write through it; mutate via the scatter methods only.
        """
        s = int(s)
        if not (0 <= s < self.n_surfaces):
            raise ParameterError(
                f"surface index must lie in [0, {self.n_surfaces}), got {s}"
            )
        return self._values[s]

    def surface(self, s: int) -> np.ndarray:
        """Surface ``s`` as a defensive ``(nx, ny)`` copy."""
        s = int(s)
        if not (0 <= s < self.n_surfaces):
            raise ParameterError(
                f"surface index must lie in [0, {self.n_surfaces}), got {s}"
            )
        return self._values[s].copy()

    def combine(self, factors) -> np.ndarray:
        """Linear combination ``sum_s factors[s] * V_s`` as an (nx, ny) array."""
        f = np.asarray(factors, dtype=np.float64).ravel()
        if f.shape[0] != self.n_surfaces:
            raise DataError(
                f"factors must have length {self.n_surfaces}, got {f.shape[0]}"
            )
        return np.tensordot(f, self._values, axes=(0, 0))

    def recombine(self, matrix) -> "MultiSurfaceAccumulator":
        """Replace the surface bank with ``V'_m = sum_j matrix[m, j] * V_j``.

        The STKDV backend uses this to re-reference its moment grids
        (a change of temporal origin is a triangular linear map on the
        moments), which keeps the accumulated powers well conditioned
        without re-scattering any point.
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (self.n_surfaces, self.n_surfaces):
            raise DataError(
                f"matrix must have shape ({self.n_surfaces}, {self.n_surfaces}), "
                f"got {m.shape}"
            )
        self._values = np.tensordot(m, self._values, axes=(1, 0)).astype(
            self.dtype, copy=False
        )
        return self

    def reset(self) -> "MultiSurfaceAccumulator":
        """Drop all points and clear the drift accounting."""
        self._values[:] = 0.0
        self._count = 0
        self._gross = 0.0
        self._net = 0.0
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self._count}, "
            f"surfaces={self.n_surfaces}, grid={self.nx}x{self.ny}, "
            f"kernel={self.kernel.name}, b={self.bandwidth:g})"
        )
