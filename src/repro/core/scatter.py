"""Cache-blocked kernel-scatter core shared by every density backend.

The paper's central performance complaint (§2.2) is that per-point Python
loops leave orders of magnitude on the table.  Before this module, four
independently written scatter loops lived in the tree: the streaming
accumulator's per-point patch loop, the grid-cutoff backend's per-point
patch loop, the dual-tree execute phase's per-pair leaf scans, and the
NKDV per-event lixel scatter.  They all now dispatch through the three
primitives here:

* :class:`PatchScatter` — planar patch scatter of a point batch onto one
  or more ``(nx, ny)`` surfaces.  Events are batched into
  structure-of-arrays layout: one vectorised window computation, one
  in-place ``evaluate_sq`` call and one ordered ``np.add.at`` per batch
  (and surface) instead of one of each per point, in one workspace per
  call that every batch reuses.  The flat pixel indices are
  point-major, so every pixel still sums its contributions in **input
  order** and the ``dtype=float64`` default is bit-identical to the
  historical per-point loops — the worker-invariance and shared-STKDV
  equivalence contracts survive unchanged.  ``dtype=float32`` sorts
  events into grid-aligned buckets (output tiles stay cache-resident)
  and evaluates through the precomputed
  :class:`~repro.core.kernels.KernelTable` under the documented
  bounded-error contract ``|err| <= eps_rel * max + eps_abs`` (see
  ``docs/PERFORMANCE.md``).
* :func:`accumulate_rect_blocks` — batched leaf-leaf evaluation for the
  dual-tree execute phase: contributions grouped by output rectangle,
  one separable rank-1 evaluation + BLAS product per rectangle for the
  Gaussian kernel, one batched ``evaluate_sq`` per chunk otherwise.
* :func:`scatter_line` — the 1-D masked kernel scatter NKDV applies per
  event along the lixelised network.

Observability: when a trace is active the core reports
``scatter.points`` (events scattered), ``scatter.buckets`` (batch/bucket
groups evaluated) and ``scatter.patch_pixels`` (pixels/lixels written).
All three are totals over fixed-partition batches, so they are
worker-invariant like every other counter in the library.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive, check_probability
from ..errors import DataError, ParameterError
from ..geometry import BoundingBox
from .kernels import Kernel, KernelTable, build_kernel_table, get_kernel

__all__ = [
    "PatchScatter",
    "SCATTER_DTYPES",
    "accumulate_rect_blocks",
    "resolve_dtype",
    "scatter_line",
]

#: Accepted ``dtype=`` spellings for the two accuracy modes.
SCATTER_DTYPES = ("float64", "float32")

#: Patch-buffer element budget per evaluate_sq batch; it sizes the
#: per-call workspace (distances, flat pixel indices, weighted block).
#: The output does not depend on it — every pixel sums its contributions
#: in input order however the batches split — and a fixed constant, never
#: derived from worker count or machine size, keeps the
#: ``scatter.buckets`` counter identical everywhere.
_BATCH_ELEMS = 1 << 18

#: Output-tile edge (pixels) used to bucket events in float32 mode; one
#: bucket's working set (tile + patch halo) is what stays cache-resident.
_BUCKET_TILE = 64

#: Contribution budget per rect-block evaluation chunk (see above re:
#: fixed constants).
_RECT_CHUNK = 1 << 18


def resolve_dtype(dtype) -> np.dtype:
    """Validate a scatter-core ``dtype=`` argument (float64/float32)."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ParameterError(
            f"dtype must be one of {'/'.join(SCATTER_DTYPES)}, got {dtype!r}"
        ) from None
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ParameterError(
            f"dtype must be one of {'/'.join(SCATTER_DTYPES)}, got {dtype!r}"
        )
    return resolved


class PatchScatter:
    """Precomputed patch scatterer for one window/lattice/kernel/bandwidth.

    Everything invariant across calls — pixel centres, pixel size, the
    cutoff radius, whether the kernel is truncated at that radius, and
    (in float32 mode) the kernel lookup table — is computed once here, so
    per-call work is only the batched window math and kernel evaluation.

    ``scatter`` accumulates into a caller-owned ``(nx, ny)`` or
    ``(S, nx, ny)`` array; signed weights make removal the same operation
    as insertion, which is what the streaming accumulator and the
    temporal-sharing STKDV backend build on.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        size: tuple[int, int],
        bandwidth: float,
        kernel: str | Kernel = "quartic",
        tail: float = 1e-12,
        dtype=np.float64,
    ):
        if not isinstance(bbox, BoundingBox):
            raise ParameterError("bbox must be a BoundingBox")
        nx, ny = int(size[0]), int(size[1])
        if nx < 1 or ny < 1:
            raise ParameterError(f"grid size must be positive, got {nx}x{ny}")
        self.bbox = bbox
        self.nx = nx
        self.ny = ny
        self.bandwidth = check_positive(bandwidth, "bandwidth")
        self.kernel = get_kernel(kernel)
        self.tail = check_probability(tail, "tail")
        self.dtype = resolve_dtype(dtype)

        support = self.kernel.support_radius(self.bandwidth)
        if np.isfinite(support):
            self.radius = float(support)
        else:
            self.radius = float(
                self.kernel.effective_radius(self.bandwidth, self.tail)
            )
        #: True when the cutoff radius truncates an infinite-support
        #: kernel (hoisted here from the per-call hot path).
        self.truncated = self.radius < support
        self._r2 = self.radius * self.radius
        self._xs, self._ys = bbox.pixel_centers(nx, ny)
        self._dx, self._dy = bbox.pixel_size(nx, ny)
        self.table: KernelTable | None = None
        if self.dtype == np.dtype(np.float32):
            self.table = build_kernel_table(
                self.kernel, self.bandwidth, cutoff=self.radius
            )

    def windows(self, points: np.ndarray):
        """Clipped pixel-index windows covered by each point's cutoff disc.

        Vectorised, but element-for-element the same arithmetic as the
        historical per-point loop, so the windows (and everything
        downstream) are bit-identical to it.  Non-finite coordinates
        raise :class:`~repro.errors.DataError` (they have no window).
        """
        if not np.isfinite(points).all():
            raise DataError("points contain non-finite coordinates")
        px = points[:, 0]
        py = points[:, 1]
        radius = self.radius
        # Clipped while still float: a reach past 2**63 pixels would
        # overflow the int64 cast.  A bound past the raster's far side
        # only has to stay there, so clipping to one pixel beyond leaves
        # every window that meets the raster unchanged and every other
        # one empty.
        ix_lo = np.clip(
            np.ceil((px - radius - self._xs[0]) / self._dx), 0, self.nx
        ).astype(np.int64)
        ix_hi = np.clip(
            np.floor((px + radius - self._xs[0]) / self._dx), -1, self.nx - 1
        ).astype(np.int64)
        iy_lo = np.clip(
            np.ceil((py - radius - self._ys[0]) / self._dy), 0, self.ny
        ).astype(np.int64)
        iy_hi = np.clip(
            np.floor((py + radius - self._ys[0]) / self._dy), -1, self.ny - 1
        ).astype(np.int64)
        return ix_lo, ix_hi, iy_lo, iy_hi

    def window_tiles(self, points: np.ndarray,
                     tile: int) -> list[tuple[int, int]]:
        """Sorted ``(tx, ty)`` of the ``tile``-pixel tiles the windows meet.

        One vectorised pass per tile offset a window can span (a handful),
        not per point, and no lattice-sized array: the cost follows the
        points, not the tile count.
        """
        if points.shape[0] == 0:
            return []
        ix_lo, ix_hi, iy_lo, iy_hi = self.windows(points)
        live = (ix_lo <= ix_hi) & (iy_lo <= iy_hi)  # window meets the raster
        if not live.any():
            return []
        tiles_ny = -(-self.ny // tile)
        tx_lo, tx_hi = ix_lo[live] // tile, ix_hi[live] // tile
        ty_lo, ty_hi = iy_lo[live] // tile, iy_hi[live] // tile
        ids = []
        for ox in range(int((tx_hi - tx_lo).max()) + 1):
            tx = tx_lo + ox
            in_x = tx <= tx_hi
            for oy in range(int((ty_hi - ty_lo).max()) + 1):
                ty = ty_lo + oy
                hit = in_x & (ty <= ty_hi)
                ids.append(tx[hit] * tiles_ny + ty[hit])
        ids = np.unique(np.concatenate(ids)).tolist()
        return [divmod(i, tiles_ny) for i in ids]

    def scatter(self, values: np.ndarray, points, weights=None,
                clip=None) -> tuple[int, int]:
        """Accumulate every point's kernel patch into ``values``.

        Parameters
        ----------
        values:
            ``(nx, ny)`` or ``(S, nx, ny)`` accumulation target of this
            scatterer's dtype; with a ``clip`` it covers exactly the clip
            rectangle, ``(x1 - x0, y1 - y0)`` or ``(S, x1 - x0, y1 - y0)``.
            A strided view with no flat view of its own (e.g. every other
            row of a bank) is accumulated through a contiguous copy
            written back whole.
        points:
            ``(n, 2)`` finite event locations (may lie outside the window;
            points whose patch misses the grid contribute nothing).
        weights:
            ``None`` (unweighted: the raw patch is added), ``(n,)``
            per-point factors, or ``(n, S)`` per-point per-surface
            factors.  Signed values are allowed (removal = negated
            insertion); non-finite ones raise
            :class:`~repro.errors.DataError`, as do non-finite points.
        clip:
            ``None`` (the whole raster) or half-open pixel bounds ``(x0,
            x1, y0, y1)`` of the raster region ``values`` stands for:
            each window is cut to them and points whose cut window is
            empty are skipped.  Every pixel sums the same contributions
            in the same order as the same pixel of an unclipped scatter
            (float32 buckets are keyed by the uncut windows), so it ends
            bit-identical to it.

        Returns
        -------
        ``(n_scattered, patch_pixels)`` — points with a non-empty patch
        (inside the clip) and total pixels written (the historical
        ``kdv.scatters`` / ``kdv.patch_pixels`` counters).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
            raise ParameterError(f"points must be (n, 2), got {pts.shape}")
        x0, x1, y0, y1 = self._clip_bounds(clip)
        vals = values if values.ndim == 3 else values[None]
        if vals.shape[1:] != (x1 - x0, y1 - y0):
            raise ParameterError(
                f"values must be (..., {x1 - x0}, {y1 - y0}), "
                f"got {values.shape}"
            )
        n_surfaces = vals.shape[0]
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim == 1:
                w = w[:, None]
            if w.shape != (pts.shape[0], n_surfaces):
                raise ParameterError(
                    f"weights must have shape ({pts.shape[0]}, {n_surfaces}), "
                    f"got {np.asarray(weights).shape}"
                )
            if not np.isfinite(w).all():
                raise DataError("weights contain non-finite entries")
        if pts.shape[0] == 0 or x0 >= x1 or y0 >= y1:
            return 0, 0

        ix_lo, ix_hi, iy_lo, iy_hi = self.windows(pts)
        # float32 bucket keys come from the uncut windows, so a clip keeps
        # the surviving points in the order the whole-raster sort gives.
        if self.table is not None:
            key_x = ix_lo // _BUCKET_TILE
            key_y = iy_lo // _BUCKET_TILE
        if clip is not None:
            ix_lo = np.maximum(ix_lo, x0)
            ix_hi = np.minimum(ix_hi, x1 - 1)
            iy_lo = np.maximum(iy_lo, y0)
            iy_hi = np.minimum(iy_hi, y1 - 1)
        live = np.flatnonzero((ix_lo <= ix_hi) & (iy_lo <= iy_hi))
        if live.size == 0:
            return 0, 0

        buckets = 0
        if self.table is not None:
            # float32 mode: sort events into grid-aligned output buckets
            # so consecutive patch writes hit the same cache-resident
            # tile.  lexsort is stable, so within a bucket the input
            # order survives — the accumulation order is a pure function
            # of the event set, never of workers or machine.
            tx = key_x[live]
            ty = key_y[live]
            order = np.lexsort((tx, ty))
            live = live[order]
            key = ty[order] * ((self.nx // _BUCKET_TILE) + 1) + tx[order]
            buckets = int(np.count_nonzero(np.diff(key)) + 1)

        flat = vals.reshape(n_surfaces, -1)
        # A target with no flat view (e.g. every other row of a bank)
        # reshapes to a copy: accumulate there and write it back whole.
        copied = not np.may_share_memory(flat, vals)

        widths = ix_hi[live] - ix_lo[live] + 1
        heights = iy_hi[live] - iy_lo[live] + 1
        patch_pixels = int((widths * heights).sum())
        p_max = int(widths.max())
        q_max = int(heights.max())
        pq = p_max * q_max
        batch = max(1, _BATCH_ELEMS // pq)
        offs_x = np.arange(p_max)
        offs_y = np.arange(q_max)
        masked = self.truncated or (
            self.table is not None and self.kernel.finite_support
        )
        # One workspace per call, reused by every batch: the distances
        # (which the kernel overwrites with its values), the flat pixel
        # indices, with weights the weighted block, and with a cutoff the
        # truncation mask.  A single allocation: once glibc has served
        # and freed it, its size sets the heap's mmap and trim thresholds,
        # so later calls reuse the heap pages instead of faulting in
        # fresh ones.
        size = min(batch, live.size) * pq
        n_blocks = 2 + (w is not None)
        work = np.empty(n_blocks * 8 * size + masked * size, dtype=np.uint8)
        d2_buf = work[:8 * size].view(np.float64)
        pix_buf = work[8 * size:16 * size].view(np.int64)
        if w is not None:
            w_buf = work[16 * size:24 * size].view(np.float64)
        far_buf = work[n_blocks * 8 * size:].view(bool)
        # Flat pixel indices in C order are point-major: point by point in
        # ``live`` order, each window row by row.  ``np.add.at`` is
        # unbuffered and applies them in that order, so every pixel sums
        # its contributions in the per-point loop's order.  Entry ``(a,
        # b)`` of a window lies ``offsets[a, b]`` past its first pixel.
        # A padding entry may point past the target, so the indices are
        # clamped to it: padding adds ``-0.0``, a no-op on any pixel.
        n_cols = y1 - y0
        offsets = (offs_x[:, None] * n_cols + offs_y[None, :]).reshape(-1)
        first = (ix_lo[live] - x0) * n_cols + (iy_lo[live] - y0)
        last = flat.shape[1] - 1
        # Each point's padding: the offsets past its own width and height.
        pad_x = offs_x[None, :] >= widths[:, None]
        pad_y = offs_y[None, :] >= heights[:, None]

        for c0 in range(0, live.size, batch):
            rows = live[c0:c0 + batch]
            nb = rows.size
            # Every window is padded to the largest; entries past a
            # point's own window are blanked below.
            cx = np.minimum(ix_lo[rows][:, None] + offs_x[None, :], x1 - 1)
            cy = np.minimum(iy_lo[rows][:, None] + offs_y[None, :], y1 - 1)
            lx = self._xs[cx] - pts[rows, 0][:, None]
            ly = self._ys[cy] - pts[rows, 1][:, None]
            d2 = d2_buf[:nb * pq].reshape(nb, p_max, q_max)
            np.add(np.square(lx, out=lx)[:, :, None],
                   np.square(ly, out=ly)[:, None, :], out=d2)
            if masked:
                # Truncation is decided in float64 before the kernel
                # overwrites ``d2``: the float32 mode covers exactly the
                # pixels the float64 mode does.
                far = np.greater(d2, self._r2,
                                 out=far_buf[:nb * pq].reshape(d2.shape))
            if self.table is None:
                patch = self.kernel.evaluate_sq(d2, self.bandwidth, out=d2)
            else:
                patch = self.table.lookup_sq_clipped(d2.astype(np.float32))
            if masked:
                patch[far] = 0.0
            pix = pix_buf[:nb * pq]
            np.add(first[c0:c0 + nb, None], offsets, out=pix.reshape(nb, pq))
            np.minimum(pix, last, out=pix)
            pads = pad_x[c0:c0 + nb], pad_y[c0:c0 + nb]
            if w is None:
                _blank_padding(patch, *pads)
                for s in range(n_surfaces):
                    np.add.at(flat[s], pix, patch.reshape(-1))
            else:
                weighted = w_buf[:nb * pq].reshape(patch.shape)
                for s in range(n_surfaces):
                    # The loop's ``w * patch`` product, then the blanking
                    # (a negative weight would flip the sign of -0.0).
                    np.multiply(w[rows, s][:, None, None], patch, out=weighted)
                    _blank_padding(weighted, *pads)
                    np.add.at(flat[s], pix, weighted.reshape(-1))
        if copied:
            vals[...] = flat.reshape(vals.shape)
        if buckets == 0:
            buckets = (live.size + batch - 1) // batch
        if obs.is_active():
            obs.count("scatter.points", int(live.size))
            obs.count("scatter.buckets", buckets)
            obs.count("scatter.patch_pixels", patch_pixels)
        return int(live.size), patch_pixels

    def _clip_bounds(self, clip) -> tuple[int, int, int, int]:
        """``clip`` as validated half-open pixel bounds (whole raster: None)."""
        if clip is None:
            return 0, self.nx, 0, self.ny
        x0, x1, y0, y1 = (int(v) for v in clip)
        if not (0 <= x0 <= x1 <= self.nx and 0 <= y0 <= y1 <= self.ny):
            raise ParameterError(
                f"clip must lie within (0, {self.nx}, 0, {self.ny}), "
                f"got {tuple(clip)}"
            )
        return x0, x1, y0, y1


def _blank_padding(block: np.ndarray, pad_x: np.ndarray,
                   pad_y: np.ndarray) -> None:
    """Set the padding of a ``(B, p, q)`` patch block to ``-0.0`` in place.

    Row ``j`` of the block is point ``j``'s window padded to ``p x q``;
    ``pad_x[j]`` (``p`` flags) and ``pad_y[j]`` (``q`` flags) mark the
    offsets past its own width and height.  ``x + (-0.0)`` is ``x`` bit
    for bit for every float ``x`` (``+0.0`` included), so the padding
    scatters onto any pixel without changing it.  Two mask stores.
    """
    block[pad_x] = -0.0
    block.transpose(0, 2, 1)[pad_y] = -0.0


def accumulate_rect_blocks(
    local: np.ndarray,
    origin: tuple[int, int],
    rects: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    starts: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pw: np.ndarray | None,
    grid_x0: float,
    grid_y0: float,
    dx: float,
    dy: float,
    kernel: Kernel,
    bandwidth: float,
    rect_span: int,
) -> int:
    """Batched exact kernel scans of point groups onto output rectangles.

    The dual-tree execute phase's leaf-leaf pairs arrive here as flat
    structure-of-arrays contributions: ``px/py/pw`` hold every (rect,
    point) contribution contiguously, ``starts`` (length ``R + 1``) marks
    each rectangle's contribution range, and ``rects = (rx0, rx1, ry0,
    ry1)`` gives each rectangle's absolute pixel window (at most
    ``rect_span`` pixels on a side).  Rectangle groups must be
    contiguous; duplicated rectangles are allowed and accumulate in
    order.

    Patch coordinates are reconstructed arithmetically from the lattice
    origin and pixel size (``grid_x0 + dx * index``) instead of gathered
    per contribution — within one ulp of the pixel-centre arrays and an
    order of magnitude cheaper.  The Gaussian kernel separates as
    ``exp(-u^2/b^2) * exp(-v^2/b^2)``, so each rectangle costs two
    ``(m, rect_span)`` factor tables and one BLAS product; every other
    kernel takes one batched ``evaluate_sq`` per chunk.  Returns the
    number of patch pixels written.
    """
    rx0, rx1, ry0, ry1 = rects
    n_rects = rx0.shape[0]
    if n_rects == 0:
        return 0
    jx0, jy0 = origin
    offs = np.arange(rect_span)
    separable = kernel.name == "gaussian"
    if separable:
        inv_b2 = 1.0 / (bandwidth * bandwidth)
    patch_pixels = 0

    # Grow each chunk rect-by-rect up to the fixed contribution budget
    # (always at least one rect, so huge groups still process).
    cuts = [0]
    while cuts[-1] < n_rects:
        r0 = cuts[-1]
        r1 = r0 + 1
        while r1 < n_rects and starts[r1 + 1] - starts[r0] <= _RECT_CHUNK:
            r1 += 1
        cuts.append(r1)
    if not separable:
        # One distance buffer for every chunk, which the kernel overwrites
        # with its values.
        longest = int(np.diff(starts[cuts]).max())
        d2_buf = np.empty(longest * rect_span * rect_span)

    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        a, z = int(starts[r0]), int(starts[r1])
        counts = (starts[r0 + 1:r1 + 1] - starts[r0:r1]).astype(np.int64)
        rect_of = np.repeat(np.arange(r0, r1), counts)
        u0 = (grid_x0 + dx * rx0[rect_of]) - px[a:z]
        v0 = (grid_y0 + dy * ry0[rect_of]) - py[a:z]
        u = u0[:, None] + (dx * offs)[None, :]
        v = v0[:, None] + (dy * offs)[None, :]
        if separable:
            u *= u
            u *= -inv_b2
            ex = np.exp(u, out=u)
            v *= v
            v *= -inv_b2
            ey = np.exp(v, out=v)
            if pw is not None:
                ex *= pw[a:z][:, None]
            bounds = starts[r0:r1 + 1] - a
            for k in range(r1 - r0):
                s0, s1 = int(bounds[k]), int(bounds[k + 1])
                block = ex[s0:s1].T @ ey[s0:s1]
                r = r0 + k
                w_r = int(rx1[r] - rx0[r])
                h_r = int(ry1[r] - ry0[r])
                local[
                    rx0[r] - jx0:rx1[r] - jx0, ry0[r] - jy0:ry1[r] - jy0
                ] += block[:w_r, :h_r]
                patch_pixels += w_r * h_r
        else:
            d2 = d2_buf[:(z - a) * rect_span * rect_span].reshape(
                z - a, rect_span, rect_span
            )
            np.add(np.square(u, out=u)[:, :, None],
                   np.square(v, out=v)[:, None, :], out=d2)
            vals = kernel.evaluate_sq(d2, bandwidth, out=d2)
            if pw is not None:
                vals *= pw[a:z][:, None, None]
            sums = np.add.reduceat(vals, starts[r0:r1] - a, axis=0)
            for k in range(r1 - r0):
                r = r0 + k
                w_r = int(rx1[r] - rx0[r])
                h_r = int(ry1[r] - ry0[r])
                local[
                    rx0[r] - jx0:rx1[r] - jx0, ry0[r] - jy0:ry1[r] - jy0
                ] += sums[k, :w_r, :h_r]
                patch_pixels += w_r * h_r
    if obs.is_active():
        obs.count("scatter.points", int(px.shape[0]))
        obs.count("scatter.buckets", int(n_rects))
        obs.count("scatter.patch_pixels", patch_pixels)
    return patch_pixels


def scatter_line(
    densities: np.ndarray,
    distances: np.ndarray,
    kernel: Kernel,
    bandwidth: float,
    cutoff: float,
    weight: float = 1.0,
    factors: np.ndarray | None = None,
) -> int:
    """1-D masked kernel scatter along a lixelised network.

    Adds ``weight * [factors *] K(distances)`` to every entry of
    ``densities`` whose distance is within ``cutoff`` (and whose split
    factor is positive, when ``factors`` is given) — the NKDV per-event
    scatter, shared by the unsplit and equal-split variants.  Returns the
    number of lixels written.
    """
    near = distances <= cutoff
    if factors is not None:
        near &= factors > 0.0
    if not near.any():
        return 0
    if factors is None:
        densities[near] += weight * kernel.evaluate(distances[near], bandwidth)
    else:
        densities[near] += (
            weight * factors[near] * kernel.evaluate(distances[near], bandwidth)
        )
    hits = int(near.sum())
    if obs.is_active():
        obs.count("scatter.points", 1)
        obs.count("scatter.buckets", 1)
        obs.count("scatter.patch_pixels", hits)
    return hits
