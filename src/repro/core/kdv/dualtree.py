"""Dual-tree KDV: parallel block function approximation with a stated guarantee.

The library's one tree-refinement engine: the dual-tree formulation (the
structure actually used by QUAD [25] and the classic Gray-Moore dual-tree
KDE [51, 52]) refines *pixel tiles* against *kd-tree nodes* at once,
under an absolute budget (``kde_dualtree``) or a relative one (the
``bounds`` mode of :mod:`.bounds`):

* for a (tile, node) pair, the distance between the tile's rectangle and
  the node's bounding box brackets every pixel-point distance, so

      W_node * K(dmax)  <=  contribution to each pixel  <=  W_node * K(dmin)

  where ``W_node`` is the total point weight below the node (the point
  count for unweighted input);
* if the per-unit-weight gap ``K(dmin) - K(dmax)`` is at most
  ``tau / W_total``, the midpoint is added to the whole tile at once —
  each pixel's total error is then at most ``tau / 2`` because the
  accepted nodes partition the point set;
* otherwise the pair recurses on whichever side is wider (tile split or
  node split); leaf-leaf pairs are evaluated exactly.

The guarantee is *absolute* (``|F̂(q) - F(q)| <= tau/2`` for every pixel),
which composes cleanly across tiles; pass ``tau=0`` for exact evaluation.
The ``bounds`` mode spends ``eps`` times a lower bound on each plan
tile's density instead, which gives Equation 6's relative guarantee.
Works with every kernel in the library.

**Plan/execute split.**  Refinement runs in two phases so the hot loop can
ride :mod:`repro.parallel`:

1. a cheap serial *plan* descent splits the root (tile, node) pair
   tile-first into a partition of the pixel grid whose shape depends only
   on the grid geometry — never on the worker count — and prunes each
   tile's kd-node frontier at the top of the tree (far-field bulk accepts
   become a per-tile scalar, out-of-support nodes are dropped);
2. the *execute* phase runs one refinement job per tile through
   :func:`repro.parallel.parallel_starmap`; each job owns a disjoint
   ``values[ix0:ix1, iy0:iy1]`` slice.

Because the tile partition and every job's work are worker-invariant, the
output is **bit-identical for every ``workers``/``backend`` combination,
including serial** — parallelism changes wall-time only.  A
:class:`RefinementStats` record describing the refinement (pair counts,
bulk accepts, exact scans, per-phase wall time) rides on the returned
grid's ``diagnostics`` record under ``records["refinement"]``, and the
same counters feed the :mod:`repro.obs` trace when one is active.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ... import obs
from ..._validation import check_non_negative
from ...index import KDTree
from ...parallel import parallel_starmap
from ..scatter import accumulate_rect_blocks
from .base import KDVProblem

__all__ = ["RefinementStats", "kde_dualtree"]

_TILE_LEAF = 8  # tiles at most this many pixels wide are scanned exactly

# The plan phase stops splitting once it holds this many tiles: four times
# a generous worker ceiling, so every realistic pool finds enough
# independent jobs to balance load.  It is a FIXED constant — deriving it
# from ``workers`` or ``os.cpu_count()`` would make the partition (and the
# per-pixel float summation order) depend on the machine, breaking the
# bit-identical determinism contract of ``repro.parallel``.
_PLAN_TILE_CAP = 32


@dataclass(frozen=True)
class RefinementStats:
    """Observability record for one dual-tree refinement run.

    Carried on the returned grid as
    ``grid.diagnostics.records["refinement"]``; all counters cover the
    plan and execute phases together.
    """

    pairs_visited: int
    """(tile, node) pairs popped from a refinement stack."""

    pairs_pruned: int
    """Pairs discarded because the whole pair lies outside the kernel
    support (or carries zero weight)."""

    tiles_bulk_accepted: int
    """Pairs whose bound midpoint was added to an entire tile at once."""

    leaf_leaf_scans: int
    """Exact leaf-tile vs leaf-node block evaluations."""

    points_touched: int
    """Point entries scanned across all exact leaf-leaf evaluations."""

    n_tiles: int
    """Tiles in the worker-invariant plan partition."""

    n_jobs: int
    """Tiles that still had refinement work after the plan prune."""

    plan_seconds: float
    """Wall time of the serial plan descent (tree build included)."""

    execute_seconds: float
    """Wall time of the parallel execute phase."""

    def as_dict(self) -> dict:
        """Plain-dict form (for benchmark JSON and logging)."""
        return asdict(self)


def _box_distance_bounds(
    tx0: float, tx1: float, ty0: float, ty1: float,
    nx0: float, nx1: float, ny0: float, ny1: float,
) -> tuple[float, float]:
    """(min, max) distance between two axis-aligned rectangles."""
    dx_min = max(nx0 - tx1, 0.0, tx0 - nx1)
    dy_min = max(ny0 - ty1, 0.0, ty0 - ny1)
    dx_max = max(nx1 - tx0, tx1 - nx0)
    dy_max = max(ny1 - ty0, ty1 - ny0)
    return math.hypot(dx_min, dy_min), math.hypot(dx_max, dy_max)


def _partition_tiles(nx: int, ny: int, cap: int) -> list[tuple[int, int, int, int]]:
    """Split the pixel grid into at most ``cap`` half-open tiles.

    Pure function of the grid shape: the largest tile is bisected along
    its wider pixel dimension until the cap is reached (ties broken by
    list position), so the partition — and therefore the per-pixel
    summation order of the whole backend — never depends on the worker
    count, the backend, or the machine.
    """
    tiles = [(0, nx, 0, ny)]
    while len(tiles) < cap:
        best = -1
        best_area = 1  # tiles of area 1 (single pixels) cannot split
        for i, (ix0, ix1, iy0, iy1) in enumerate(tiles):
            area = (ix1 - ix0) * (iy1 - iy0)
            if area > best_area:
                best, best_area = i, area
        if best < 0:
            break
        ix0, ix1, iy0, iy1 = tiles.pop(best)
        if ix1 - ix0 >= iy1 - iy0:
            mid = (ix0 + ix1) // 2
            first, second = (ix0, mid, iy0, iy1), (mid, ix1, iy0, iy1)
        else:
            mid = (iy0 + iy1) // 2
            first, second = (ix0, ix1, iy0, mid), (ix0, ix1, mid, iy1)
        tiles.insert(best, second)
        tiles.insert(best, first)
    return tiles


def _plan_tile(
    tree: KDTree,
    kernel,
    bandwidth: float,
    per_w_tol: float,
    xs: np.ndarray,
    ys: np.ndarray,
    tile: tuple[int, int, int, int],
) -> tuple[list[int], float, float, tuple[int, int, int]]:
    """Prune the kd-node frontier of one tile at the top of the tree.

    Descends *nodes only* (the tile is fixed): pairs whose recursion rule
    would next split the tile — or that are leaf-leaf — stop and join the
    frontier; out-of-support and zero-weight nodes are dropped; pairs
    already tight over the whole tile are folded into a scalar ``base``
    added uniformly to every pixel of the tile.  The kept nodes (accepted
    or on the frontier) and the dropped ones partition the points, so
    ``lower``, the sum of ``W_node * K(dmax)`` over the kept nodes, is a
    lower bound on the density of every pixel of the tile (0 when one of
    them is empty).  Returns ``(frontier, base, lower, (pairs, pruned,
    accepted))``.
    """
    ix0, ix1, iy0, iy1 = tile
    tx0, tx1 = xs[ix0], xs[ix1 - 1]
    ty0, ty1 = ys[iy0], ys[iy1 - 1]
    tile_is_leaf = (ix1 - ix0) <= _TILE_LEAF and (iy1 - iy0) <= _TILE_LEAF
    tile_extent = max(tx1 - tx0, ty1 - ty0)

    node_min = tree.node_min
    node_max = tree.node_max
    wsum = tree.node_weight_sum

    frontier: list[int] = []
    base = lower = 0.0
    pairs = pruned = accepted = 0
    stack = [0]
    while stack:
        node = stack.pop()
        pairs += 1
        w_node = wsum[node]
        if w_node == 0.0:
            pruned += 1
            continue
        nmin = node_min[node]
        nmax = node_max[node]
        dmin, dmax = _box_distance_bounds(
            tx0, tx1, ty0, ty1, nmin[0], nmax[0], nmin[1], nmax[1]
        )
        k_hi, k_lo = kernel.evaluate(np.array((dmin, dmax)), bandwidth).tolist()
        if k_hi == 0.0:
            pruned += 1
            continue
        if k_hi - k_lo <= per_w_tol:
            base += w_node * (0.5 * (k_hi + k_lo))
            lower += w_node * k_lo
            accepted += 1
            continue
        node_is_leaf = tree.is_leaf(node)
        node_extent = float(max(nmax[0] - nmin[0], nmax[1] - nmin[1]))
        split_tile = not tile_is_leaf and (node_is_leaf or tile_extent >= node_extent)
        if split_tile or node_is_leaf:
            # The recursion would split the tile next (or scan leaf-leaf):
            # either way the execute job owns it from here.
            frontier.append(node)
            lower += w_node * k_lo
            continue
        left, right = tree.children(node)
        stack.append(left)
        stack.append(right)
    return frontier, base, lower, (pairs, pruned, accepted)


def _refine_tile(
    tree: KDTree,
    kernel,
    bandwidth: float,
    per_w_tol: float,
    xs: np.ndarray,
    ys: np.ndarray,
    dx: float,
    dy: float,
    tile: tuple[int, int, int, int],
    frontier: list[int],
    base: float,
) -> tuple[np.ndarray, tuple[int, int, int, int, int]]:
    """Execute-phase job: fully refine one tile against its frontier.

    Runs the dual-tree recursion restricted to the tile as a
    *wave-vectorised* breadth-first sweep: every live (sub-tile, node)
    pair of a wave is bounded, pruned, accepted, or split with whole-array
    numpy operations instead of one Python iteration per pair.  The
    recursion tree — and therefore every counter — is identical to the
    classic depth-first formulation; only the traversal order changes.
    Leaf-leaf pairs are collected across the whole sweep and evaluated in
    one batch through
    :func:`repro.core.scatter.accumulate_rect_blocks`, grouped by output
    rectangle.  Accumulates into a local ``(tile_w, tile_h)`` array seeded
    with the plan's bulk-accepted ``base``.  Module-level (and
    argument-picklable) so the job runs on any :mod:`repro.parallel`
    backend.  Returns the local array and a counter tuple
    ``(pairs, pruned, accepted, leaf_scans, points_touched)``.
    """
    jx0, jx1, jy0, jy1 = tile
    local = np.full((jx1 - jx0, jy1 - jy0), base, dtype=np.float64)
    b = bandwidth
    node_min = tree.node_min
    node_max = tree.node_max
    wsum = tree.node_weight_sum
    left_of = tree.node_left
    right_of = tree.node_right

    ix0 = np.full(len(frontier), jx0, dtype=np.int64)
    ix1 = np.full(len(frontier), jx1, dtype=np.int64)
    iy0 = np.full(len(frontier), jy0, dtype=np.int64)
    iy1 = np.full(len(frontier), jy1, dtype=np.int64)
    node = np.asarray(frontier, dtype=np.int64)

    leaf_parts: list[tuple[np.ndarray, ...]] = []
    pairs = pruned = accepted = 0
    while node.size:
        pairs += node.size
        tx0 = xs[ix0]
        tx1 = xs[ix1 - 1]
        ty0 = ys[iy0]
        ty1 = ys[iy1 - 1]
        nmin = node_min[node]
        nmax = node_max[node]
        nbx0 = nmin[:, 0]
        nby0 = nmin[:, 1]
        nbx1 = nmax[:, 0]
        nby1 = nmax[:, 1]
        # Vectorised _box_distance_bounds over the whole wave.
        dx_min = np.maximum(np.maximum(nbx0 - tx1, 0.0), tx0 - nbx1)
        dy_min = np.maximum(np.maximum(nby0 - ty1, 0.0), ty0 - nby1)
        dx_max = np.maximum(nbx1 - tx0, tx1 - nbx0)
        dy_max = np.maximum(nby1 - ty0, ty1 - nby0)
        k_hi = kernel.evaluate(np.hypot(dx_min, dy_min), b)
        k_lo = kernel.evaluate(np.hypot(dx_max, dy_max), b)
        w_node = wsum[node]

        prune = (w_node == 0.0) | (k_hi == 0.0)
        accept = ~prune & (k_hi - k_lo <= per_w_tol)
        pruned += int(prune.sum())
        n_accept = int(np.count_nonzero(accept))
        if n_accept:
            accepted += n_accept
            mid = w_node * (0.5 * (k_hi + k_lo))
            for i in np.flatnonzero(accept):
                local[ix0[i] - jx0:ix1[i] - jx0,
                      iy0[i] - jy0:iy1[i] - jy0] += mid[i]

        rest = ~(prune | accept)
        node_is_leaf = left_of[node] < 0
        tw = ix1 - ix0
        th = iy1 - iy0
        tile_is_leaf = (tw <= _TILE_LEAF) & (th <= _TILE_LEAF)

        leafleaf = rest & node_is_leaf & tile_is_leaf
        if leafleaf.any():
            leaf_parts.append(
                (ix0[leafleaf], ix1[leafleaf], iy0[leafleaf], iy1[leafleaf],
                 node[leafleaf])
            )
        rest &= ~leafleaf
        # Split whichever side is wider (in coordinate units).
        tile_extent = np.maximum(tx1 - tx0, ty1 - ty0)
        node_extent = np.maximum(nbx1 - nbx0, nby1 - nby0)
        split_tile = rest & ~tile_is_leaf & (
            node_is_leaf | (tile_extent >= node_extent)
        )
        split_node = rest & ~split_tile

        parts = []
        if split_tile.any():
            st = np.flatnonzero(split_tile)
            along_x = tw[st] >= th[st]
            stx = st[along_x]
            if stx.size:
                mid_x = (ix0[stx] + ix1[stx]) // 2
                parts.append((ix0[stx], mid_x, iy0[stx], iy1[stx], node[stx]))
                parts.append((mid_x, ix1[stx], iy0[stx], iy1[stx], node[stx]))
            sty = st[~along_x]
            if sty.size:
                mid_y = (iy0[sty] + iy1[sty]) // 2
                parts.append((ix0[sty], ix1[sty], iy0[sty], mid_y, node[sty]))
                parts.append((ix0[sty], ix1[sty], mid_y, iy1[sty], node[sty]))
        if split_node.any():
            sn = np.flatnonzero(split_node)
            parts.append((ix0[sn], ix1[sn], iy0[sn], iy1[sn], left_of[node[sn]]))
            parts.append((ix0[sn], ix1[sn], iy0[sn], iy1[sn], right_of[node[sn]]))
        if parts:
            ix0 = np.concatenate([p[0] for p in parts])
            ix1 = np.concatenate([p[1] for p in parts])
            iy0 = np.concatenate([p[2] for p in parts])
            iy1 = np.concatenate([p[3] for p in parts])
            node = np.concatenate([p[4] for p in parts])
        else:
            node = np.empty(0, dtype=np.int64)

    leaf_scans = points = 0
    if leaf_parts:
        lx0 = np.concatenate([p[0] for p in leaf_parts])
        lx1 = np.concatenate([p[1] for p in leaf_parts])
        ly0 = np.concatenate([p[2] for p in leaf_parts])
        ly1 = np.concatenate([p[3] for p in leaf_parts])
        lnode = np.concatenate([p[4] for p in leaf_parts])
        leaf_scans = int(lnode.size)
        # Group leaf pairs by output rectangle so the scatter core
        # evaluates each rectangle's point set in one shot.  Within one
        # job equal (lx0, ly0) implies an equal rectangle: the tile
        # bisection hierarchy is fixed and leaves are never split
        # further.  lexsort is stable, so the grouping is deterministic.
        order = np.lexsort((lnode, ly0, lx0))
        lx0 = lx0[order]
        lx1 = lx1[order]
        ly0 = ly0[order]
        ly1 = ly1[order]
        lnode = lnode[order]

        pt_starts = tree.node_start[lnode]
        counts = (tree.node_stop[lnode] - pt_starts).astype(np.int64)
        points = int(counts.sum())
        pair_off = np.concatenate([[0], np.cumsum(counts)])
        pos = np.repeat(pt_starts - pair_off[:-1], counts) + np.arange(points)
        sorted_pts = tree._sorted_points
        px = sorted_pts[pos, 0]
        py = sorted_pts[pos, 1]
        sw = tree._sorted_weights
        pw = sw[pos] if sw is not None else None

        change = np.empty(lnode.size, dtype=bool)
        change[0] = True
        change[1:] = (lx0[1:] != lx0[:-1]) | (ly0[1:] != ly0[:-1])
        rect_idx = np.flatnonzero(change)
        rects = (lx0[rect_idx], lx1[rect_idx], ly0[rect_idx], ly1[rect_idx])
        rect_starts = np.concatenate([pair_off[rect_idx], [points]])
        accumulate_rect_blocks(
            local, (jx0, jy0), rects, rect_starts, px, py, pw,
            float(xs[0]), float(ys[0]), dx, dy, kernel, b, _TILE_LEAF,
        )
    return local, (pairs, pruned, accepted, leaf_scans, points)


def kde_dualtree(
    problem: KDVProblem,
    tau: float = 1e-3,
    leaf_size: int = 32,
    workers: int | None = None,
    backend: str | None = None,
):
    """KDV with per-pixel absolute error at most ``tau / 2``.

    Parameters
    ----------
    problem:
        The KDV instance.  Per-point weights are supported: node weight
        sums replace point counts as the bound multipliers and the error
        budget is spent against the total weight.
    tau:
        Absolute error budget; ``0`` gives exact evaluation through
        leaf-leaf scans.  A good default for visualisation is a small
        fraction of the expected peak (e.g. ``1e-3 * n * K_max``) — but
        even ``tau ~ 1`` is invisible on a colour-mapped heatmap.
    leaf_size:
        kd-tree leaf size.
    workers, backend:
        Worker count and executor backend for the execute phase (see
        :mod:`repro.parallel`; ``None`` uses the shared defaults).  The
        refinement loop is Python-bound, so the ``process`` backend is
        the one that buys multi-core speedup; any combination returns
        bit-identical values.

    Returns
    -------
    :class:`~repro.raster.DensityGrid` with a :class:`RefinementStats`
    record on ``grid.diagnostics.records["refinement"]``.
    """
    tau = check_non_negative(tau, "tau")
    return _refine(problem, "kdv.dualtree", leaf_size, workers, backend,
                   tau=tau)


def _refine(
    problem: KDVProblem,
    task: str,
    leaf_size: int,
    workers: int | None,
    backend: str | None,
    tau: float = 0.0,
    eps: float | None = None,
):
    """Plan and execute the dual-tree refinement under one error budget.

    With ``eps`` unset every pair spends the absolute budget ``tau``
    (``per_w_tol = tau / W_total``).  With ``eps`` set, the plan accepts
    only exact pairs and each plan tile ``T`` is then refined with
    ``per_w_tol = 2 * eps * L_T / W_total``, where ``L_T`` is the plan's
    lower bound on every pixel of ``T``: each pixel's error is at most
    ``eps * L_T <= eps * F`` (Equation 6), and a tile holding an empty
    pixel has ``L_T = 0`` and is evaluated exactly.  ``task`` names the
    :mod:`repro.obs` task the run is traced under.
    """
    with obs.task(task) as trace:
        plan_watch = obs.Stopwatch()
        with plan_watch, obs.span("plan"):
            tree = KDTree(problem.points, leaf_size=leaf_size,
                          weights=problem.weights)
            kernel = problem.kernel
            b = problem.bandwidth
            nx, ny = problem.nx, problem.ny
            values = np.zeros((nx, ny), dtype=np.float64)

            total_weight = tree.total_weight
            if total_weight == 0.0:
                jobs = None  # zero total mass: density identically zero
            else:
                plan_tol = tau / total_weight if eps is None else 0.0
                xs, ys = problem.pixel_centers()
                dx, dy = problem.bbox.pixel_size(nx, ny)
                tiles = _partition_tiles(nx, ny, _PLAN_TILE_CAP)

                pairs = pruned = accepted = 0
                jobs = []
                job_tiles: list[tuple[int, int, int, int]] = []
                for tile in tiles:
                    frontier, base, lower, (t_pairs, t_pruned, t_accepted) = (
                        _plan_tile(tree, kernel, b, plan_tol, xs, ys, tile)
                    )
                    pairs += t_pairs
                    pruned += t_pruned
                    accepted += t_accepted
                    if frontier:
                        per_w_tol = (plan_tol if eps is None
                                     else 2.0 * eps * lower / total_weight)
                        jobs.append((tree, kernel, b, per_w_tol, xs, ys,
                                     dx, dy, tile, frontier, base))
                        job_tiles.append(tile)
                    elif base != 0.0:
                        ix0, ix1, iy0, iy1 = tile
                        values[ix0:ix1, iy0:iy1] = base

        if jobs is None:
            stats = RefinementStats(0, 0, 0, 0, 0, 0, 0,
                                    plan_watch.seconds, 0.0)
        else:
            exec_watch = obs.Stopwatch()
            leaf_scans = points = 0
            with exec_watch, obs.span("execute"):
                results = parallel_starmap(_refine_tile, jobs,
                                           workers=workers, backend=backend)
                for (ix0, ix1, iy0, iy1), (local, counters) in zip(job_tiles,
                                                                   results):
                    values[ix0:ix1, iy0:iy1] = local
                    pairs += counters[0]
                    pruned += counters[1]
                    accepted += counters[2]
                    leaf_scans += counters[3]
                    points += counters[4]

            stats = RefinementStats(
                pairs_visited=pairs,
                pairs_pruned=pruned,
                tiles_bulk_accepted=accepted,
                leaf_leaf_scans=leaf_scans,
                points_touched=points,
                n_tiles=len(tiles),
                n_jobs=len(jobs),
                plan_seconds=plan_watch.seconds,
                execute_seconds=exec_watch.seconds,
            )
            # Mirror the counters into the ambient trace (no-ops when
            # tracing is off); the structured record rides along either way.
            obs.count("kdv.pairs_visited", pairs)
            obs.count("kdv.pairs_pruned", pruned)
            obs.count("kdv.tiles_bulk_accepted", accepted)
            obs.count("kdv.leaf_leaf_scans", leaf_scans)
            obs.count("kdv.points_touched", points)
            obs.count("kdv.tiles", len(tiles))
            obs.count("kdv.jobs", len(jobs))
        trace.record("refinement", stats)
    return problem.make_grid(values, diagnostics=trace.diagnostics)
