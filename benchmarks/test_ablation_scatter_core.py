"""Ablation H: the shared scatter core vs the legacy per-point loops.

PR 4's dual-tree backend spent its execute phase in a per-pair Python
DFS whose leaf-leaf scans evaluated one small ``(pixels, points)`` block
per kd-leaf.  The scatter core (:mod:`repro.core.scatter`) replaces that
with wave-vectorized refinement plus cache-blocked rect accumulation,
and the same core's :class:`~repro.core.scatter.PatchScatter` replaces
the per-point Python loop behind ``method="grid"`` / streaming / STKDV.

This ablation keeps *verbatim copies* of both legacy loops as live
baselines — the old ``_refine_tile`` DFS and the old accumulator scatter
loop — and times them against the new core on the identical pre-built
plan / workload, so each ratio isolates exactly the kernel-scatter core:

* dual-tree execute phase (20k events, 256x192, gaussian, tau=1e-3),
  asserted >= 5x over the legacy loop and checked against PR 4's
  recorded baseline of 3.7997 s;
* gridcut scatter (quartic — the default kernel and the finite-support
  case cutoff-scatter is built for), legacy per-point loop vs
  PatchScatter float64, asserted **bit-identical** (``np.array_equal``)
  and >= 4x faster;
* gridcut float32 kernel-table mode vs float64, asserted within the
  published ``table.max_abs_error * sum|w| + 1e-5 * max`` contract
  (the float32 mode halves surface memory; on polynomial kernels its
  table lookup is not faster than direct evaluation, and the row
  records that honestly);
* a wide-patch gridcut row (Epanechnikov, 128x96, bandwidth 5% of the
  window diagonal: the ``analyst_session`` rung the planner sends to
  ``grid``), asserted bit-identical to the legacy per-point loop; its
  time is reported, not gated.

Besides the human-readable table the run emits
``benchmarks/results/BENCH_scatter_core.json``.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, effective_radius
from repro.core.kdv.gridcut import kde_gridcut
from repro.core.kdv.dualtree import (
    _PLAN_TILE_CAP,
    _TILE_LEAF,
    _partition_tiles,
    _plan_tile,
    _refine_tile,
)
from repro.core.scatter import PatchScatter
from repro.index import KDTree

from _util import RESULTS_DIR, record

SIZE = (256, 192)
BANDWIDTH = 1.2
TAU = 1e-3
# The gridcut rows use the default quartic kernel: finite support is the
# case the cutoff-scatter primitive exists for (gaussian's 1e-12 tail
# radius covers ~90x90-pixel patches here, where both loops are already
# numpy-amortized and the comparison measures nothing).
GRIDCUT_KERNEL = "quartic"
# The wide-patch row: about 16x16-pixel windows, 20 batches per scatter.
WIDE_KERNEL = "epanechnikov"
WIDE_SIZE = (128, 96)
WIDE_FRACTION = 0.05
# Execute-phase wall time recorded by BENCH_dualtree_parallel.json at
# workers=1 when PR 4 landed (the per-pair DFS this PR replaces).
PR4_EXECUTE_SECONDS = 3.7997

ROWS: list[list] = []
TIMES: dict[str, float] = {}
CHECKS: dict[str, float | bool] = {}


# --------------------------------------------------------------------------
# Legacy baseline 1: the PR 4..6 ``_refine_tile`` DFS, verbatim.
# --------------------------------------------------------------------------


def _box_distance_bounds(tx0, tx1, ty0, ty1, nx0, nx1, ny0, ny1):
    dx_min = max(nx0 - tx1, 0.0, tx0 - nx1)
    dy_min = max(ny0 - ty1, 0.0, ty0 - ny1)
    dx_max = max(nx1 - tx0, tx1 - nx0)
    dy_max = max(ny1 - ty0, ty1 - ny0)
    return math.hypot(dx_min, dy_min), math.hypot(dx_max, dy_max)


def _legacy_refine_tile(tree, kernel, bandwidth, per_w_tol, xs, ys, tile,
                        frontier, base):
    jx0, jx1, jy0, jy1 = tile
    local = np.full((jx1 - jx0, jy1 - jy0), base, dtype=np.float64)
    b = bandwidth
    node_min = tree.node_min
    node_max = tree.node_max
    wsum = tree.node_weight_sum

    pairs = pruned = accepted = leaf_scans = points = 0
    stack = [(jx0, jx1, jy0, jy1, node) for node in reversed(frontier)]
    while stack:
        ix0, ix1, iy0, iy1, node = stack.pop()
        pairs += 1
        w_node = wsum[node]
        if w_node == 0.0:
            pruned += 1
            continue
        tx0, tx1 = xs[ix0], xs[ix1 - 1]
        ty0, ty1 = ys[iy0], ys[iy1 - 1]
        nmin = node_min[node]
        nmax = node_max[node]
        dmin, dmax = _box_distance_bounds(
            tx0, tx1, ty0, ty1, nmin[0], nmax[0], nmin[1], nmax[1]
        )
        k_hi = float(kernel.evaluate(dmin, b))
        if k_hi == 0.0:
            pruned += 1
            continue
        k_lo = float(kernel.evaluate(dmax, b))
        if k_hi - k_lo <= per_w_tol:
            local[ix0 - jx0:ix1 - jx0, iy0 - jy0:iy1 - jy0] += (
                w_node * (0.5 * (k_hi + k_lo))
            )
            accepted += 1
            continue

        tile_w = ix1 - ix0
        tile_h = iy1 - iy0
        node_is_leaf = tree.is_leaf(node)
        tile_is_leaf = tile_w <= _TILE_LEAF and tile_h <= _TILE_LEAF

        if node_is_leaf and tile_is_leaf:
            block = tree.node_points(node)
            w = tree.node_point_weights(node)
            gx = xs[ix0:ix1][:, None, None]
            gy = ys[iy0:iy1][None, :, None]
            d2 = (gx - block[:, 0][None, None, :]) ** 2 + (
                gy - block[:, 1][None, None, :]
            ) ** 2
            vals = kernel.evaluate_sq(d2, b)
            if w is not None:
                vals = vals * w[None, None, :]
            local[ix0 - jx0:ix1 - jx0, iy0 - jy0:iy1 - jy0] += vals.sum(axis=2)
            leaf_scans += 1
            points += block.shape[0]
            continue

        tile_extent = max(tx1 - tx0, ty1 - ty0)
        node_extent = float(max(nmax[0] - nmin[0], nmax[1] - nmin[1]))
        split_tile = not tile_is_leaf and (node_is_leaf or tile_extent >= node_extent)
        if split_tile:
            if tile_w >= tile_h:
                mid = (ix0 + ix1) // 2
                stack.append((ix0, mid, iy0, iy1, node))
                stack.append((mid, ix1, iy0, iy1, node))
            else:
                mid = (iy0 + iy1) // 2
                stack.append((ix0, ix1, iy0, mid, node))
                stack.append((ix0, ix1, mid, iy1, node))
        else:
            left, right = tree.children(node)
            stack.append((ix0, ix1, iy0, iy1, left))
            stack.append((ix0, ix1, iy0, iy1, right))
    return local, (pairs, pruned, accepted, leaf_scans, points)


# --------------------------------------------------------------------------
# Legacy baseline 2: the per-point gridcut scatter loop, verbatim.
# --------------------------------------------------------------------------


def _legacy_gridcut(points, bbox, size, bandwidth, kernel, tail=1e-12):
    nx, ny = size
    values = np.zeros((nx, ny), dtype=np.float64)
    xs, ys = bbox.pixel_centers(nx, ny)
    dx, dy = bbox.pixel_size(nx, ny)
    x0, y0 = xs[0], ys[0]
    radius = effective_radius(kernel, bandwidth, tail)
    r2 = radius * radius
    truncated = radius < kernel.support_radius(bandwidth)
    for row in range(points.shape[0]):
        px, py = points[row]
        ix_lo = max(int(np.ceil((px - radius - x0) / dx)), 0)
        ix_hi = min(int(np.floor((px + radius - x0) / dx)), nx - 1)
        iy_lo = max(int(np.ceil((py - radius - y0) / dy)), 0)
        iy_hi = min(int(np.floor((py + radius - y0) / dy)), ny - 1)
        if ix_lo > ix_hi or iy_lo > iy_hi:
            continue
        local_x = xs[ix_lo:ix_hi + 1] - px
        local_y = ys[iy_lo:iy_hi + 1] - py
        d2 = local_x[:, None] ** 2 + local_y[None, :] ** 2
        patch = kernel.evaluate_sq(d2, bandwidth)
        if truncated:
            patch = np.where(d2 <= r2, patch, 0.0)
        values[ix_lo:ix_hi + 1, iy_lo:iy_hi + 1] += patch
    return values


# --------------------------------------------------------------------------
# Shared pre-built plan so both execute loops time exactly the same jobs.
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def plan(crime_large):
    problem = KDVProblem(
        crime_large.points, crime_large.bbox, SIZE, BANDWIDTH, "gaussian"
    )
    tree = KDTree(problem.points, leaf_size=32)
    per_w_tol = TAU / tree.total_weight
    xs, ys = problem.pixel_centers()
    dx, dy = problem.bbox.pixel_size(*SIZE)
    jobs = []
    for tile in _partition_tiles(SIZE[0], SIZE[1], _PLAN_TILE_CAP):
        frontier, base, _, _ = _plan_tile(
            tree, problem.kernel, BANDWIDTH, per_w_tol, xs, ys, tile
        )
        if frontier:
            jobs.append((tile, frontier, base))
    return {
        "problem": problem, "tree": tree, "per_w_tol": per_w_tol,
        "xs": xs, "ys": ys, "dx": dx, "dy": dy, "jobs": jobs,
    }


def _execute(plan_dict, legacy: bool) -> np.ndarray:
    p = plan_dict
    kernel = p["problem"].kernel
    values = np.zeros(SIZE, dtype=np.float64)
    for tile, frontier, base in p["jobs"]:
        if legacy:
            local, _ = _legacy_refine_tile(
                p["tree"], kernel, BANDWIDTH, p["per_w_tol"], p["xs"], p["ys"],
                tile, frontier, base,
            )
        else:
            local, _ = _refine_tile(
                p["tree"], kernel, BANDWIDTH, p["per_w_tol"], p["xs"], p["ys"],
                p["dx"], p["dy"], tile, frontier, base,
            )
        ix0, ix1, iy0, iy1 = tile
        values[ix0:ix1, iy0:iy1] = local
    return values


# --------------------------------------------------------------------------
# Benchmarks.
# --------------------------------------------------------------------------


def test_dualtree_execute_legacy_loop(benchmark, plan):
    values = benchmark.pedantic(_execute, args=(plan, True),
                                rounds=2, iterations=1)
    TIMES["dualtree_execute_legacy"] = benchmark.stats.stats.mean
    CHECKS["legacy_surface_max"] = float(values.max())
    plan["legacy_surface"] = values


def test_dualtree_execute_scatter_core(benchmark, plan):
    values = benchmark.pedantic(_execute, args=(plan, False),
                                rounds=2, iterations=1)
    TIMES["dualtree_execute_core"] = benchmark.stats.stats.mean
    # Both loops answer the same tau-budgeted refinement, so they agree
    # to within the budget (the summation order differs, so this is a
    # tolerance check; the bit-identity contract is asserted on the
    # gridcut row below and in tests/test_scatter_core.py).
    diff = float(np.abs(values - plan["legacy_surface"]).max())
    assert diff <= TAU
    CHECKS["dualtree_max_abs_diff"] = diff


def test_gridcut_legacy_loop(benchmark, crime_large):
    problem = KDVProblem(
        crime_large.points, crime_large.bbox, SIZE, BANDWIDTH, GRIDCUT_KERNEL
    )
    values = benchmark.pedantic(
        _legacy_gridcut,
        args=(problem.points, problem.bbox, SIZE, BANDWIDTH, problem.kernel),
        rounds=2, iterations=1,
    )
    TIMES["gridcut_legacy"] = benchmark.stats.stats.mean
    CHECKS["gridcut_legacy_max"] = float(values.max())


def test_gridcut_scatter_core(benchmark, crime_large):
    problem = KDVProblem(
        crime_large.points, crime_large.bbox, SIZE, BANDWIDTH, GRIDCUT_KERNEL
    )
    grid = benchmark.pedantic(kde_gridcut, args=(problem,),
                              rounds=2, iterations=1)
    TIMES["gridcut_core_f64"] = benchmark.stats.stats.mean
    legacy = _legacy_gridcut(
        problem.points, problem.bbox, SIZE, BANDWIDTH, problem.kernel
    )
    # The float64 core replays the historical loop bit-for-bit.
    assert np.array_equal(grid.values, legacy)
    CHECKS["gridcut_bit_identical"] = True


def test_gridcut_scatter_core_float32(benchmark, crime_large):
    problem = KDVProblem(
        crime_large.points, crime_large.bbox, SIZE, BANDWIDTH, GRIDCUT_KERNEL
    )
    grid32 = benchmark.pedantic(kde_gridcut, args=(problem,),
                                kwargs=dict(dtype="float32"),
                                rounds=2, iterations=1)
    TIMES["gridcut_core_f32"] = benchmark.stats.stats.mean
    assert grid32.values.dtype == np.float32
    grid64 = kde_gridcut(problem)
    scatterer = PatchScatter(problem.bbox, SIZE, BANDWIDTH,
                             kernel=problem.kernel, dtype="float32")
    n = problem.points.shape[0]
    bound = (scatterer.table.max_abs_error * n
             + 1e-5 * float(grid64.values.max()))
    err = float(np.abs(grid32.values.astype(np.float64) - grid64.values).max())
    assert err <= bound
    CHECKS["f32_max_abs_error"] = err
    CHECKS["f32_error_bound"] = bound


def test_gridcut_wide_patch(benchmark, crime_large):
    bandwidth = WIDE_FRACTION * crime_large.bbox.diagonal
    problem = KDVProblem(
        crime_large.points, crime_large.bbox, WIDE_SIZE, bandwidth,
        WIDE_KERNEL,
    )
    grid = benchmark.pedantic(kde_gridcut, args=(problem,),
                              rounds=5, iterations=1)
    TIMES["gridcut_wide_core"] = benchmark.stats.stats.mean
    start = time.perf_counter()
    legacy = _legacy_gridcut(
        problem.points, problem.bbox, WIDE_SIZE, bandwidth, problem.kernel
    )
    TIMES["gridcut_wide_legacy"] = time.perf_counter() - start
    assert np.array_equal(grid.values, legacy)
    CHECKS["gridcut_wide_bit_identical"] = True


def test_zz_report(benchmark):
    def report():
        legacy = TIMES["dualtree_execute_legacy"]
        core = TIMES["dualtree_execute_core"]
        speedup = legacy / core
        g_legacy = TIMES["gridcut_legacy"]
        g_core = TIMES["gridcut_core_f64"]
        g_f32 = TIMES["gridcut_core_f32"]
        w_legacy = TIMES["gridcut_wide_legacy"]
        w_core = TIMES["gridcut_wide_core"]
        payload = {
            "experiment": "scatter_core",
            "n_events": 20_000,
            "grid": list(SIZE),
            "bandwidth": BANDWIDTH,
            "dualtree_kernel": "gaussian",
            "gridcut_kernel": GRIDCUT_KERNEL,
            "tau": TAU,
            "pr4_baseline_execute_seconds": PR4_EXECUTE_SECONDS,
            "results": [
                {"stage": "dualtree_execute", "variant": "legacy_loop",
                 "mean_seconds": legacy},
                {"stage": "dualtree_execute", "variant": "scatter_core",
                 "mean_seconds": core, "speedup_vs_legacy": speedup,
                 "speedup_vs_pr4_baseline": PR4_EXECUTE_SECONDS / core},
                {"stage": "gridcut", "variant": "legacy_loop",
                 "mean_seconds": g_legacy},
                {"stage": "gridcut", "variant": "scatter_core_float64",
                 "mean_seconds": g_core,
                 "speedup_vs_legacy": g_legacy / g_core,
                 "bit_identical": bool(CHECKS["gridcut_bit_identical"])},
                {"stage": "gridcut", "variant": "scatter_core_float32",
                 "mean_seconds": g_f32,
                 "speedup_vs_float64": g_core / g_f32,
                 "max_abs_error": CHECKS["f32_max_abs_error"],
                 "error_bound": CHECKS["f32_error_bound"]},
                {"stage": "gridcut_wide", "variant": "legacy_loop",
                 "kernel": WIDE_KERNEL, "grid": list(WIDE_SIZE),
                 "bandwidth_fraction_of_diagonal": WIDE_FRACTION,
                 "seconds": w_legacy},
                {"stage": "gridcut_wide", "variant": "scatter_core_float64",
                 "mean_seconds": w_core,
                 "speedup_vs_legacy": w_legacy / w_core,
                 "bit_identical": bool(CHECKS["gridcut_wide_bit_identical"])},
            ],
            "checks": {
                "dualtree_max_abs_diff_vs_legacy":
                    CHECKS["dualtree_max_abs_diff"],
                "gridcut_float64_bit_identical":
                    bool(CHECKS["gridcut_bit_identical"]),
                "gridcut_wide_float64_bit_identical":
                    bool(CHECKS["gridcut_wide_bit_identical"]),
            },
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_scatter_core.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        # The headline contract: the cache-blocked core beats the legacy
        # per-pair DFS by >= 5x on the execute phase.  The comparison is
        # algorithmic (same machine, same plan, serial both sides), so it
        # is NOT gated on core count.
        assert speedup >= 5.0
        # Same contract for the float64 gridcut row: one ordered
        # scatter-add per batch must beat the per-point loop by >= 4x.
        assert g_legacy / g_core >= 4.0
        rows = [
            ["dualtree execute", "legacy per-pair DFS",
             f"{legacy * 1e3:.0f} ms", "1.00x"],
            ["dualtree execute", "scatter core",
             f"{core * 1e3:.0f} ms", f"{speedup:.2f}x"],
            ["gridcut", "legacy per-point loop",
             f"{g_legacy * 1e3:.0f} ms", "1.00x"],
            ["gridcut", "scatter core f64 (bit-identical)",
             f"{g_core * 1e3:.0f} ms", f"{g_legacy / g_core:.2f}x"],
            ["gridcut", "scatter core f32 (bounded err)",
             f"{g_f32 * 1e3:.0f} ms", f"{g_legacy / g_f32:.2f}x"],
            ["gridcut wide", "legacy per-point loop",
             f"{w_legacy * 1e3:.0f} ms", "1.00x"],
            ["gridcut wide", "scatter core f64 (bit-identical)",
             f"{w_core * 1e3:.0f} ms", f"{w_legacy / w_core:.2f}x"],
        ]
        return record(
            "ablation_scatter_core",
            rows,
            headers=["stage", "variant", "mean time", "speedup"],
            title=(
                f"Ablation H: shared scatter core vs legacy loops, n=20000, "
                f"grid {SIZE[0]}x{SIZE[1]}, b={BANDWIDTH} (dualtree: "
                f"gaussian, tau={TAU}; gridcut: {GRIDCUT_KERNEL}; gridcut "
                f"wide: {WIDE_KERNEL}, {WIDE_SIZE[0]}x{WIDE_SIZE[1]}, b = "
                f"{WIDE_FRACTION:g} x diagonal)"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text
