"""The shared kernel-scatter core vs the legacy per-point loops.

The float64 contract is *bit-identity*: ``PatchScatter.scatter`` must
reproduce the historical per-point scatter loop (copied verbatim below
from the pre-refactor ``MultiSurfaceAccumulator._scatter``) to the last
bit, for every kernel, weighting mode, and boundary case — that is what
lets the worker-invariance and shared-STKDV equivalence contracts survive
the refactor unchanged.  The float32 contract is the published bounded
error ``|err| <= eps_rel * max + eps_abs`` with
``eps_abs = table.max_abs_error * sum|w|`` and ``eps_rel = 1e-5``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdv import KDVProblem, MultiSurfaceAccumulator, kde_dualtree, kde_grid
from repro.core.kdv.naive import kde_naive
from repro.core.kdv.base import effective_radius
from repro.core.kernels import KERNELS, build_kernel_table, get_kernel
import repro.core.scatter as scatter_core
from repro.core.scatter import (
    SCATTER_DTYPES,
    PatchScatter,
    resolve_dtype,
    scatter_line,
)
from repro.core.stkdv import stkdv
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox
from repro.stream import StreamingKDV

BBOX = BoundingBox(0.0, 0.0, 10.0, 8.0)


def legacy_scatter(values, points, weights, bbox, size, bandwidth, kernel,
                   tail=1e-12):
    """The pre-refactor per-point scatter loop, verbatim.

    This is the deleted ``MultiSurfaceAccumulator._scatter`` (the
    ``kde_gridcut`` loop was the single-surface special case of the same
    code); it is the reference the float64 mode must match bit-for-bit.
    """
    nx, ny = size
    n_surfaces = values.shape[0]
    xs, ys = bbox.pixel_centers(nx, ny)
    dx, dy = bbox.pixel_size(nx, ny)
    x0, y0 = xs[0], ys[0]
    radius = effective_radius(kernel, bandwidth, tail)
    r2 = radius * radius
    b = bandwidth
    truncated = radius < kernel.support_radius(b)
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
        patch = kernel.evaluate_sq(d2, b)
        if truncated:
            patch = np.where(d2 <= r2, patch, 0.0)
        w_row = weights[row]
        if n_surfaces == 1:
            values[0, ix_lo:ix_hi + 1, iy_lo:iy_hi + 1] += w_row[0] * patch
        else:
            for s in range(n_surfaces):
                values[s, ix_lo:ix_hi + 1, iy_lo:iy_hi + 1] += (
                    w_row[s] * patch
                )
    return values


def legacy_candidate_tiles(kdv, pts):
    """The old ``StreamingKDV._candidate_tiles`` set walk, verbatim."""
    if pts.shape[0] == 0:
        return []
    ix_lo, ix_hi, iy_lo, iy_hi = kdv._acc.scatterer.windows(pts)
    tile = kdv.ledger.tile
    found: set[tuple[int, int]] = set()
    for xlo, xhi, ylo, yhi in zip(ix_lo, ix_hi, iy_lo, iy_hi):
        if xlo > xhi or ylo > yhi:
            continue  # patch entirely outside the raster
        for tx in range(int(xlo) // tile, int(xhi) // tile + 1):
            for ty in range(int(ylo) // tile, int(yhi) // tile + 1):
                found.add((tx, ty))
    return sorted(found)


def random_points(rng, n, spread=1.4):
    """Points over the bbox plus an off-grid margin (patches may clip or miss)."""
    lo_x = BBOX.xmin - spread * (BBOX.xmax - BBOX.xmin) * 0.25
    hi_x = BBOX.xmax + spread * (BBOX.xmax - BBOX.xmin) * 0.25
    lo_y = BBOX.ymin - spread * (BBOX.ymax - BBOX.ymin) * 0.25
    hi_y = BBOX.ymax + spread * (BBOX.ymax - BBOX.ymin) * 0.25
    return np.column_stack([
        rng.uniform(lo_x, hi_x, n), rng.uniform(lo_y, hi_y, n)
    ])


class TestFloat64BitIdentity:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_every_kernel_matches_legacy_loop(self, kernel_name):
        rng = np.random.default_rng(3)
        kernel = get_kernel(kernel_name)
        size = (37, 29)
        pts = random_points(rng, 120)
        w = rng.uniform(-2.0, 2.0, (120, 1))
        ref = legacy_scatter(
            np.zeros((1, *size)), pts, w, BBOX, size, 1.3, kernel
        )
        sc = PatchScatter(BBOX, size, 1.3, kernel=kernel)
        got = np.zeros((1, *size))
        sc.scatter(got, pts, w)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_surfaces", [1, 3])
    def test_multi_surface_banks(self, n_surfaces):
        rng = np.random.default_rng(11)
        size = (24, 31)
        pts = random_points(rng, 90)
        w = rng.uniform(-1.5, 1.5, (90, n_surfaces))
        ref = legacy_scatter(
            np.zeros((n_surfaces, *size)), pts, w, BBOX, size, 0.9,
            get_kernel("quartic"),
        )
        got = np.zeros((n_surfaces, *size))
        PatchScatter(BBOX, size, 0.9).scatter(got, pts, w)
        assert np.array_equal(got, ref)

    def test_unweighted_equals_unit_weights(self):
        rng = np.random.default_rng(5)
        size = (16, 16)
        pts = random_points(rng, 60)
        sc = PatchScatter(BBOX, size, 1.1)
        unweighted = np.zeros((1, *size))
        sc.scatter(unweighted, pts)
        ones = np.zeros((1, *size))
        sc.scatter(ones, pts, np.ones(60))
        assert np.array_equal(unweighted, ones)

    def test_all_points_off_grid(self):
        pts = np.array([[1e6, 1e6], [-1e6, 0.0]])
        sc = PatchScatter(BBOX, (8, 8), 0.5)
        values = np.zeros((1, 8, 8))
        n, pix = sc.scatter(values, pts)
        assert n == 0 and pix == 0
        assert not values.any()

    def test_empty_point_set(self):
        sc = PatchScatter(BBOX, (8, 8), 0.5)
        values = np.zeros((1, 8, 8))
        assert sc.scatter(values, np.empty((0, 2))) == (0, 0)

    def test_single_pixel_grid(self):
        pts = np.array([[5.0, 4.0], [0.01, 0.01]])
        ref = legacy_scatter(
            np.zeros((1, 1, 1)), pts, np.ones((2, 1)), BBOX, (1, 1), 6.0,
            get_kernel("gaussian"),
        )
        got = np.zeros((1, 1, 1))
        PatchScatter(BBOX, (1, 1), 6.0, kernel="gaussian").scatter(
            got, pts, np.ones((2, 1))
        )
        assert np.array_equal(got, ref)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kernel_name=st.sampled_from(sorted(KERNELS)),
        bandwidth=st.floats(min_value=0.05, max_value=6.0),
        n=st.integers(min_value=0, max_value=80),
        nx=st.integers(min_value=1, max_value=40),
        ny=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_bit_identity(self, seed, kernel_name, bandwidth, n,
                                   nx, ny):
        rng = np.random.default_rng(seed)
        kernel = get_kernel(kernel_name)
        pts = random_points(rng, n)
        w = rng.uniform(-3.0, 3.0, (n, 1))
        ref = legacy_scatter(
            np.zeros((1, nx, ny)), pts, w, BBOX, (nx, ny), bandwidth, kernel
        )
        got = np.zeros((1, nx, ny))
        PatchScatter(BBOX, (nx, ny), bandwidth, kernel=kernel).scatter(
            got, pts, w
        )
        assert np.array_equal(got, ref)

    def test_kde_grid_dispatches_through_core(self):
        rng = np.random.default_rng(2)
        pts = random_points(rng, 200, spread=0.0)
        grid = kde_grid(pts, BBOX, (32, 24), 1.0, method="grid")
        ref = legacy_scatter(
            np.zeros((1, 32, 24)), pts, np.ones((pts.shape[0], 1)),
            BBOX, (32, 24), 1.0, get_kernel("quartic"),
        )
        assert np.array_equal(grid.values, ref[0])

    def test_accumulator_add_remove_round_trip(self):
        rng = np.random.default_rng(9)
        first = random_points(rng, 40, spread=0.0)
        second = random_points(rng, 25, spread=0.0)

        # From an empty surface, add+remove of the same batch is exact:
        # 0 + p is bitwise p, and p - p is bitwise 0 for every patch pixel.
        ones = np.ones((25, 1))
        empty = MultiSurfaceAccumulator(BBOX, (20, 20), 1.2)
        empty.add_weighted(second, ones).remove_weighted(second, ones)
        assert np.array_equal(empty.surface(0), np.zeros((20, 20)))

        # With prior mass the round trip only rounds in the last ulp
        # ((a + p) - p need not equal a in floats) — same behaviour as the
        # historical per-point loop, so a tight allclose is the contract.
        acc = MultiSurfaceAccumulator(BBOX, (20, 20), 1.2)
        acc.add_weighted(first, np.ones((40, 1)))
        acc.add_weighted(second, ones).remove_weighted(second, ones)
        ref = legacy_scatter(
            np.zeros((1, 20, 20)), first, np.ones((40, 1)), BBOX, (20, 20),
            1.2, get_kernel("quartic"),
        )
        np.testing.assert_allclose(acc.surface(0), ref[0], rtol=1e-12,
                                   atol=1e-12 * float(ref.max()))


    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    @pytest.mark.parametrize("n_surfaces", [1, 3])
    def test_split_batches_onto_nonzero_bank(self, monkeypatch, kernel_name,
                                             n_surfaces):
        # A tiny element budget splits the input into many batches, with
        # coincident points straddling the splits; the second, signed
        # scatter lands on a bank that already holds mass.  The bank
        # starts at -0.0, so a padding entry that wrote anything but
        # -0.0 would flip a sign bit the byte comparison sees.
        monkeypatch.setattr(scatter_core, "_BATCH_ELEMS", 37)
        rng = np.random.default_rng(31)
        kernel = get_kernel(kernel_name)
        size = (26, 21)
        pts = random_points(rng, 150)
        pts[40:60] = pts[39]
        first = rng.uniform(-2.0, 2.0, (150, n_surfaces))
        second = rng.uniform(-2.0, 2.0, (150, n_surfaces))
        ref = legacy_scatter(
            np.full((n_surfaces, *size), -0.0), pts, first, BBOX, size, 1.1,
            kernel,
        )
        ref = legacy_scatter(ref, pts[::-1], second, BBOX, size, 1.1, kernel)
        sc = PatchScatter(BBOX, size, 1.1, kernel=kernel)
        got = np.full((n_surfaces, *size), -0.0)
        sc.scatter(got, pts, first)
        sc.scatter(got, pts[::-1], second)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_float32_unchanged_by_batch_split(self, monkeypatch, weighted):
        rng = np.random.default_rng(8)
        size = (90, 70)
        pts = random_points(rng, 400)
        pts[100:130] = pts[99]
        w = rng.uniform(-2.0, 2.0, (400, 2)) if weighted else None
        sc = PatchScatter(BBOX, size, 0.7, kernel="epanechnikov",
                          dtype="float32")
        whole = np.full((2, *size), 0.25, dtype=np.float32)
        sc.scatter(whole, pts, w)
        monkeypatch.setattr(scatter_core, "_BATCH_ELEMS", 50)
        split = np.full((2, *size), 0.25, dtype=np.float32)
        sc.scatter(split, pts, w)
        assert np.array_equal(split, whole)

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_tiles_match_set_walk(self, seed):
        rng = np.random.default_rng(seed)
        size = (int(rng.integers(1, 90)), int(rng.integers(1, 90)))
        kdv = StreamingKDV(BBOX, size, float(rng.uniform(0.05, 3.0)),
                           tile=int(rng.integers(1, 40)))
        # spread=3 puts many patches off the raster or clipped at its edge.
        sc, tile = kdv.accumulator.scatterer, kdv.ledger.tile
        for n in (0, 1, 7, 300):
            pts = random_points(rng, n, spread=3.0)
            assert sc.window_tiles(pts, tile) == legacy_candidate_tiles(kdv, pts)
        off = np.array([[1e6, 1e6], [-1e6, 4.0]])
        assert sc.window_tiles(off, tile) == [] == legacy_candidate_tiles(kdv, off)


class TestFloat32BoundedError:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_within_published_bound(self, kernel_name):
        rng = np.random.default_rng(17)
        size = (48, 40)
        n = 400
        pts = random_points(rng, n, spread=0.5)
        w = rng.uniform(0.1, 2.0, (n, 1))
        exact = np.zeros((1, *size))
        PatchScatter(BBOX, size, 1.5, kernel=kernel_name).scatter(
            exact, pts, w
        )
        sc32 = PatchScatter(BBOX, size, 1.5, kernel=kernel_name,
                            dtype="float32")
        got = np.zeros((1, *size), dtype=np.float32)
        sc32.scatter(got, pts, w)
        eps_abs = sc32.table.max_abs_error * np.abs(w).sum()
        eps_rel = 1e-5
        bound = eps_rel * np.abs(exact).max() + eps_abs
        assert np.abs(got.astype(np.float64) - exact).max() <= bound

    def test_same_pixels_covered_as_float64(self):
        # Truncation decisions run in float64 in both modes, so the
        # nonzero masks agree even at the support boundary.
        rng = np.random.default_rng(23)
        pts = random_points(rng, 150, spread=0.3)
        size = (40, 40)
        exact = np.zeros((1, *size))
        PatchScatter(BBOX, size, 0.8, kernel="uniform").scatter(exact, pts)
        got = np.zeros((1, *size), dtype=np.float32)
        PatchScatter(BBOX, size, 0.8, kernel="uniform",
                     dtype="float32").scatter(got, pts)
        assert np.array_equal(exact[0] != 0.0, got[0] != 0.0)

    def test_counters_and_result_dtype_via_kde_grid(self):
        rng = np.random.default_rng(4)
        pts = random_points(rng, 100, spread=0.0)
        grid32 = kde_grid(pts, BBOX, (32, 24), 1.0, method="grid",
                          dtype="float32")
        grid64 = kde_grid(pts, BBOX, (32, 24), 1.0, method="grid")
        assert grid32.values.dtype == np.float32
        assert np.abs(
            grid32.values.astype(np.float64) - grid64.values
        ).max() <= 1e-5 * grid64.values.max() + 1e-3

    def test_table_certified_bound_holds_on_probe(self):
        for name in sorted(KERNELS):
            kernel = get_kernel(name)
            b = 1.7
            cutoff = effective_radius(kernel, b)
            table = build_kernel_table(kernel, b, cutoff=cutoff)
            d = np.linspace(0.0, cutoff, 4001)
            exact = kernel.evaluate_sq(d * d, b)
            approx = table.lookup_sq_clipped((d * d).astype(np.float32))
            err = np.abs(approx.astype(np.float64) - exact).max()
            assert err <= table.max_abs_error, name


class TestScatterLine:
    def test_matches_legacy_expression(self):
        rng = np.random.default_rng(7)
        kernel = get_kernel("quartic")
        d = rng.uniform(0.0, 3.0, 200)
        cutoff, b, w = 1.5, 1.2, 0.7
        ref = np.zeros(200)
        near = d <= cutoff
        ref[near] += w * kernel.evaluate(d[near], b)
        got = np.zeros(200)
        hits = scatter_line(got, d, kernel, b, cutoff, weight=w)
        assert hits == int(near.sum())
        assert np.array_equal(got, ref)

    def test_split_factors_match_legacy_expression(self):
        rng = np.random.default_rng(8)
        kernel = get_kernel("epanechnikov")
        d = rng.uniform(0.0, 3.0, 150)
        f = rng.choice([0.0, 0.25, 0.5, 1.0], 150)
        cutoff, b, w = 2.0, 1.4, 1.3
        ref = np.zeros(150)
        near = (d <= cutoff) & (f > 0.0)
        ref[near] += w * f[near] * kernel.evaluate(d[near], b)
        got = np.zeros(150)
        hits = scatter_line(got, d, kernel, b, cutoff, weight=w, factors=f)
        assert hits == int(near.sum())
        assert np.array_equal(got, ref)

    def test_no_hits_returns_zero(self):
        got = np.zeros(10)
        assert scatter_line(got, np.full(10, 5.0), get_kernel("quartic"),
                            1.0, 1.0) == 0
        assert not got.any()


class TestNaiveBoundaryRegression:
    def test_expanded_form_boundary_pixel_bug(self):
        # Hand-mined case: pixel (4, 4) of this grid sits at true squared
        # distance 0.999999999999992 from the point — inside the uniform
        # kernel's support — but the old expanded form |q|^2+|p|^2-2*q.p
        # computed 1.000000000007276 and dropped the pixel entirely.
        bbox = BoundingBox(100.0, 100.0, 108.0, 108.0)
        pts = np.array([[103.70139633448224, 105.101857279944]])
        xs, ys = bbox.pixel_centers(8, 8)
        d2_true = (xs[4] - pts[0, 0]) ** 2 + (ys[4] - pts[0, 1]) ** 2
        d2_expanded = max(
            (xs[4] ** 2 + ys[4] ** 2)
            + (pts[0, 0] ** 2 + pts[0, 1] ** 2)
            - 2.0 * (xs[4] * pts[0, 0] + ys[4] * pts[0, 1]),
            0.0,
        )
        assert d2_true <= 1.0 < d2_expanded  # the case still bites
        kernel = get_kernel("uniform")
        problem = KDVProblem(pts, bbox, (8, 8), 1.0, kernel)
        grid = kde_naive(problem)
        expected = kernel.evaluate_sq(np.array([d2_true]), 1.0)[0]
        assert grid.values[4, 4] == expected
        assert expected > 0.0

    @pytest.mark.parametrize("workers", [pytest.param(1, id="naive"),
                                         pytest.param(2, id="parallel")])
    def test_boundary_matches_gridcut(self, workers):
        # The scatter backend always used difference-form distances; after
        # the fix the brute-force gather agrees with it bit-for-bit on
        # finite-support kernels, serially and over worker bands.
        bbox = BoundingBox(100.0, 100.0, 108.0, 108.0)
        rng = np.random.default_rng(31)
        pts = 100.0 + rng.uniform(0.0, 8.0, (60, 2))
        ref = kde_grid(pts, bbox, (16, 12), 1.0, kernel="uniform",
                       method="grid")
        got = kde_grid(pts, bbox, (16, 12), 1.0, kernel="uniform",
                       method="naive", workers=workers)
        assert np.array_equal(got.values, ref.values)


class TestDualTreeThroughCore:
    def test_workers_bit_identical_through_new_core(self):
        rng = np.random.default_rng(12)
        pts = random_points(rng, 3000, spread=0.0)
        problem = KDVProblem(pts, BBOX, (96, 72), 0.7, "gaussian")
        serial = kde_dualtree(problem, tau=1e-3, workers=1, backend="serial")
        threaded = kde_dualtree(problem, tau=1e-3, workers=2, backend="thread")
        assert np.array_equal(serial.values, threaded.values)

    def test_tau_zero_matches_naive_through_core(self):
        rng = np.random.default_rng(13)
        pts = random_points(rng, 500, spread=0.0)
        problem = KDVProblem(pts, BBOX, (48, 36), 0.9, "gaussian")
        exact = kde_dualtree(problem, tau=0.0).values
        ref = kde_naive(problem).values
        assert np.abs(exact - ref).max() <= 1e-12 * ref.max()

    def test_weighted_leaf_batch_unit_weights_exact(self):
        rng = np.random.default_rng(14)
        pts = random_points(rng, 800, spread=0.0)
        p1 = KDVProblem(pts, BBOX, (64, 48), 0.8, "quartic")
        p2 = KDVProblem(pts, BBOX, (64, 48), 0.8, "quartic",
                        weights=np.ones(800))
        a = kde_dualtree(p1, tau=0.0).values
        b = kde_dualtree(p2, tau=0.0).values
        assert np.array_equal(a, b)


class TestDtypePlumbing:
    def test_resolve_dtype_accepts_documented_spellings(self):
        assert resolve_dtype(None) == np.dtype(np.float64)
        for name in SCATTER_DTYPES:
            assert resolve_dtype(name) in (
                np.dtype(np.float32), np.dtype(np.float64)
            )

    @pytest.mark.parametrize("bad", ["float16", "int32", object()])
    def test_resolve_dtype_rejects_others(self, bad):
        with pytest.raises(ParameterError):
            resolve_dtype(bad)

    def test_kde_grid_rejects_dtype_on_other_methods(self):
        pts = np.array([[5.0, 4.0]])
        with pytest.raises(ParameterError, match="dtype"):
            kde_grid(pts, BBOX, (8, 8), 1.0, method="naive", dtype="float32")

    def test_stkdv_window_float32(self):
        rng = np.random.default_rng(19)
        pts = random_points(rng, 200, spread=0.0)
        times = rng.uniform(0.0, 10.0, 200)
        frames = np.linspace(0.0, 10.0, 4)
        r64 = stkdv(pts, times, BBOX, (24, 20), frames, 1.0, 2.0,
                    method="window", spatial_method="grid")
        r32 = stkdv(pts, times, BBOX, (24, 20), frames, 1.0, 2.0,
                    method="window", dtype="float32")
        assert r32.values.dtype == np.float32
        scale = max(r64.values.max(), 1.0)
        assert np.abs(
            r32.values.astype(np.float64) - r64.values
        ).max() <= 1e-4 * scale

    def test_stkdv_shared_float32(self):
        rng = np.random.default_rng(20)
        pts = random_points(rng, 150, spread=0.0)
        times = rng.uniform(0.0, 10.0, 150)
        frames = np.linspace(0.0, 10.0, 5)
        r64 = stkdv(pts, times, BBOX, (20, 16), frames, 1.0, 2.5,
                    method="shared")
        r32 = stkdv(pts, times, BBOX, (20, 16), frames, 1.0, 2.5,
                    method="shared", dtype="float32")
        assert r32.values.dtype == np.float32
        scale = max(r64.values.max(), 1.0)
        assert np.abs(
            r32.values.astype(np.float64) - r64.values
        ).max() <= 1e-3 * scale

    def test_stkdv_rejects_float32_naive_and_sweep(self):
        pts = np.array([[5.0, 4.0]])
        times = np.array([0.0])
        with pytest.raises(ParameterError, match="float32"):
            stkdv(pts, times, BBOX, (8, 8), [0.0], 1.0, 1.0,
                  method="naive", dtype="float32")
        with pytest.raises(ParameterError, match="float32"):
            stkdv(pts, times, BBOX, (8, 8), [0.0], 1.0, 1.0,
                  method="window", spatial_method="sweep", dtype="float32")


class TestClip:
    """``scatter(clip=...)`` writes the clip's pixels as the full scatter does.

    The target covers exactly the clip rectangle, and each of its pixels
    ends bit-identical to the same pixel of an unclipped scatter onto the
    same starting values, down to the sign of a zero.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kernel_name=st.sampled_from(sorted(KERNELS)),
        bandwidth=st.floats(min_value=0.05, max_value=4.0),
        n=st.integers(min_value=0, max_value=60),
        nx=st.integers(min_value=1, max_value=150),
        ny=st.integers(min_value=1, max_value=150),
        weighting=st.sampled_from(["unweighted", "signed", "multi"]),
        dtype=st.sampled_from(["float64", "float32"]),
        corners=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_clipped_pixels_equal_full_scatter(
        self, seed, kernel_name, bandwidth, n, nx, ny, weighting, dtype,
        corners,
    ):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, n)
        n_surfaces = 3 if weighting == "multi" else 1
        weights = {
            "unweighted": None,
            "signed": rng.uniform(-3.0, 3.0, n),
            "multi": rng.uniform(-3.0, 3.0, (n, n_surfaces)),
        }[weighting]
        a, b, c, d = corners
        x0, x1 = sorted((int(a * nx), int(b * nx)))
        y0, y1 = sorted((int(c * ny), int(d * ny)))
        sc = PatchScatter(BBOX, (nx, ny), bandwidth, kernel=kernel_name,
                          dtype=dtype)
        start = rng.uniform(-1.0, 1.0, (n_surfaces, nx, ny)).astype(dtype)
        start[:, ::3] = -0.0  # zeros of either sign must survive untouched
        start[:, 1::3] = 0.0
        full = start.copy()
        sc.scatter(full, pts, weights)
        clipped = start[:, x0:x1, y0:y1].copy()
        sc.scatter(clipped, pts, weights, clip=(x0, x1, y0, y1))
        for s in range(n_surfaces):
            assert clipped[s].tobytes() == full[s, x0:x1, y0:y1].tobytes()

    def test_float32_bucket_order_survives_the_clip(self):
        """Points from several buckets sum in the unclipped bucket order."""
        rng = np.random.default_rng(4)
        size = (300, 260)   # several 64-pixel buckets on each axis
        pts = random_points(rng, 3000, spread=0.0)
        sc = PatchScatter(BBOX, size, 0.9, dtype="float32")
        full = np.zeros(size, dtype=np.float32)
        sc.scatter(full, pts)
        for clip in [(60, 70, 0, 260), (0, 300, 120, 140), (63, 129, 64, 65)]:
            x0, x1, y0, y1 = clip
            part = np.zeros((x1 - x0, y1 - y0), dtype=np.float32)
            scattered, _ = sc.scatter(part, pts, clip=clip)
            assert scattered > 0
            assert part.tobytes() == full[x0:x1, y0:y1].tobytes()

    def test_rejects_clip_outside_the_raster(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        for clip in [(0, 9, 0, 8), (-1, 4, 0, 8), (5, 4, 0, 8), (0, 8, 3, 2)]:
            with pytest.raises(ParameterError, match="clip"):
                sc.scatter(np.zeros((8, 8)), np.array([[1.0, 1.0]]), clip=clip)

    def test_rejects_values_not_shaped_like_the_clip(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        with pytest.raises(ParameterError, match=r"\(\.\.\., 3, 8\)"):
            sc.scatter(np.zeros((8, 8)), np.array([[1.0, 1.0]]),
                       clip=(2, 5, 0, 8))

    def test_empty_clip_scatters_nothing(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        values = np.zeros((0, 8))
        assert sc.scatter(values, np.array([[5.0, 4.0]]), clip=(3, 3, 0, 8)) == (0, 0)


class TestPatchScatterValidation:
    def test_rejects_bad_points_shape(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        with pytest.raises(ParameterError):
            sc.scatter(np.zeros((1, 8, 8)), np.zeros((3, 3)))

    def test_rejects_mismatched_values(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        with pytest.raises(ParameterError):
            sc.scatter(np.zeros((1, 4, 4)), np.zeros((1, 2)))

    def test_rejects_mismatched_weights(self):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        with pytest.raises(ParameterError):
            sc.scatter(np.zeros((2, 8, 8)), np.zeros((3, 2)),
                       np.ones((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        values = np.zeros((1, 8, 8))
        with pytest.raises(DataError):
            sc.scatter(values, np.array([[1.0, 1.0], [bad, 2.0]]))
        assert not values.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        sc = PatchScatter(BBOX, (8, 8), 1.0)
        values = np.zeros((1, 8, 8))
        with pytest.raises(DataError):
            sc.scatter(values, np.array([[1.0, 1.0], [3.0, 2.0]]),
                       np.array([1.0, bad]))
        assert not values.any()

    @pytest.mark.parametrize("view", ["surface_stride", "row_stride",
                                      "transposed"])
    def test_strided_values_accumulate_in_place(self, view):
        rng = np.random.default_rng(12)
        size = (20, 16)
        pts = random_points(rng, 80)
        w = rng.uniform(-1.0, 1.0, (80, 2))
        sc = PatchScatter(BBOX, size, 1.2)
        expected = np.zeros((2, *size))
        sc.scatter(expected, pts, w)
        if view == "surface_stride":
            parent = np.zeros((4, *size))
            values, rest = parent[::2], parent[1::2]
        elif view == "row_stride":
            parent = np.zeros((2, 2 * size[0], size[1]))
            values, rest = parent[:, ::2], parent[:, 1::2]
        else:
            parent = np.zeros((2, size[1], size[0]))
            values, rest = parent.transpose(0, 2, 1), parent[:0]
        sc.scatter(values, pts, w)
        assert np.array_equal(values, expected)
        assert not rest.any()  # nothing outside the view was written

    def test_truncated_hoisted_into_init(self):
        assert PatchScatter(BBOX, (8, 8), 1.0, kernel="gaussian").truncated
        assert not PatchScatter(BBOX, (8, 8), 1.0, kernel="quartic").truncated


class TestWorkspace:
    """One workspace per call: clamped padding indices, bounded memory."""

    @pytest.mark.parametrize("kernel_name", ["quartic", "gaussian"])
    @pytest.mark.parametrize("dtype", SCATTER_DTYPES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_padding_keeps_negative_zero_where_no_window_reaches(
        self, monkeypatch, kernel_name, dtype, weighted
    ):
        # Small batches of windows cut at the raster's right and top
        # edges: their padding runs past the raster, and the clamped
        # indices land on pixels no window reaches, which must keep the
        # sign bit of their -0.0.
        monkeypatch.setattr(scatter_core, "_BATCH_ELEMS", 300)
        size = (40, 32)
        sc = PatchScatter(BBOX, size, 0.6, kernel=kernel_name, dtype=dtype)
        rng = np.random.default_rng(8)
        pts = np.vstack([
            np.column_stack([rng.uniform(1, 4, 30), rng.uniform(1, 3, 30)]),
            np.column_stack([rng.uniform(9.5, 10, 10), rng.uniform(1, 3, 10)]),
            np.column_stack([rng.uniform(1, 3, 10), rng.uniform(7.5, 8, 10)]),
        ])
        w = rng.uniform(-1.0, 1.0, pts.shape[0]) if weighted else None
        values = np.full(size, -0.0, dtype=dtype)
        sc.scatter(values, pts, w)
        reached = np.zeros(size, dtype=bool)
        for xlo, xhi, ylo, yhi in zip(*sc.windows(pts)):
            reached[xlo:xhi + 1, ylo:yhi + 1] = True
        assert not reached[-1, -1] and reached.any()
        assert (values[~reached] == 0.0).all()
        assert np.signbit(values[~reached]).all()

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_peak_memory_is_a_few_batch_buffers(self, kernel_name, weighted):
        import tracemalloc

        # 3,000 points whose windows are about 30x30 pixels: 11 batches.
        # The workspace holds two batch buffers (distances, which the
        # kernel overwrites, and flat indices) plus one with weights; the
        # bound leaves one buffer of headroom for everything else.
        bbox = BoundingBox(0.0, 0.0, 64.0, 48.0)
        size = (128, 96)
        reach = PatchScatter(bbox, size, 1.0, kernel=kernel_name).radius
        sc = PatchScatter(bbox, size, 7.5 / reach, kernel=kernel_name)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 64, 3000),
                               rng.uniform(0, 48, 3000)])
        w = rng.uniform(0.5, 1.5, 3000) if weighted else None
        windows = sc.windows(pts)
        pq = int((windows[1] - windows[0]).max() + 1) * int(
            (windows[3] - windows[2]).max() + 1)
        assert 3000 / max(1, scatter_core._BATCH_ELEMS // pq) >= 10
        values = np.zeros(size)
        tracemalloc.start()
        try:
            sc.scatter(values, pts, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = 8 * scatter_core._BATCH_ELEMS
        assert peak < (3 + weighted) * buffer
