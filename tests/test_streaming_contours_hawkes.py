"""Tests for the streaming accumulator, contour extraction, and Hawkes data."""

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, MultiSurfaceAccumulator, kde_grid
from repro.core.kdv.gridcut import kde_gridcut
from repro.data import hawkes_st
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox
from repro.raster import DensityGrid, contour_polylines, contour_segments


def _acc(bbox, size, bandwidth, **kwargs):
    """A single-surface accumulator: the substrate of ``StreamingKDV``."""
    return MultiSurfaceAccumulator(bbox, size, bandwidth, n_surfaces=1, **kwargs)


def _add(acc, points):
    """Insert ``points`` with unit weight (returns ``acc`` for chaining)."""
    return acc.add_weighted(points, np.ones((len(points), 1)))


def _remove(acc, points):
    """Remove previously-inserted unit-weight ``points``."""
    return acc.remove_weighted(points, np.ones((len(points), 1)))


def _grid(acc):
    """Surface 0 clipped at zero, as a ``DensityGrid``."""
    return DensityGrid(acc.bbox, np.maximum(acc.surface(0), 0.0))


class TestKDVAccumulator:
    """Unit-weight add/remove on one surface, as ``StreamingKDV`` drives it."""

    SIZE = (24, 16)

    def test_add_matches_batch(self, clustered_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.5)
        _add(acc, clustered_points)
        batch = kde_gridcut(KDVProblem(clustered_points, bbox, self.SIZE, 1.5, "quartic"))
        assert _grid(acc).max_abs_difference(batch) < 1e-10 * max(batch.max, 1.0)

    def test_incremental_adds_match(self, clustered_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.5)
        half = clustered_points.shape[0] // 2
        _add(_add(acc, clustered_points[:half]), clustered_points[half:])
        batch = kde_gridcut(KDVProblem(clustered_points, bbox, self.SIZE, 1.5, "quartic"))
        assert _grid(acc).max_abs_difference(batch) < 1e-9 * max(batch.max, 1.0)

    def test_remove_undoes_add(self, clustered_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.5)
        keep = clustered_points[:300]
        extra = clustered_points[300:]
        _add(acc, clustered_points)
        _remove(acc, extra)
        batch = kde_gridcut(KDVProblem(keep, bbox, self.SIZE, 1.5, "quartic"))
        assert _grid(acc).max_abs_difference(batch) < 1e-8 * max(batch.max, 1.0)
        assert acc.n_points == 300

    def test_sliding_window_equivalence(self, bbox, rng):
        """Window [t-w, t] maintained by add/remove equals the batch KDV."""
        pts = bbox.sample_uniform(200, rng)
        acc = _acc(bbox, self.SIZE, 2.0, kernel="epanechnikov")
        _add(acc, pts[:120])
        _remove(acc, pts[:40])
        _add(acc, pts[120:])
        window = pts[40:]
        batch = kde_gridcut(
            KDVProblem(window, bbox, self.SIZE, 2.0, "epanechnikov")
        )
        assert _grid(acc).max_abs_difference(batch) < 1e-9 * max(batch.max, 1.0)

    def test_remove_to_empty_is_clean(self, small_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.0)
        _remove(_add(acc, small_points), small_points)
        assert acc.n_points == 0
        assert _grid(acc).max == 0.0

    def test_cannot_remove_more_than_present(self, small_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.0)
        _add(acc, small_points[:5])
        with pytest.raises(ParameterError, match="remove"):
            _remove(acc, small_points)

    def test_grid_is_copy(self, small_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.0)
        _add(acc, small_points)
        before = acc.surface(0)
        kept = before.copy()
        _add(acc, small_points)
        np.testing.assert_array_equal(before, kept)
        assert acc.surface(0).sum() > before.sum()
        before[:] = 0.0
        assert acc.surface(0).sum() > kept.sum()

    def test_gaussian_kernel_supported(self, small_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.0, kernel="gaussian")
        _add(acc, small_points)
        assert _grid(acc).max > 0


class TestMultiSurfaceAccumulator:
    SIZE = (24, 16)

    def test_each_surface_matches_weighted_batch(self, clustered_points, bbox, rng):
        """Surface s equals a from-scratch weighted KDV with column s."""
        w = rng.uniform(0.1, 2.0, size=(clustered_points.shape[0], 3))
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.5, n_surfaces=3)
        acc.add_weighted(clustered_points, w)
        for s in range(3):
            batch = kde_gridcut(
                KDVProblem(clustered_points, bbox, self.SIZE, 1.5, "quartic",
                           weights=w[:, s])
            )
            err = np.abs(acc.surface(s) - batch.values).max()
            assert err < 1e-9 * max(np.abs(batch.values).max(), 1.0)

    def test_remove_weighted_undoes_add(self, clustered_points, bbox, rng):
        w = rng.uniform(0.5, 2.0, size=(clustered_points.shape[0], 2))
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.5, n_surfaces=2)
        acc.add_weighted(clustered_points, w)
        acc.remove_weighted(clustered_points, w)
        assert acc.n_points == 0
        assert np.all(acc.surface(0) == 0.0)
        assert np.all(acc.surface(1) == 0.0)

    def test_combine_is_linear(self, small_points, bbox, rng):
        w = rng.uniform(-1.0, 1.0, size=(small_points.shape[0], 2))
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.5, n_surfaces=2)
        acc.add_weighted(small_points, w)
        combo = acc.combine([2.0, -0.5])
        np.testing.assert_allclose(
            combo, 2.0 * acc.surface(0) - 0.5 * acc.surface(1), atol=1e-12
        )

    def test_recombine_applies_linear_map(self, small_points, bbox, rng):
        w = rng.uniform(-1.0, 1.0, size=(small_points.shape[0], 2))
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.5, n_surfaces=2)
        acc.add_weighted(small_points, w)
        s0, s1 = acc.surface(0), acc.surface(1)
        acc.recombine([[1.0, 2.0], [0.0, -1.0]])
        np.testing.assert_allclose(acc.surface(0), s0 + 2.0 * s1, atol=1e-12)
        np.testing.assert_allclose(acc.surface(1), -s1, atol=1e-12)

    def test_surface_is_copy(self, small_points, bbox):
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.0)
        acc.add_weighted(small_points, np.ones((small_points.shape[0], 1)))
        snap = acc.surface(0)
        acc.add_weighted(small_points, np.ones((small_points.shape[0], 1)))
        assert acc.surface(0).sum() > snap.sum()

    def test_shape_and_index_validation(self, small_points, bbox):
        acc = MultiSurfaceAccumulator(bbox, self.SIZE, 1.0, n_surfaces=2)
        with pytest.raises(DataError, match="weights"):
            acc.scatter(small_points, np.ones((small_points.shape[0], 3)))
        with pytest.raises(DataError, match="non-finite"):
            acc.scatter(small_points,
                        np.full((small_points.shape[0], 2), np.nan))
        with pytest.raises(ParameterError, match="surface index"):
            acc.surface(2)
        with pytest.raises(ParameterError, match="n_surfaces"):
            MultiSurfaceAccumulator(bbox, self.SIZE, 1.0, n_surfaces=0)

    def test_reset(self, small_points, bbox):
        acc = _acc(bbox, self.SIZE, 1.0)
        _add(acc, small_points).reset()
        assert acc.n_points == 0
        assert _grid(acc).max == 0.0


class TestDriftRegression:
    """Cancellation-drift contract: thousands of add/remove cycles stay
    within the published ``drift_tolerance`` of a fresh scatter, for both
    accuracy modes, and ``reset`` restarts the drift clock entirely."""

    SIZE = (32, 24)

    def _churn(self, bbox, dtype, cycles, batch=16, window=160):
        rng = np.random.default_rng(99)
        pts = rng.uniform([bbox.xmin, bbox.ymin], [bbox.xmax, bbox.ymax],
                          size=(window + cycles * batch, 2))
        acc = _acc(bbox, self.SIZE, 1.5, dtype=dtype)
        _add(acc, pts[:window])
        lo = 0
        for c in range(cycles):
            hi = window + c * batch
            _add(acc, pts[hi:hi + batch])
            _remove(acc, pts[lo:lo + batch])
            lo += batch
        live = pts[lo:window + cycles * batch]
        return acc, live

    def test_f64_drift_within_published_tolerance(self, bbox):
        acc, live = self._churn(bbox, np.float64, cycles=2000)
        assert acc.n_points == live.shape[0]
        fresh = kde_grid(live, bbox, self.SIZE, 1.5, method="grid").values
        diff = np.abs(acc.surface(0) - fresh).max()
        assert diff <= acc.drift_tolerance
        # The bound is meaningful, not vacuous: it certifies real digits.
        assert acc.drift_tolerance < 1e-6 * max(fresh.max(), 1.0)

    def test_f32_drift_within_published_tolerance(self, bbox):
        acc, live = self._churn(bbox, np.float32, cycles=2000)
        fresh = kde_grid(live, bbox, self.SIZE, 1.5, method="grid",
                         dtype=np.float32).values
        diff = np.abs(
            acc.surface(0).astype(np.float64)
            - fresh.astype(np.float64)
        ).max()
        assert diff <= acc.drift_tolerance

    def test_gross_net_accounting(self, bbox, small_points):
        acc = _acc(bbox, self.SIZE, 1.5)
        n = small_points.shape[0]
        _add(acc, small_points)
        assert acc.gross_weight == pytest.approx(n)
        assert acc.net_weight == pytest.approx(n)
        assert acc.drift_ratio == pytest.approx(n / max(n, 1.0))
        _remove(acc, small_points[: n // 2])
        assert acc.gross_weight == pytest.approx(n + n // 2)
        assert acc.net_weight == pytest.approx(n - n // 2)
        assert acc.drift_ratio > 1.0

    def test_reset_clears_all_state(self, bbox, small_points):
        acc = _acc(bbox, self.SIZE, 1.5)
        _remove(_add(acc, small_points), small_points[:3])
        acc.reset()
        assert acc.n_points == 0
        assert acc.gross_weight == 0.0
        assert acc.net_weight == 0.0
        assert acc.drift_ratio == 0.0
        assert np.all(acc.surface(0) == 0.0)

    def test_rescatter_restarts_drift_clock(self, bbox):
        acc, live = self._churn(bbox, np.float64, cycles=200)
        assert acc.drift_ratio > 2.0
        tol_before = acc.drift_tolerance
        acc.rescatter(live, np.ones((live.shape[0], 1)))
        assert acc.n_points == live.shape[0]
        assert acc.drift_ratio == pytest.approx(1.0)
        assert acc.drift_tolerance < tol_before
        fresh = kde_grid(live, bbox, self.SIZE, 1.5, method="grid").values
        np.testing.assert_array_equal(acc.surface(0), fresh)

    def test_rescatter_validates_weights(self, bbox, small_points):
        acc = _acc(bbox, self.SIZE, 1.5)
        with pytest.raises(DataError, match="weights"):
            acc.rescatter(small_points, np.ones((small_points.shape[0], 2)))
        with pytest.raises(DataError, match="non-finite"):
            acc.rescatter(small_points,
                          np.full((small_points.shape[0], 1), np.inf))

    def test_f32_tolerance_includes_table_term(self, bbox):
        f64 = _acc(bbox, self.SIZE, 1.5)
        f32 = _acc(bbox, self.SIZE, 1.5, dtype=np.float32)
        pts = np.full((10, 2), 5.0)
        _add(f64, pts)
        _add(f32, pts)
        assert f32.drift_tolerance > f64.drift_tolerance


class TestContours:
    @pytest.fixture()
    def cone_grid(self):
        """A radial cone: iso-contours are circles of known radius."""
        bbox = BoundingBox(-5.0, -5.0, 5.0, 5.0)
        xs, ys = bbox.pixel_centers(80, 80)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        values = np.maximum(5.0 - np.sqrt(gx ** 2 + gy ** 2), 0.0)
        return DensityGrid(bbox, values)

    def test_circle_contour_radius(self, cone_grid):
        # Level 3 -> circle of radius 2 centred at the origin.
        segs = contour_segments(cone_grid, 3.0)
        assert segs.shape[0] > 0
        radii = np.sqrt((segs.reshape(-1, 2) ** 2).sum(axis=1))
        np.testing.assert_allclose(radii, 2.0, atol=0.15)

    def test_polylines_close_the_circle(self, cone_grid):
        polylines = contour_polylines(cone_grid, 3.0)
        assert len(polylines) == 1
        line = polylines[0]
        # Closed: endpoints coincide (within the chaining tolerance).
        assert np.allclose(line[0], line[-1], atol=1e-6)
        # The polyline visits all quadrants.
        assert (line[:, 0] > 0).any() and (line[:, 0] < 0).any()
        assert (line[:, 1] > 0).any() and (line[:, 1] < 0).any()

    def test_level_above_max_empty(self, cone_grid):
        assert contour_segments(cone_grid, 99.0).shape[0] == 0
        assert contour_polylines(cone_grid, 99.0) == []

    def test_two_peaks_two_contours(self):
        bbox = BoundingBox(0.0, 0.0, 20.0, 10.0)
        xs, ys = bbox.pixel_centers(80, 40)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        values = np.exp(-((gx - 5) ** 2 + (gy - 5) ** 2)) + np.exp(
            -((gx - 15) ** 2 + (gy - 5) ** 2)
        )
        grid = DensityGrid(bbox, values)
        polylines = contour_polylines(grid, 0.5)
        assert len(polylines) == 2

    def test_tiny_grid_rejected(self, bbox):
        grid = DensityGrid(bbox, np.zeros((1, 5)))
        with pytest.raises(ParameterError):
            contour_segments(grid, 0.5)


class TestHawkes:
    BBOX = BoundingBox(0.0, 0.0, 10.0, 10.0)

    def test_basic_output(self):
        pts, times = hawkes_st(self.BBOX, horizon=50.0, mu=0.05, seed=1)
        assert pts.shape[0] == times.shape[0]
        assert pts.shape[0] > 0
        assert (np.diff(times) >= 0).all()
        assert self.BBOX.contains(pts).all()
        assert times.max() < 50.0

    def test_branching_increases_count(self):
        quiet = hawkes_st(self.BBOX, 50.0, mu=0.05, alpha=0.0, seed=2)[0].shape[0]
        counts = [
            hawkes_st(self.BBOX, 50.0, mu=0.05, alpha=0.7, seed=s)[0].shape[0]
            for s in range(3, 9)
        ]
        # Branching ratio 0.7 multiplies the count by ~1/(1-0.7) ~ 3.3.
        assert np.mean(counts) > 1.8 * quiet

    def test_space_time_interaction(self):
        """Permuting times must destroy the clustering Hawkes creates."""
        from repro.core.kfunction import st_k_function_plot

        pts, times = hawkes_st(
            self.BBOX, 100.0, mu=0.03, alpha=0.7, beta=0.5, sigma=0.3, seed=10
        )
        plot = st_k_function_plot(
            pts, times, self.BBOX,
            s_thresholds=[0.5, 1.0], t_thresholds=[2.0, 5.0],
            n_simulations=19, null="permute", seed=11,
        )
        assert plot.clustered_mask().any()

    def test_supercritical_rejected(self):
        with pytest.raises(ParameterError, match="subcritical"):
            hawkes_st(self.BBOX, 10.0, mu=0.1, alpha=1.2)

    def test_event_cap(self):
        with pytest.raises(ParameterError, match="max_events"):
            hawkes_st(self.BBOX, 100.0, mu=5.0, alpha=0.9, seed=1, max_events=100)

    def test_reproducible(self):
        a = hawkes_st(self.BBOX, 30.0, mu=0.05, seed=42)
        b = hawkes_st(self.BBOX, 30.0, mu=0.05, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
