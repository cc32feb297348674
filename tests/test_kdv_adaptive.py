"""Tests for adaptive-bandwidth KDV and LSCV bandwidth selection."""

import numpy as np
import pytest

from repro.core.kdv import (
    KDVProblem,
    adaptive_bandwidths,
    kde_adaptive,
    kde_grid,
    lscv_bandwidth,
    lscv_score,
    scott_bandwidth,
)
from repro.core.kdv.naive import kde_naive
from repro.data import csr, thomas
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox


class TestAdaptiveBandwidths:
    def test_dense_points_get_smaller_bandwidths(self, bbox):
        cluster = thomas(200, 1, 0.3, bbox, seed=1, centers=np.array([[5.0, 5.0]]))
        sparse = csr(40, bbox, seed=2)
        pts = np.vstack([cluster, sparse])
        problem = KDVProblem(pts, bbox, (16, 16), 1.5, "quartic")
        bws = adaptive_bandwidths(problem)
        # Cluster members have high pilot density -> bandwidth below b0;
        # isolated background points get bandwidths above b0.
        assert np.median(bws[:200]) < 1.5
        assert np.median(bws[200:]) > np.median(bws[:200])

    def test_alpha_zero_is_fixed(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, (16, 16), 1.5, "quartic")
        bws = adaptive_bandwidths(problem, alpha=0.0)
        np.testing.assert_allclose(bws, 1.5)

    def test_clip_respected(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, (16, 16), 1.5, "quartic")
        bws = adaptive_bandwidths(problem, clip=(0.5, 2.0))
        assert bws.min() >= 0.5 * 1.5 - 1e-12
        assert bws.max() <= 2.0 * 1.5 + 1e-12

    def test_bad_clip(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, (8, 8), 1.0, "quartic")
        with pytest.raises(ParameterError, match="clip"):
            adaptive_bandwidths(problem, clip=(2.0, 0.5))

    def test_bad_alpha(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, (8, 8), 1.0, "quartic")
        with pytest.raises(ParameterError):
            adaptive_bandwidths(problem, alpha=1.5)


class TestKdeAdaptive:
    def test_alpha_zero_matches_fixed(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, (20, 16), 1.5, "quartic")
        fixed = kde_naive(problem)
        adaptive = kde_adaptive(problem, alpha=0.0)
        assert adaptive.max_abs_difference(fixed) < 1e-8 * max(fixed.max, 1.0)

    def test_sharpens_peak(self, bbox):
        """Adaptive KDE concentrates cluster mass into a higher peak."""
        cluster = thomas(300, 1, 0.3, bbox, seed=3, centers=np.array([[10.0, 6.0]]))
        problem = KDVProblem(cluster, bbox, (48, 32), 2.0, "quartic")
        fixed = kde_naive(problem)
        adaptive = kde_adaptive(problem, alpha=0.5)
        assert adaptive.max > fixed.max

    def test_non_negative_and_finite(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, (16, 12), 1.0, "gaussian")
        grid = kde_adaptive(problem)
        assert (grid.values >= 0).all()

    def test_api_dispatch(self, clustered_points, bbox):
        grid = kde_grid(clustered_points, bbox, (16, 12), 1.5, method="adaptive")
        assert grid.max > 0

    def test_weights_honoured(self, small_points, bbox, rng):
        w = rng.uniform(0.5, 2.0, size=small_points.shape[0])
        problem = KDVProblem(small_points, bbox, (12, 8), 1.5, "quartic", weights=w)
        unweighted = KDVProblem(small_points, bbox, (12, 8), 1.5, "quartic")
        a = kde_adaptive(problem, alpha=0.0)
        b = kde_adaptive(unweighted, alpha=0.0)
        assert a.values.sum() != pytest.approx(b.values.sum())


class TestLSCV:
    def test_score_finite(self, clustered_points):
        score = lscv_score(clustered_points, 1.0, kernel="gaussian")
        assert np.isfinite(score)

    def test_prefers_reasonable_bandwidth_gaussian_cluster(self):
        """For a Gaussian blob the LSCV minimum is near the optimal scale."""
        rng = np.random.default_rng(4)
        pts = rng.normal(0.0, 1.0, size=(400, 2))
        best, candidates, scores = lscv_bandwidth(
            pts, kernel="gaussian", n_candidates=10, seed=5
        )
        # Scott's rule is near-optimal for a Gaussian: LSCV should land
        # within a factor ~3 of it, not at the grid edges.
        scott = scott_bandwidth(pts)
        assert scott / 3.5 < best < scott * 3.5

    def test_oversmoothed_scored_worse(self):
        """A clearly too-wide bandwidth must score worse than a sane one."""
        rng = np.random.default_rng(6)
        pts = np.vstack([
            rng.normal([0, 0], 0.3, size=(150, 2)),
            rng.normal([8, 8], 0.3, size=(150, 2)),
        ])
        sane = lscv_score(pts, 0.5, kernel="gaussian")
        oversmoothed = lscv_score(pts, 10.0, kernel="gaussian")
        assert sane < oversmoothed

    def test_finite_support_kernel_supported(self, small_points):
        score = lscv_score(small_points, 2.0, kernel="quartic")
        assert np.isfinite(score)

    def test_candidates_validated(self, small_points):
        with pytest.raises(ParameterError):
            lscv_bandwidth(small_points, candidates=[-1.0, 2.0])

    def test_needs_three_points(self):
        with pytest.raises(DataError):
            lscv_score([[0, 0], [1, 1]], 1.0)

    def test_returns_grid_and_scores(self, small_points):
        best, candidates, scores = lscv_bandwidth(
            small_points, n_candidates=6, seed=7
        )
        assert candidates.shape == scores.shape == (6,)
        assert best in candidates
        assert scores.min() == scores[list(candidates).index(best)]
