"""Tests for the dual-tree KDV backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdv import KDVProblem, RefinementStats, kde_dualtree, kde_grid
from repro.core.kdv.naive import kde_naive
from repro.core.kernels import KERNELS
from repro.errors import ParameterError

SIZE = (24, 16)
BW = 2.0


class TestDualTreeGuarantee:
    @pytest.mark.parametrize("kernel", ["gaussian", "quartic", "exponential"])
    def test_absolute_error_bound(self, kernel, clustered_points, bbox):
        tau = 0.5
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, kernel)
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=tau)
        assert got.max_abs_difference(ref) <= tau / 2 + 1e-9

    def test_tau_zero_exact(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "gaussian")
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=0.0)
        assert got.max_abs_difference(ref) < 1e-9 * max(ref.max, 1.0)

    def test_smaller_tau_more_accurate(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian")
        ref = kde_naive(problem)
        loose = kde_dualtree(problem, tau=5.0).max_abs_difference(ref)
        tight = kde_dualtree(problem, tau=0.05).max_abs_difference(ref)
        assert tight <= loose + 1e-12

    def test_finite_support_zero_regions_exact(self, bbox):
        pts = np.array([[1.0, 1.0], [2.0, 1.5]])
        problem = KDVProblem(pts, bbox, SIZE, 0.5, "quartic")
        got = kde_dualtree(problem, tau=1.0)
        # Far corner must be exactly zero (pair pruned at k_hi == 0).
        assert got.values[-1, -1] == 0.0

    def test_api_dispatch(self, clustered_points, bbox):
        grid = kde_grid(
            clustered_points, bbox, SIZE, BW,
            kernel="gaussian", method="dualtree", tau=0.1,
        )
        ref = kde_grid(clustered_points, bbox, SIZE, BW, kernel="gaussian", method="naive")
        assert grid.max_abs_difference(ref) <= 0.05 + 1e-9

    def test_rejects_negative_tau(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "gaussian")
        with pytest.raises(ParameterError):
            kde_dualtree(problem, tau=-1.0)

    def test_single_pixel_grid(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, (1, 1), BW, "gaussian")
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=0.01)
        assert got.max_abs_difference(ref) <= 0.005 + 1e-9

    def test_duplicate_points(self, bbox):
        pts = np.array([[5.0, 5.0]] * 50 + [[10.0, 8.0]] * 30)
        problem = KDVProblem(pts, bbox, SIZE, BW, "gaussian")
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=0.1)
        assert got.max_abs_difference(ref) <= 0.05 + 1e-9


class TestDualTreeWeighted:
    """Per-point weights: node weight sums replace counts as bound
    multipliers, spending the error budget against the total weight."""

    @pytest.mark.parametrize("kernel", ["gaussian", "quartic", "exponential"])
    def test_weighted_error_bound(self, kernel, clustered_points, bbox, rng):
        tau = 0.5
        w = rng.uniform(0.0, 3.0, size=clustered_points.shape[0])
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, kernel, weights=w)
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=tau)
        assert got.max_abs_difference(ref) <= tau / 2 + 1e-9

    def test_unit_weights_reproduce_counts_exactly(self, clustered_points, bbox):
        """weights=1 must be bit-identical to the count-based result."""
        n = clustered_points.shape[0]
        unweighted = KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian")
        unit = KDVProblem(
            clustered_points, bbox, SIZE, BW, "gaussian", weights=np.ones(n)
        )
        a = kde_dualtree(unweighted, tau=0.3)
        b = kde_dualtree(unit, tau=0.3)
        assert np.array_equal(a.values, b.values)

    def test_tau_zero_weighted_exact(self, small_points, bbox, rng):
        w = rng.uniform(0.0, 2.0, size=small_points.shape[0])
        problem = KDVProblem(small_points, bbox, SIZE, BW, "gaussian", weights=w)
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=0.0)
        assert got.max_abs_difference(ref) < 1e-9 * max(ref.max, 1.0)

    def test_all_zero_weights_give_zero_surface(self, small_points, bbox):
        w = np.zeros(small_points.shape[0])
        problem = KDVProblem(small_points, bbox, SIZE, BW, "gaussian", weights=w)
        got = kde_dualtree(problem, tau=0.1)
        assert np.array_equal(got.values, np.zeros(SIZE))
        assert got.diagnostics is not None
        assert got.diagnostics.records.get("refinement") is not None

    def test_sparse_weights_prune_zero_mass(self, bbox, rng):
        """Zero-weight points contribute nothing, including at tau=0."""
        pts = rng.uniform(0, 15, size=(120, 2))
        w = np.zeros(120)
        w[:7] = rng.uniform(1.0, 2.0, size=7)
        problem = KDVProblem(pts, bbox, SIZE, BW, "quartic", weights=w)
        only = KDVProblem(pts[:7], bbox, SIZE, BW, "quartic", weights=w[:7])
        got = kde_dualtree(problem, tau=0.0)
        ref = kde_naive(only)
        assert got.max_abs_difference(ref) < 1e-9 * max(ref.max, 1.0)

    def test_api_dispatch_weighted(self, clustered_points, bbox, rng):
        w = rng.uniform(0.5, 1.5, size=clustered_points.shape[0])
        grid = kde_grid(
            clustered_points, bbox, SIZE, BW,
            kernel="gaussian", method="dualtree", tau=0.1, weights=w,
        )
        ref = kde_grid(
            clustered_points, bbox, SIZE, BW,
            kernel="gaussian", method="naive", weights=w,
        )
        assert grid.max_abs_difference(ref) <= 0.05 + 1e-9


class TestDualTreeProperty:
    """Acceptance property: the |err| <= tau/2 guarantee holds for random
    non-negative weights (not just the hand-picked fixtures)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tau=st.floats(min_value=0.01, max_value=2.0),
        kernel=st.sampled_from(["gaussian", "quartic"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_guarantee_random_weights(self, seed, tau, kernel):
        from repro.geometry import BoundingBox

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pts = rng.uniform(-10.0, 10.0, size=(n, 2))
        w = rng.uniform(0.0, 5.0, size=n)
        bbox = BoundingBox(-10.0, -10.0, 10.0, 10.0)
        problem = KDVProblem(pts, bbox, (10, 8), 3.0, kernel, weights=w)
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=tau)
        assert got.max_abs_difference(ref) <= tau / 2 + 1e-9


class TestRefinementStats:
    def test_stats_attached_and_sane(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian")
        grid = kde_dualtree(problem, tau=0.1)
        s = grid.diagnostics.records["refinement"]
        assert isinstance(s, RefinementStats)
        assert s.pairs_visited > 0
        assert s.n_tiles >= 1
        assert 0 <= s.n_jobs <= s.n_tiles
        assert s.tiles_bulk_accepted >= 0
        assert s.leaf_leaf_scans >= 0
        assert s.points_touched >= 0
        assert s.plan_seconds >= 0.0
        assert s.execute_seconds >= 0.0

    def test_stats_as_dict_roundtrip(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "quartic")
        s = kde_dualtree(problem, tau=0.1).diagnostics.records["refinement"]
        d = s.as_dict()
        assert d["pairs_visited"] == s.pairs_visited
        assert set(d) == {
            "pairs_visited", "pairs_pruned", "tiles_bulk_accepted",
            "leaf_leaf_scans", "points_touched", "n_tiles", "n_jobs",
            "plan_seconds", "execute_seconds",
        }

    def test_other_backends_attach_no_stats(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "quartic")
        grid = kde_naive(problem)
        diag = grid.diagnostics
        assert diag is None or diag.records.get("refinement") is None

    def test_survives_normalize(self, clustered_points, bbox):
        grid = kde_grid(
            clustered_points, bbox, SIZE, BW,
            method="dualtree", tau=0.1, normalize=True,
        )
        assert isinstance(
            grid.diagnostics.records["refinement"], RefinementStats
        )

    def test_exact_run_has_no_bulk_accepts_for_gaussian(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "gaussian")
        s = kde_dualtree(problem, tau=0.0).diagnostics.records["refinement"]
        # Gaussian bounds are never exactly equal over a non-degenerate
        # pair, so tau=0 forces every pair down to leaf-leaf scans.
        assert s.leaf_leaf_scans > 0


class TestDualTreeParallel:
    """The plan partition is worker-invariant, so output is bit-identical
    for every workers/backend combination (full grid in
    tests/test_parallel_determinism.py)."""

    def test_workers_bit_identical(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, (48, 32), BW, "gaussian")
        ref = kde_dualtree(problem, tau=0.2, workers=1, backend="serial")
        got = kde_dualtree(problem, tau=0.2, workers=4, backend="thread")
        assert np.array_equal(got.values, ref.values)

    def test_kde_grid_passes_workers_through(self, clustered_points, bbox):
        ref = kde_grid(clustered_points, bbox, SIZE, BW, method="dualtree")
        got = kde_grid(
            clustered_points, bbox, SIZE, BW,
            method="dualtree", workers=2, backend="thread",
        )
        assert np.array_equal(got.values, ref.values)
