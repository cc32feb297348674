"""Property-based tests (hypothesis) on the core data structures & invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kdv import KDVProblem
from repro.core.kdv.gridcut import kde_gridcut
from repro.core.kdv.naive import kde_naive
from repro.core.kdv.sweep import kde_sweep
from repro.core.kernels import KERNELS
from repro.core.kfunction import k_function, st_k_function
from repro.geometry import BoundingBox, pairwise_distances
from repro.index import GridIndex, KDTree

# Coordinates in a modest range keep distances well-conditioned.
coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64)
points_strategy = arrays(
    np.float64,
    st.tuples(st.integers(min_value=1, max_value=60), st.just(2)),
    elements=coord,
)


@st.composite
def points_and_query(draw):
    pts = draw(points_strategy)
    q = (draw(coord), draw(coord))
    r = draw(st.floats(min_value=0.01, max_value=60.0, allow_nan=False))
    return pts, q, r


#: A point just outside r under ``d2 <= r*r`` but at hypot distance r.
BOUNDARY_ULP = (np.array([[1e-10, 0.0]]), (0.0, 0.01), 0.01)


def brute_range(points, q, r):
    d2 = ((points - np.asarray(q)) ** 2).sum(axis=1)
    return set(np.flatnonzero(d2 <= r * r).tolist())


class TestIndexProperties:
    @given(points_and_query())
    @settings(max_examples=60, deadline=None)
    def test_grid_index_matches_brute(self, data):
        pts, q, r = data
        index = GridIndex(pts, cell_size=max(r / 2, 1e-6))
        assert set(index.range_indices(q, r).tolist()) == brute_range(pts, q, r)

    @given(points_and_query())
    # The squared distance rounds one ulp above r*r while the unsquared
    # hypot rounds to exactly r: node bounds must use the squared test.
    @example(BOUNDARY_ULP)
    @settings(max_examples=60, deadline=None)
    def test_kdtree_matches_brute(self, data):
        pts, q, r = data
        tree = KDTree(pts, leaf_size=4)
        assert set(tree.range_indices(q, r).tolist()) == brute_range(pts, q, r)
        assert tree.range_count(q, r) == len(brute_range(pts, q, r))

    @given(points_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_kdtree_knn_distances_correct(self, pts, k):
        tree = KDTree(pts, leaf_size=4)
        q = (0.0, 0.0)
        d, idx = tree.knn(q, k)
        ref = np.sort(np.sqrt((pts ** 2).sum(axis=1)))[: min(k, pts.shape[0])]
        np.testing.assert_allclose(d, ref, atol=1e-9)


class TestKernelProperties:
    @given(
        st.sampled_from(sorted(KERNELS)),
        st.floats(min_value=0.01, max_value=100.0),
        arrays(np.float64, st.integers(min_value=1, max_value=40),
               elements=st.floats(min_value=0.0, max_value=200.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_value_at_zero(self, name, bandwidth, dists):
        k = KERNELS[name]
        vals = k.evaluate(dists, bandwidth)
        peak = float(k.evaluate(0.0, bandwidth))
        assert (vals >= 0.0).all()
        assert (vals <= peak + 1e-12).all()

    @given(
        st.sampled_from(sorted(KERNELS)),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_pairwise(self, name, bandwidth, d1, d2):
        k = KERNELS[name]
        lo, hi = min(d1, d2), max(d1, d2)
        assert float(k.evaluate(lo, bandwidth)) >= float(k.evaluate(hi, bandwidth)) - 1e-12


class TestKDVProperties:
    @given(points_strategy, st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_gridcut_equals_naive_quartic(self, pts, bandwidth):
        bbox = BoundingBox(-50.0, -50.0, 50.0, 50.0)
        problem = KDVProblem(pts, bbox, (8, 6), bandwidth, "quartic")
        a = kde_naive(problem)
        b = kde_gridcut(problem)
        assert b.max_abs_difference(a) <= 1e-8 * max(a.max, 1.0)

    @given(points_strategy, st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_sweep_equals_naive_epanechnikov(self, pts, bandwidth):
        bbox = BoundingBox(-50.0, -50.0, 50.0, 50.0)
        problem = KDVProblem(pts, bbox, (8, 6), bandwidth, "epanechnikov")
        a = kde_naive(problem)
        b = kde_sweep(problem)
        assert b.max_abs_difference(a) <= 1e-6 * max(a.max, 1.0)

    @given(points_strategy)
    @settings(max_examples=25, deadline=None)
    def test_density_non_negative(self, pts):
        bbox = BoundingBox(-50.0, -50.0, 50.0, 50.0)
        grid = kde_gridcut(KDVProblem(pts, bbox, (6, 6), 5.0, "gaussian"))
        assert (grid.values >= 0).all()


class TestKFunctionProperties:
    @given(
        points_strategy,
        st.lists(st.floats(min_value=0.0, max_value=150.0), min_size=1, max_size=6),
    )
    # Both the squared distance and t*t underflow to 0, so every method
    # counts the pair; the grid must search past its tiny cells to see it.
    @example(np.array([[1.47e-168, 0.0], [0.0, 0.0]]), [1.7e-186])
    @settings(max_examples=40, deadline=None)
    def test_methods_agree(self, pts, raw_ts):
        ts = np.sort(np.asarray(raw_ts))
        naive = k_function(pts, ts, method="naive")
        grid = k_function(pts, ts, method="grid")
        np.testing.assert_array_equal(naive, grid)

    @given(points_strategy)
    @settings(max_examples=40, deadline=None)
    def test_count_bounds(self, pts):
        n = pts.shape[0]
        diam = float(pairwise_distances(pts).max()) if n > 1 else 1.0
        counts = k_function(pts, [diam + 1.0])
        assert counts[0] == n * (n - 1)  # everything within the diameter

    @given(
        points_strategy,
        arrays(np.float64, st.integers(min_value=1, max_value=60),
               elements=st.floats(min_value=0.0, max_value=100.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_st_k_methods_agree(self, pts, times):
        if times.shape[0] != pts.shape[0]:
            times = np.resize(times, pts.shape[0])
        s_ts = np.array([1.0, 10.0, 100.0])
        t_ts = np.array([5.0, 50.0])
        a = st_k_function(pts, times, s_ts, t_ts, method="naive")
        b = st_k_function(pts, times, s_ts, t_ts, method="grid")
        np.testing.assert_array_equal(a, b)


class TestBBoxProperties:
    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_of_points_contains_all(self, pts):
        box = BoundingBox.of_points(pts)
        assert box.contains(pts).all()

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_torus_displacement_bounded(self, x, y, w, h):
        box = BoundingBox(x, y, x + w, y + h)
        dx = np.array([abs(np.sin(x)) * w])  # some displacement within [0, w]
        dy = np.array([abs(np.cos(y)) * h])
        tx, ty = box.torus_displacement(dx, dy)
        assert 0.0 <= tx[0] <= w / 2 + 1e-9
        assert 0.0 <= ty[0] <= h / 2 + 1e-9
