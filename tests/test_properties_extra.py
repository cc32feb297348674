"""Additional property-based tests for the wave-2+ data structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.autocorrelation import fdr_mask
from repro.core.kdv import KDVProblem, MultiSurfaceAccumulator, kde_dualtree
from repro.core.kdv.gridcut import kde_gridcut
from repro.core.kdv.naive import kde_naive
from repro.core.kfunction import cross_k_function
from repro.geometry import BoundingBox, Polygon
from repro.index import RangeTree
from repro.network import RoadNetwork, node_distances
from repro.raster import DensityGrid

coord = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, width=64)
points_strategy = arrays(
    np.float64,
    st.tuples(st.integers(min_value=1, max_value=50), st.just(2)),
    elements=coord,
)


class TestRangeTreeProperties:
    @given(
        points_strategy,
        st.tuples(coord, coord, coord, coord),
    )
    @settings(max_examples=60, deadline=None)
    def test_rect_count_matches_brute(self, pts, raw_rect):
        x_lo, x_hi = sorted(raw_rect[:2])
        y_lo, y_hi = sorted(raw_rect[2:])
        tree = RangeTree(pts)
        brute = int(
            (
                (pts[:, 0] >= x_lo) & (pts[:, 0] <= x_hi)
                & (pts[:, 1] >= y_lo) & (pts[:, 1] <= y_hi)
            ).sum()
        )
        assert tree.rect_count(x_lo, x_hi, y_lo, y_hi) == brute

    @given(points_strategy)
    @settings(max_examples=40, deadline=None)
    def test_full_rect_counts_everything(self, pts):
        tree = RangeTree(pts)
        assert tree.rect_count(-1e9, 1e9, -1e9, 1e9) == pts.shape[0]

    @given(points_strategy, st.tuples(coord, coord), st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_disc_count_matches_brute(self, pts, center, radius):
        tree = RangeTree(pts)
        d2 = ((pts - np.asarray(center)) ** 2).sum(axis=1)
        assert tree.range_count_disc(center, radius) == int(
            (d2 <= radius * radius).sum()
        )


def _unit_weights(pts):
    return np.ones((pts.shape[0], 1))


def _grid(acc):
    """Surface 0 clipped at zero, as a ``DensityGrid``."""
    return DensityGrid(acc.bbox, np.maximum(acc.surface(0), 0.0))


class TestAccumulatorProperties:
    @given(
        points_strategy,
        st.integers(min_value=0, max_value=49),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_remove_prefix_equals_suffix_batch(self, pts, k):
        """add(all) then remove(first k) == batch KDV of the suffix."""
        k = min(k, pts.shape[0])
        bbox = BoundingBox(-30.0, -30.0, 30.0, 30.0)
        acc = MultiSurfaceAccumulator(bbox, (10, 8), 4.0, kernel="epanechnikov")
        acc.add_weighted(pts, _unit_weights(pts))
        acc.remove_weighted(pts[:k], _unit_weights(pts[:k]))
        suffix = pts[k:]
        if suffix.shape[0] == 0:
            assert _grid(acc).max == 0.0
            return
        batch = kde_gridcut(
            KDVProblem(suffix, bbox, (10, 8), 4.0, "epanechnikov")
        )
        assert _grid(acc).max_abs_difference(batch) < 1e-8 * max(batch.max, 1.0)

    @given(points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_order_of_addition_irrelevant(self, pts):
        bbox = BoundingBox(-30.0, -30.0, 30.0, 30.0)
        a = MultiSurfaceAccumulator(bbox, (8, 8), 5.0)
        b = MultiSurfaceAccumulator(bbox, (8, 8), 5.0)
        a.add_weighted(pts, _unit_weights(pts))
        b.add_weighted(pts[::-1], _unit_weights(pts))
        assert _grid(a).max_abs_difference(_grid(b)) < 1e-9 * max(_grid(a).max, 1.0)


class TestDualTreeProperty:
    @given(points_strategy, st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_absolute_guarantee_random_inputs(self, pts, tau):
        bbox = BoundingBox(-30.0, -30.0, 30.0, 30.0)
        problem = KDVProblem(pts, bbox, (8, 6), 5.0, "gaussian")
        ref = kde_naive(problem)
        got = kde_dualtree(problem, tau=tau)
        assert got.max_abs_difference(ref) <= tau / 2 + 1e-9


class TestPolygonProperties:
    @given(
        st.integers(min_value=3, max_value=12),
        st.floats(min_value=0.5, max_value=10.0),
        st.tuples(coord, coord),
    )
    @settings(max_examples=50, deadline=None)
    def test_regular_polygon_area_formula(self, n_sides, radius, center):
        poly = Polygon.regular(n_sides, radius=radius, center=center)
        expected = 0.5 * n_sides * radius * radius * np.sin(2 * np.pi / n_sides)
        assert poly.area == pytest.approx(expected, rel=1e-9)

    @given(
        st.integers(min_value=3, max_value=10),
        st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_centroid_inside_convex(self, n_sides, radius):
        poly = Polygon.regular(n_sides, radius=radius)
        assert poly.contains([poly.centroid])[0]

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_samples_inside(self, n, seed):
        poly = Polygon([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [0, 3]])
        pts = poly.sample_uniform(n, rng=np.random.default_rng(seed))
        assert pts.shape == (n, 2)
        if n:
            assert poly.contains(pts).all()


class TestCrossKProperty:
    @given(points_strategy, points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, a, b):
        ts = np.array([1.0, 10.0, 100.0])
        np.testing.assert_array_equal(
            cross_k_function(a, b, ts), cross_k_function(b, a, ts)
        )

    @given(points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_upper_bound(self, a):
        ts = np.array([1e6])
        counts = cross_k_function(a, a, ts)
        assert counts[0] == a.shape[0] ** 2  # every ordered pair + self pairs


class TestDijkstraProperties:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_on_grid(self, nx, ny):
        from repro.network import grid_network

        net = grid_network(nx, ny)
        d0 = node_distances(net, 0)
        d_last = node_distances(net, net.n_nodes - 1)
        # d(0, v) <= d(0, last) + d(last, v) for every v.
        assert (d0 <= d0[net.n_nodes - 1] + d_last + 1e-9).all()

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_on_grid(self, nx, ny):
        from repro.network import grid_network

        net = grid_network(nx, ny)
        d0 = node_distances(net, 0)
        for v in range(net.n_nodes):
            dv = node_distances(net, v)
            assert dv[0] == pytest.approx(d0[v])
            break  # one spot check per example keeps the test fast


class TestFDRProperties:
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=200),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rejections_are_smallest_pvalues(self, p):
        mask = fdr_mask(p, 0.05)
        if mask.any() and (~mask).any():
            assert p[mask].max() <= p[~mask].min() + 1e-15

    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=100),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_alpha(self, p):
        low = fdr_mask(p, 0.01)
        high = fdr_mask(p, 0.2)
        assert (low <= high).all()  # stricter alpha rejects a subset
