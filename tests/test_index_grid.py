"""Unit tests for the uniform grid index."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.geometry import BoundingBox
from repro.index import DynamicGridIndex, GridIndex, KDTree, threshold_counts


def brute_indices(points, center, radius):
    d2 = ((points - np.asarray(center)) ** 2).sum(axis=1)
    return set(np.flatnonzero(d2 <= radius * radius).tolist())


class TestGridIndexQueries:
    def test_range_indices_match_brute(self, random_points):
        index = GridIndex(random_points, cell_size=1.5)
        for center in [(0.0, 0.0), (10.0, 6.0), (19.9, 11.9), (5.0, 3.0)]:
            got = set(index.range_indices(center, 2.5).tolist())
            assert got == brute_indices(random_points, center, 2.5)

    def test_range_count_matches(self, random_points):
        index = GridIndex(random_points, cell_size=0.8)
        for center in [(3.0, 3.0), (15.0, 8.0)]:
            assert index.range_count(center, 1.7) == len(
                brute_indices(random_points, center, 1.7)
            )

    def test_query_outside_bbox(self, random_points):
        index = GridIndex(random_points, cell_size=1.0)
        got = set(index.range_indices((-5.0, -5.0), 30.0).tolist())
        assert got == brute_indices(random_points, (-5.0, -5.0), 30.0)

    def test_neighbor_distances_sorted_consistent(self, random_points):
        index = GridIndex(random_points, cell_size=1.0)
        d = index.neighbor_distances((10.0, 6.0), 3.0)
        assert (d <= 3.0).all()
        assert d.shape[0] == index.range_count((10.0, 6.0), 3.0)

    def test_count_within_many_queries(self, random_points):
        index = GridIndex(random_points, cell_size=1.0)
        queries = random_points[:10]
        counts = threshold_counts(index, queries, [2.0])[:, 0]
        for q, c in zip(queries, counts):
            assert c == len(brute_indices(random_points, q, 2.0))

    def test_multi_threshold_counts(self, random_points):
        index = GridIndex(random_points, cell_size=2.0)
        thresholds = np.array([0.5, 1.0, 2.0])
        table = threshold_counts(index, random_points[:8], thresholds)
        assert table.shape == (8, 3)
        for row, q in zip(table, random_points[:8]):
            for c, s in zip(row, thresholds):
                assert c == len(brute_indices(random_points, q, s))
        # Counts must be monotone in the threshold.
        assert (np.diff(table, axis=1) >= 0).all()

    def test_zero_threshold_counts_coincident(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
        index = GridIndex(pts, cell_size=1.0)
        table = threshold_counts(index, pts, np.array([0.0]))
        assert table[:, 0].tolist() == [2, 2, 1]


class TestGridIndexConstruction:
    def test_rejects_bad_cell_size(self, random_points):
        with pytest.raises(ParameterError):
            GridIndex(random_points, cell_size=0.0)

    def test_len(self, random_points):
        assert len(GridIndex(random_points, cell_size=1.0)) == random_points.shape[0]

    def test_single_point(self):
        index = GridIndex([[2.0, 2.0]], cell_size=1.0)
        assert index.range_count((2.0, 2.0), 0.5) == 1
        assert index.range_count((5.0, 5.0), 0.5) == 0

    def test_duplicate_points_counted(self):
        pts = np.array([[1.0, 1.0]] * 5)
        index = GridIndex(pts, cell_size=1.0)
        assert index.range_count((1.0, 1.0), 0.1) == 5

    def test_radius_larger_than_domain(self, random_points):
        index = GridIndex(random_points, cell_size=1.0)
        assert index.range_count((10.0, 6.0), 100.0) == random_points.shape[0]

    def test_empty_thresholds_rejected(self, random_points):
        index = GridIndex(random_points, cell_size=1.0)
        with pytest.raises(ParameterError):
            threshold_counts(index, random_points[:2], [])


class TestNeighborD2:
    """``neighbor_d2`` is public on every index that has it: radius >= 0."""

    @staticmethod
    def _indexes(pts):
        dyn = DynamicGridIndex(BoundingBox(0.0, 0.0, 20.0, 12.0), 1.0)
        for x, y in pts:
            dyn.insert(x, y)
        return GridIndex(pts, cell_size=1.0), KDTree(pts), dyn

    def test_negative_radius_rejected(self, random_points):
        for index in self._indexes(random_points):
            with pytest.raises(ParameterError, match="radius"):
                index.neighbor_d2((5.0, 5.0), -1.0)

    def test_zero_radius_finds_coincident_points(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        for index in self._indexes(pts):
            assert index.neighbor_d2((1.0, 1.0), 0.0).tolist() == [0.0, 0.0]

    def test_matches_neighbor_distances(self, random_points):
        for index in self._indexes(random_points):
            d2 = np.sort(index.neighbor_d2((5.0, 5.0), 2.5))
            d = np.sort(index.neighbor_distances((5.0, 5.0), 2.5))
            np.testing.assert_array_equal(np.sqrt(d2), d)

    def test_threshold_counts_agree_on_every_index(self, random_points):
        pts = np.vstack([random_points, random_points[:20]])
        ts = np.array([0.0, 0.5, 1.0, 2.5])
        want = np.stack([
            [len(brute_indices(pts, q, s)) for s in ts] for q in pts[:30]
        ])
        for index in self._indexes(pts):
            table = threshold_counts(index, pts[:30], ts)
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, want)


class TestDynamicGridTinyCells:
    def test_tiny_cell_size_caps_the_lattice(self):
        index = DynamicGridIndex(BoundingBox(0.0, 0.0, 1.0, 1.0), 1e-160)
        assert index.nx == index.ny == 1 << 20
        for x, y in [(0.0, 0.0), (1e-170, 0.0), (0.5, 0.5), (1.0, 1.0)]:
            index.insert(x, y)
        assert index.range_count((0.0, 0.0), 1e-160) == 2
        assert index.range_count((0.5, 0.5), 1e-160) == 1

    def test_cells_smaller_than_the_search_reach(self):
        # Cells widen to the search reach (at least 2**-510), so a query
        # scans a few cells rather than the whole capped lattice.
        index = DynamicGridIndex(BoundingBox(0.0, 0.0, 1e-300, 1e-300), 1e-310)
        assert index.nx == index.ny == 1
        pts = [(0.0, 0.0), (0.0, 0.0), (5e-301, 5e-301), (1e-300, 0.0)]
        for x, y in pts:
            index.insert(x, y)
        static = GridIndex(np.array(pts), cell_size=1e-310)
        for center in pts:
            for radius in (0.0, 1e-310, 1e-300):
                np.testing.assert_array_equal(
                    np.sort(index.neighbor_d2(center, radius)),
                    np.sort(static.neighbor_d2(center, radius)),
                )
