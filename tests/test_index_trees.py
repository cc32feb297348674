"""Unit tests for the kd-tree."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.core.kdv.dualtree import _box_distance_bounds
from repro.index import KDTree


def brute_indices(points, center, radius):
    d2 = ((points - np.asarray(center)) ** 2).sum(axis=1)
    return set(np.flatnonzero(d2 <= radius * radius).tolist())


def brute_knn(points, center, k):
    d = np.sqrt(((points - np.asarray(center)) ** 2).sum(axis=1))
    return np.sort(d)[:k]


@pytest.mark.parametrize("tree_cls", [KDTree])
class TestTreeRangeQueries:
    def test_range_indices_match_brute(self, tree_cls, random_points):
        tree = tree_cls(random_points, leaf_size=8)
        for center in [(0.0, 0.0), (10.0, 6.0), (19.5, 11.5)]:
            got = set(tree.range_indices(center, 2.2).tolist())
            assert got == brute_indices(random_points, center, 2.2)

    def test_range_count(self, tree_cls, random_points):
        tree = tree_cls(random_points, leaf_size=4)
        c = (8.0, 4.0)
        assert tree.range_count(c, 3.0) == len(brute_indices(random_points, c, 3.0))

    def test_whole_domain(self, tree_cls, random_points):
        tree = tree_cls(random_points)
        assert tree.range_count((10.0, 6.0), 1000.0) == random_points.shape[0]

    def test_duplicates(self, tree_cls):
        pts = np.array([[1.0, 1.0]] * 7 + [[5.0, 5.0]])
        tree = tree_cls(pts, leaf_size=2)
        assert tree.range_count((1.0, 1.0), 0.01) == 7

    def test_node_bounds_bracket_points(self, tree_cls, random_points):
        # The dual tree's box bounds, for a one-pixel tile at the query.
        tree = tree_cls(random_points, leaf_size=8)
        x, y = (3.7, 9.1)
        for node in range(tree.n_nodes):
            (nx0, ny0), (nx1, ny1) = tree.node_min[node], tree.node_max[node]
            dmin, dmax = _box_distance_bounds(x, x, y, y, nx0, nx1, ny0, ny1)
            pts = tree.node_points(node)
            d = np.sqrt(((pts - np.asarray((x, y))) ** 2).sum(axis=1))
            assert dmin <= d.min() + 1e-9
            assert dmax >= d.max() - 1e-9

    def test_children_partition_counts(self, tree_cls, random_points):
        tree = tree_cls(random_points, leaf_size=8)
        for node in range(tree.n_nodes):
            if not tree.is_leaf(node):
                left, right = tree.children(node)
                assert tree.node_count(node) == tree.node_count(left) + tree.node_count(right)

    def test_leaf_size_respected(self, tree_cls, random_points):
        tree = tree_cls(random_points, leaf_size=5)
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                # A leaf may exceed leaf_size only when all its points coincide.
                if tree.node_count(node) > 5:
                    pts = tree.node_points(node)
                    assert np.allclose(pts, pts[0])

    def test_rejects_bad_leaf_size(self, tree_cls, random_points):
        with pytest.raises(ParameterError):
            tree_cls(random_points, leaf_size=0)


class TestKDTreeWeights:
    """Per-node weight sums for the weighted dual-tree bounds."""

    def test_unweighted_sums_are_counts(self, random_points):
        tree = KDTree(random_points, leaf_size=8)
        counts = [tree.node_count(n) for n in range(tree.n_nodes)]
        assert tree.weights is None
        assert np.array_equal(tree.node_weight_sum, np.asarray(counts, float))
        assert tree.total_weight == random_points.shape[0]
        assert tree.node_point_weights(0) is None

    def test_root_sum_is_total_weight(self, random_points, rng):
        w = rng.uniform(0.0, 5.0, size=random_points.shape[0])
        tree = KDTree(random_points, leaf_size=8, weights=w)
        assert tree.total_weight == pytest.approx(w.sum(), rel=1e-12)
        assert tree.node_weight(0) == tree.total_weight

    def test_internal_sum_is_children_sum(self, random_points, rng):
        w = rng.uniform(0.0, 5.0, size=random_points.shape[0])
        tree = KDTree(random_points, leaf_size=8, weights=w)
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                continue
            left, right = tree.children(node)
            assert tree.node_weight(node) == (
                tree.node_weight(left) + tree.node_weight(right)
            )

    def test_node_sum_matches_member_weights(self, random_points, rng):
        w = rng.uniform(0.0, 5.0, size=random_points.shape[0])
        tree = KDTree(random_points, leaf_size=8, weights=w)
        for node in range(tree.n_nodes):
            members = tree.node_point_indices(node)
            assert tree.node_weight(node) == pytest.approx(
                w[members].sum(), rel=1e-12, abs=1e-12
            )
            sorted_w = tree.node_point_weights(node)
            assert np.array_equal(sorted_w, w[members])

    def test_unit_weights_bit_equal_counts(self, random_points):
        plain = KDTree(random_points, leaf_size=8)
        unit = KDTree(
            random_points, leaf_size=8, weights=np.ones(random_points.shape[0])
        )
        assert np.array_equal(unit.node_weight_sum, plain.node_weight_sum)

    def test_rejects_bad_weights(self, random_points):
        n = random_points.shape[0]
        with pytest.raises(ParameterError, match="length"):
            KDTree(random_points, weights=np.ones(n - 1))
        with pytest.raises(ParameterError, match="non-negative"):
            KDTree(random_points, weights=np.full(n, -1.0))
        bad = np.ones(n)
        bad[0] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            KDTree(random_points, weights=bad)


class TestKDTreeSpecific:
    def test_neighbor_distances(self, random_points):
        tree = KDTree(random_points)
        c = (6.0, 6.0)
        d = np.sort(tree.neighbor_distances(c, 2.0))
        ref = np.sqrt(((random_points - np.asarray(c)) ** 2).sum(axis=1))
        ref = np.sort(ref[ref <= 2.0])
        np.testing.assert_allclose(d, ref, atol=1e-12)

    def test_knn_matches_brute(self, random_points):
        tree = KDTree(random_points, leaf_size=4)
        for k in [1, 3, 10]:
            for q in [(0.0, 0.0), (10.0, 5.0), (19.0, 11.0)]:
                d, idx = tree.knn(q, k)
                np.testing.assert_allclose(d, brute_knn(random_points, q, k), atol=1e-9)
                assert idx.shape == (k,)
                assert (np.diff(d) >= -1e-12).all()

    def test_knn_k_exceeds_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        d, idx = KDTree(pts).knn((0.0, 0.0), 10)
        assert d.shape == (3,)
        assert set(idx.tolist()) == {0, 1, 2}

    def test_knn_rejects_bad_k(self, random_points):
        with pytest.raises(ParameterError):
            KDTree(random_points).knn((0, 0), 0)

    def test_knn_finds_exact_match(self, random_points):
        tree = KDTree(random_points)
        d, idx = tree.knn(random_points[17], 1)
        assert d[0] == pytest.approx(0.0, abs=1e-9)
        assert ((random_points[idx[0]] - random_points[17]) ** 2).sum() < 1e-18

