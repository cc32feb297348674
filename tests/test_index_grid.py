"""Unit tests for the uniform grid index."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._validation import as_points
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox
from repro.index import (
    DynamicGridIndex, GridIndex, KDTree, counts, threshold_counts,
    threshold_totals,
)


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
        grid, _, dyn = self._indexes(pts)
        for index in (grid, dyn):
            table = threshold_counts(index, pts[:30], ts)
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, want)


def dynamic_of(pts):
    index = DynamicGridIndex(BoundingBox(0.0, 0.0, 20.0, 12.0), 1.0)
    index.insert_many(pts)
    return index


class TestNonFiniteCenter:
    """Every single-point query on every index rejects a non-finite centre."""

    @pytest.mark.parametrize("make", [
        lambda pts: GridIndex(pts, cell_size=1.0), dynamic_of, KDTree,
    ], ids=["grid", "dynamic", "kdtree"])
    @pytest.mark.parametrize("center", [
        (np.nan, 1.0), (1.0, np.inf), (-np.inf, np.nan),
    ])
    def test_raises_data_error(self, random_points, make, center):
        index = make(random_points)
        for query in (index.range_indices, index.range_count,
                      index.neighbor_d2, index.neighbor_distances):
            with pytest.raises(DataError, match="center"):
                query(center, 1.0)
        if isinstance(index, KDTree):
            with pytest.raises(DataError, match="center"):
                index.knn(center, 3)


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


class TestDynamicGridUpdates:
    BBOX = BoundingBox(0.0, 0.0, 10.0, 10.0)

    def test_rejected_insert_leaks_no_slot(self):
        index = DynamicGridIndex(self.BBOX, 1.0)
        first = index.insert(1.0, 1.0)
        with pytest.raises(ValueError):
            index.insert(np.nan, 2.0)
        with pytest.raises(ValueError):
            index.insert_many([[3.0, 3.0], [np.inf, 0.0]])
        assert len(index) == 1
        assert index.insert(2.0, 2.0) == first + 1
        index.remove(first)
        with pytest.raises(ValueError):
            index.insert(0.0, -np.inf)
        assert len(index) == 1
        assert index.insert(4.0, 4.0) == first  # the freed slot, not leaked

    def test_insert_many_returns_the_one_by_one_slots(self, random_points):
        pts = random_points[:40]
        one, many = (DynamicGridIndex(self.BBOX, 1.0) for _ in range(2))
        for index in (one, many):
            # Leave a free list with a known order: slots 5, 17, 3, 30.
            for x, y in pts[:32]:
                index.insert(x, y)
            for slot in (5, 17, 3, 30):
                index.remove(slot)
        singles = [one.insert(x, y) for x, y in pts[32:]]
        batch = many.insert_many(pts[32:])
        assert batch.tolist() == singles == [30, 3, 17, 5, 32, 33, 34, 35]
        for center in pts[:8]:
            np.testing.assert_array_equal(
                np.sort(many.neighbor_d2(center, 2.0)),
                np.sort(one.neighbor_d2(center, 2.0)),
            )

    def test_removed_points_leave_the_queries(self):
        index = DynamicGridIndex(self.BBOX, 1.0)
        slots = index.insert_many([[1.0, 1.0], [1.0, 1.0], [1.5, 1.0]])
        assert np.sort(index.neighbor_d2((1.0, 1.0), 1.0)).tolist() == [0.0, 0.0, 0.25]
        index.remove(slots[0])
        assert np.sort(index.neighbor_d2((1.0, 1.0), 1.0)).tolist() == [0.0, 0.25]
        with pytest.raises(ParameterError):
            index.remove(slots[0])
        with pytest.raises(ValueError):
            index.neighbor_d2((np.nan, 1.0), 1.0)
        assert index.insert_many(np.empty((0, 2))).tolist() == []
        assert len(index) == 2

    @staticmethod
    def _assert_same_state(a, b, queries):
        """Same live set, free list, query results and next slots."""
        assert len(a) == len(b)
        assert a._free == b._free
        np.testing.assert_array_equal(
            threshold_counts(a, queries, [0.0, 1.0, 2.5]),
            threshold_counts(b, queries, [0.0, 1.0, 2.5]),
        )
        for (_, bounds_a, ids_a, d2_a), (_, bounds_b, ids_b, d2_b) in zip(
            a.neighbor_blocks(queries, 2.0), b.neighbor_blocks(queries, 2.0)
        ):
            assert bounds_a == bounds_b
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(d2_a, d2_b)
        fresh = queries[: len(a._free) + 3]
        np.testing.assert_array_equal(a.insert_many(fresh), b.insert_many(fresh))

    @pytest.mark.parametrize("seed", range(6))
    def test_remove_many_matches_one_by_one_removes(self, random_points, seed):
        rng = np.random.default_rng(seed)
        one, many = (DynamicGridIndex(self.BBOX, 1.0) for _ in range(2))
        for index in (one, many):
            index.insert_many(random_points[:60])
        for _ in range(4):
            live = np.flatnonzero(one._cell_of_slot[: one._top] >= 0)
            gone = rng.permutation(live)[: rng.integers(0, 15)]
            for slot in gone:
                one.remove(slot)
            many.remove_many(gone)
            assert len(many) == len(one)
            assert many._free == one._free
            fresh = random_points[rng.integers(0, 400, rng.integers(0, 10))]
            np.testing.assert_array_equal(
                many.insert_many(fresh), one.insert_many(fresh)
            )
        self._assert_same_state(many, one, random_points[100:140])

    def test_remove_many_takes_any_integer_sequence(self, random_points):
        from collections import deque
        index = DynamicGridIndex(self.BBOX, 1.0)
        index.insert_many(random_points[:10])
        index.remove_many(deque([4, 1]))
        index.remove_many(np.array([7, 2], dtype=np.int32))
        index.remove_many([])
        assert index._free == [4, 1, 7, 2] and len(index) == 6

    @pytest.mark.parametrize("batch", [
        [3, 3], [2, 3, 2], [3, 40], [3, -1], [5, 3], [9, 5, 3, 1],
    ], ids=["repeat", "repeat-apart", "past-top", "negative", "dead", "dead-last"])
    def test_rejected_remove_many_changes_nothing(self, random_points, batch):
        index, twin = (DynamicGridIndex(self.BBOX, 1.0) for _ in range(2))
        for dyn in (index, twin):
            dyn.insert_many(random_points[:10])
            dyn.remove(5)
        before = index._cells_layout()
        with pytest.raises(ParameterError, match="slot"):
            index.remove_many(batch)
        assert index._cells_layout() is before  # no update happened
        self._assert_same_state(index, twin, random_points[:30])

    @staticmethod
    def _sorted_from_scratch(index):
        """The live slots by (cell, slot): one stable sort of every slot."""
        cells = index._cell_of_slot[: index._top]
        live = np.flatnonzero(cells >= 0)
        slots = live[np.argsort(cells[live], kind="stable")]
        return cells[slots], slots, index._xs[slots], index._ys[slots]

    @pytest.mark.parametrize("seed", range(12))
    def test_merged_layout_equals_a_full_sort(self, seed):
        """Cached layout + merged updates == sorting every live slot again."""
        rng = np.random.default_rng(seed)
        index = DynamicGridIndex(self.BBOX, float(rng.choice([0.4, 1.0, 4.0])))
        live = []
        for step in range(40):
            if not live or rng.random() < 0.5:
                pts = rng.uniform(-2.0, 12.0, (int(rng.integers(0, 30)), 2))
                if pts.shape[0] and rng.random() < 0.3:
                    pts[: pts.shape[0] // 2] = pts[0]  # coincident points
                live.extend(index.insert_many(pts).tolist())
            else:
                gone = rng.permutation(live)[: rng.integers(0, len(live) + 1)]
                index.remove_many(gone)
                live = [slot for slot in live if slot not in set(gone.tolist())]
            if rng.random() < 0.6:
                layout = index._cells_layout()
                want = self._sorted_from_scratch(index)
                for got, ref in zip(
                    (layout.cells, layout.ids, layout.xs, layout.ys), want
                ):
                    assert got.dtype == ref.dtype
                    np.testing.assert_array_equal(got, ref)
        assert sorted(live) == sorted(index._cells_layout().ids.tolist())


def brute_table(points, queries, thresholds):
    """``#{d2 <= t * t}`` from direct coordinate differences; ``t < 0`` admits nothing."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    ts = np.asarray(thresholds, dtype=np.float64)
    dx = p[None, :, 0] - q[:, None, 0]
    dy = p[None, :, 1] - q[:, None, 1]
    d2 = dx * dx + dy * dy
    admit = (d2[:, :, None] <= (ts * ts)[None, None, :]) & (ts >= 0.0)
    return admit.sum(axis=1).astype(np.int64)


def legacy_threshold_counts(index, queries, thresholds) -> np.ndarray:
    """The per-query table as ``searchsorted`` binning computed it, verbatim."""
    q = as_points(queries, name="queries", allow_empty=True)
    ts = np.asarray(thresholds, dtype=np.float64).ravel()
    if ts.size == 0:
        raise ParameterError("thresholds must contain at least one value")
    rmax = max(float(ts.max()), 0.0)
    t2 = np.copysign(ts * ts, ts)  # a negative threshold admits nothing
    order = np.argsort(t2, kind="stable")
    t2_sorted = t2[order]
    width = ts.size + 1  # the last bin holds pairs beyond every threshold
    bins = np.zeros((q.shape[0], width), dtype=np.int64)
    for qi, d2 in index.neighbor_pairs(q, rmax):
        if qi.size == 0:
            continue
        lo = int(qi[0])
        hi = int(qi[-1]) + 1
        b = np.searchsorted(t2_sorted, d2, side="left")
        bins[lo:hi] += np.bincount(
            (qi - lo) * width + b, minlength=(hi - lo) * width
        ).reshape(hi - lo, width)
    out = np.empty((q.shape[0], ts.size), dtype=np.int64)
    out[:, order] = np.cumsum(bins[:, :-1], axis=1)
    return out


_coords = st.one_of(
    st.sampled_from([-3.0, 0.0, 1e-170, 1e-160, 0.5, 1.0, 2.5, 10.0, 12.0]),
    st.floats(-2.0, 12.0, allow_nan=False),
)
_point = st.tuples(_coords, _coords)
_threshold = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-160, 0.5, 1.0, 2.5, 30.0]),
    st.floats(0.0, 4.0, allow_nan=False),
)


class TestThresholdCountsProperty:
    """Every index's counts equal a brute-force table, at any chunk size;
    on the grids, ``threshold_totals`` equals that table summed."""

    BBOX = BoundingBox(0.0, 0.0, 10.0, 10.0)  # points at -3 and 12 lie outside

    BUDGETS = (1, 7, 4096, 1 << 16)

    @classmethod
    def _check_counts(cls, index, queries, ts, want, monkeypatch):
        """Table, legacy table and (on a grid) totals at every budget."""
        for budget in cls.BUDGETS:
            monkeypatch.setattr(counts, "_PAIR_BUDGET", budget)
            table = threshold_counts(index, queries, ts)
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, want)
            np.testing.assert_array_equal(
                legacy_threshold_counts(index, queries, ts), table)
            totals = threshold_totals(index, queries, ts)
            assert totals.dtype == np.int64 and totals.shape == (len(ts),)
            np.testing.assert_array_equal(totals, want.sum(axis=0))
            np.testing.assert_array_equal(totals, table.sum(axis=0))

    @classmethod
    def _check_neighbor_lists(cls, index, points, queries, radius, monkeypatch):
        """Per query: the batched ids are the brute-force set, in the
        order ``range_indices`` returns them, at any chunk and block size."""
        single = ([index.range_indices(q, radius).tolist() for q in queries]
                  if radius > 0.0 else None)
        for budget in cls.BUDGETS:
            monkeypatch.setattr(counts, "_PAIR_BUDGET", budget)
            for block in (1, 5, counts.QUERY_BLOCK):
                monkeypatch.setattr(counts, "QUERY_BLOCK", block)
                got = []
                for start, bounds, ids, d2 in index.neighbor_blocks(queries, radius):
                    assert start == len(got)
                    assert ids.shape == d2.shape
                    got += [ids[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]
                assert len(got) == queries.shape[0]
                for q, ids in zip(queries, got):
                    assert set(ids) == brute_indices(points, q, radius)
                    assert len(set(ids)) == len(ids)
                if single is not None:
                    assert got == single

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(_point, min_size=1, max_size=40),
        queries=st.lists(_point, min_size=0, max_size=12),
        ts=st.lists(_threshold, min_size=1, max_size=6),
        cell=st.sampled_from([1e-160, 0.7, 3.0]),
    )
    @example(points=[(0.0, 0.0), (0.0, 0.0), (1e-170, 0.0), (0.0, 2e-160)],
             queries=[(0.0, 0.0), (1e-170, 0.0)], ts=[1e-160, 0.0, 1e-160],
             cell=1e-160)
    @example(points=[(1.0, 1.0)] * 5 + [(12.0, -3.0)],
             queries=[(1.0, 1.0), (-3.0, 12.0)], ts=[2.5, -1.0, 0.0, 30.0],
             cell=0.7)
    @example(points=[(0.5, 0.5), (1.0, 1.0), (12.0, 12.0), (-3.0, 0.5)],
             queries=[(0.5, 0.5), (12.0, 12.0), (-3.0, -3.0)],
             ts=[30.0, 0.5, -0.0, 0.5, -1.0, 2.5], cell=3.0)
    def test_matches_brute_force(self, points, queries, ts, cell):
        want = brute_table(points, queries, ts)
        pts = np.array(points)
        q = np.array(queries, dtype=np.float64).reshape(-1, 2)
        # Cells no smaller than the largest threshold keep each query's
        # block small on the dynamic grid's 2**20-per-axis lattice.
        dyn = DynamicGridIndex(self.BBOX, max(cell, max(ts)))
        dyn.insert_many(pts)
        indexes = (GridIndex(pts, cell, bbox=self.BBOX), dyn)
        with pytest.MonkeyPatch.context() as mp:
            for index in indexes:
                self._check_counts(index, q, ts, want, mp)
            # Fresh dynamic slots are 0..n-1, the static point indices.
            for index in indexes:
                self._check_neighbor_lists(index, pts, q, max(max(ts), 0.0), mp)

    def test_empty_index_and_empty_queries(self, random_points):
        ts = [0.0, 1.0, -1.0]
        empty = DynamicGridIndex(self.BBOX, 1.0)
        table = threshold_counts(empty, random_points[:5], ts)
        np.testing.assert_array_equal(table, np.zeros((5, 3), dtype=np.int64))
        slots = empty.insert_many(random_points[:3])
        empty.remove_many(slots)
        assert threshold_counts(empty, random_points[:5], ts).sum() == 0
        assert threshold_totals(empty, random_points[:5], ts).tolist() == [0, 0, 0]
        for index in (GridIndex(random_points, 1.0), empty):
            table = threshold_counts(index, np.empty((0, 2)), ts)
            assert table.shape == (0, 3) and table.dtype == np.int64
            totals = threshold_totals(index, np.empty((0, 2)), ts)
            assert totals.tolist() == [0, 0, 0] and totals.dtype == np.int64

    def test_chunks_split_mid_query_and_mid_column(self, monkeypatch):
        # One cell column holds all 50 points: budgets of 1 and 7 cut it.
        pts = np.column_stack([np.full(50, 0.5), np.linspace(0.0, 9.0, 50)])
        index = GridIndex(pts, 1.0, bbox=self.BBOX)
        ts = [0.0, 0.25, 3.0, 9.0]
        want = brute_table(pts, pts[::7], ts)
        self._check_counts(index, pts[::7], ts, want, monkeypatch)

    def test_totals_need_a_grid_and_a_threshold(self, random_points):
        with pytest.raises(ParameterError, match="GridIndex"):
            threshold_totals(KDTree(random_points), random_points[:3], [1.0])
        with pytest.raises(ParameterError, match="thresholds"):
            threshold_totals(GridIndex(random_points, 1.0), random_points[:3], [])
