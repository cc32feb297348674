"""repro.stream: window semantics, delta-vs-batch equality, dirty tiles.

The streaming engine's contract is threefold:

* **window** — FIFO sliding semantics, net deltas, monotone-time guard;
* **equality** — streamed analytics over given window contents equal
  their batch counterparts (exactly for the integer-state hotspot/K,
  within the published drift tolerance for the float KDV surface);
* **exactness** — the dirty-tile ledger flags a tile iff one of its
  pixels actually changed, verified against a full-surface diff.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.autocorrelation import local_gi_star
from repro.core.kdv import MultiSurfaceAccumulator, kde_grid
from repro.core.kfunction import ripley_k
from repro.data import chicago_crime, hawkes_stream
from repro.errors import DataError, ParameterError
from repro.stream import (
    DirtyTileLedger,
    StreamEngine,
    StreamingHotspot,
    StreamingKDV,
    StreamingKFunction,
    StreamWindow,
)

BBOX = repro.BoundingBox(0.0, 0.0, 20.0, 20.0)


def feed(n, seed=7):
    return hawkes_stream(BBOX, n, mu=1.0, seed=seed)


class TestStreamWindow:
    def test_count_window_slides_fifo(self):
        win = StreamWindow(capacity=5)
        pts = np.arange(16, dtype=float).reshape(8, 2)
        ts = np.arange(8, dtype=float)
        d1 = win.push(pts[:4], ts[:4])
        assert d1.n_entered == 4 and d1.n_left == 0
        d2 = win.push(pts[4:], ts[4:])
        assert d2.n_entered == 4 and d2.n_left == 3
        assert len(win) == 5
        np.testing.assert_array_equal(win.points, pts[3:])
        np.testing.assert_array_equal(d2.left_points, pts[:3])

    def test_time_window_expires_by_horizon(self):
        win = StreamWindow(horizon=2.0)
        pts = np.zeros((5, 2))
        d = win.push(pts, [0.0, 0.5, 1.0, 2.5, 3.0])
        # cutoff = 3.0 - 2.0 = 1.0; events at t <= 1.0 expire.
        assert len(win) == 2
        # Those pushed-and-immediately-expired events appear in neither set.
        assert d.n_entered == 2 and d.n_left == 0

    def test_net_delta_when_batch_overflows_capacity(self):
        win = StreamWindow(capacity=3)
        win.push(np.ones((2, 2)), [0.0, 1.0])
        d = win.push(np.full((5, 2), 2.0), [2.0, 3.0, 4.0, 5.0, 6.0])
        # All 2 old events left; 2 of the 5 pushed died on arrival.
        assert d.n_left == 2 and d.n_entered == 3
        assert len(win) == 3

    def test_rejects_time_regression(self):
        win = StreamWindow(capacity=10)
        win.push(np.zeros((2, 2)), [0.0, 1.0])
        with pytest.raises(DataError):
            win.push(np.zeros((1, 2)), [0.5])
        with pytest.raises(DataError):
            win.push(np.zeros((2, 2)), [3.0, 2.0])

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ParameterError):
            StreamWindow()
        with pytest.raises(ParameterError):
            StreamWindow(capacity=5, horizon=1.0)

    def test_buffer_compaction_preserves_contents(self):
        win = StreamWindow(capacity=10)
        t = 0.0
        for _ in range(200):
            win.push(np.random.default_rng(int(t)).uniform(size=(7, 2)),
                     np.full(7, t))
            t += 1.0
        assert len(win) == 10
        assert np.all(win.times == win.times[0]) or np.all(np.diff(win.times) >= 0)


class TestStreamEngine:
    def test_fans_deltas_to_registered_analytics(self):
        class Probe:
            def __init__(self):
                self.seen = 0

            def apply(self, delta):
                self.seen += delta.n_entered + delta.n_left

        probe = Probe()
        eng = StreamEngine(StreamWindow(capacity=50))
        eng.register("probe", probe)
        pts, ts = feed(120)
        for c0 in range(0, 120, 40):
            eng.push(pts[c0:c0 + 40], ts[c0:c0 + 40])
        assert probe.seen >= 120
        assert eng.events_pushed == 120 and eng.pushes == 3

    def test_rejects_duplicate_and_invalid_registration(self):
        eng = StreamEngine(StreamWindow(capacity=5))
        eng.register("kdv", StreamingKDV(BBOX, (32, 32), 1.5))
        with pytest.raises(ParameterError):
            eng.register("kdv", StreamingKDV(BBOX, (32, 32), 1.5))
        with pytest.raises(ParameterError):
            eng.register("bogus", object())


class TestStreamingKDVEqualsBatch:
    def test_maintained_surface_within_drift_tolerance(self):
        pts, ts = feed(2000)
        eng = StreamEngine(StreamWindow(capacity=600))
        kdv = StreamingKDV(BBOX, (96, 64), 1.5, rescatter_ratio=None)
        eng.register("kdv", kdv)
        for c0 in range(0, 2000, 100):
            eng.push(pts[c0:c0 + 100], ts[c0:c0 + 100])
        fresh = kde_grid(eng.window.points, BBOX, (96, 64), 1.5,
                         method="grid").values
        diff = np.abs(kdv.accumulator.surface(0) - fresh).max()
        assert diff <= kdv.accumulator.drift_tolerance

    def test_drift_policy_triggers_rescatter_and_restores_identity(self):
        pts, ts = feed(1500)
        eng = StreamEngine(StreamWindow(capacity=300))
        # Aggressive policy: gross/net reaches 2 quickly under churn.
        kdv = StreamingKDV(BBOX, (64, 48), 1.5, rescatter_ratio=2.0)
        eng.register("kdv", kdv)
        for c0 in range(0, 1500, 100):
            eng.push(pts[c0:c0 + 100], ts[c0:c0 + 100])
        assert kdv.rescatters > 0
        assert kdv.accumulator.drift_ratio < 2.0
        # The window (300 events) fits a single rescatter chunk, so the
        # most recent rebuild is bit-identical to a fresh serial add --
        # drift since then is only the post-rescatter pushes.
        fresh = kde_grid(eng.window.points, BBOX, (64, 48), 1.5,
                         method="grid").values
        diff = np.abs(kdv.accumulator.surface(0) - fresh).max()
        assert diff <= kdv.accumulator.drift_tolerance

    def test_snapshot_diagnostics_and_staleness(self):
        pts, ts = feed(300)
        eng = StreamEngine(StreamWindow(capacity=100))
        kdv = StreamingKDV(BBOX, (32, 32), 2.0)
        eng.register("kdv", kdv)
        eng.push(pts[:200], ts[:200])
        grid = kdv.snapshot()
        rec = grid.diagnostics.records
        assert rec["staleness"] == rec["events_applied"]
        assert kdv.staleness == 0
        eng.push(pts[200:], ts[200:])
        rec2 = kdv.snapshot().diagnostics.records
        assert 0 < rec2["staleness"] < rec2["events_applied"]


class TestDirtyTileLedger:
    def test_tile_flagged_iff_pixels_changed(self):
        """Exactness both ways, verified against a full-surface diff."""
        pts, ts = feed(900, seed=11)
        eng = StreamEngine(StreamWindow(capacity=400))
        kdv = StreamingKDV(BBOX, (96, 64), 1.0, tile=16,
                           rescatter_ratio=None)
        eng.register("kdv", kdv)
        eng.push(pts[:400], ts[:400])
        kdv.snapshot()  # clears the ledger
        before = kdv.accumulator.surface(0)
        eng.push(pts[400:900], ts[400:900])
        after = kdv.accumulator.surface(0)
        mask = kdv.ledger.mask
        ledger = kdv.ledger
        changed = before != after
        for tx in range(ledger.tiles_nx):
            for ty in range(ledger.tiles_ny):
                x0, x1, y0, y1 = ledger.bounds(tx, ty)
                assert mask[tx, ty] == bool(changed[x0:x1, y0:y1].any()), (
                    f"tile ({tx}, {ty}): ledger={mask[tx, ty]}, "
                    f"surface diff={bool(changed[x0:x1, y0:y1].any())}"
                )

    def test_exactness_survives_rescatter(self):
        pts, ts = feed(1200, seed=13)
        eng = StreamEngine(StreamWindow(capacity=200))
        kdv = StreamingKDV(BBOX, (64, 64), 1.0, tile=16, rescatter_ratio=2.0)
        eng.register("kdv", kdv)
        eng.push(pts[:300], ts[:300])
        kdv.snapshot()
        before = kdv.accumulator.surface(0)
        for c0 in range(300, 1200, 100):
            eng.push(pts[c0:c0 + 100], ts[c0:c0 + 100])
        assert kdv.rescatters > 0
        after = kdv.accumulator.surface(0)
        mask = kdv.ledger.mask
        changed = before != after
        ledger = kdv.ledger
        for tx in range(ledger.tiles_nx):
            for ty in range(ledger.tiles_ny):
                x0, x1, y0, y1 = ledger.bounds(tx, ty)
                if changed[x0:x1, y0:y1].any():
                    assert mask[tx, ty]

    def test_take_clears_and_bounds_validate(self):
        ledger = DirtyTileLedger(40, 30, tile=16)
        assert ledger.tiles_nx == 3 and ledger.tiles_ny == 2
        assert ledger.bounds(2, 1) == (32, 40, 16, 30)
        ledger.mark(1, 1)
        assert ledger.dirty_count == 1
        taken = ledger.take()
        assert taken[1, 1] and taken.sum() == 1
        assert ledger.dirty_count == 0
        with pytest.raises(ParameterError):
            ledger.bounds(3, 0)


class TestStreamingHotspotEqualsBatch:
    def test_streamed_gi_star_equals_batch(self):
        pts, ts = feed(1500, seed=3)
        eng = StreamEngine(StreamWindow(capacity=500))
        hot = StreamingHotspot(BBOX, (12, 10))
        eng.register("hotspot", hot)
        for c0 in range(0, 1500, 150):
            eng.push(pts[c0:c0 + 150], ts[c0:c0 + 150])
            batch = local_gi_star(hot.bin(eng.window.points), hot.weights)
            snap = hot.snapshot()
            np.testing.assert_allclose(
                snap.values.ravel(), batch, rtol=0.0, atol=1e-9
            )

    def test_counts_match_binning(self):
        pts, ts = feed(400, seed=5)
        eng = StreamEngine(StreamWindow(capacity=150))
        hot = StreamingHotspot(BBOX, (8, 8), contiguity="rook")
        eng.register("hotspot", hot)
        for c0 in range(0, 400, 80):
            eng.push(pts[c0:c0 + 80], ts[c0:c0 + 80])
        np.testing.assert_array_equal(hot.counts, hot.bin(eng.window.points))
        assert hot.n_points == 150

    def test_empty_window_snapshot_raises(self):
        hot = StreamingHotspot(BBOX, (6, 6))
        with pytest.raises(DataError):
            hot.snapshot()


class TestStreamingKFunctionEqualsBatch:
    THRESHOLDS = (0.5, 1.0, 2.0, 3.0)

    def test_streamed_k_equals_batch(self):
        pts, ts = feed(1200, seed=9)
        eng = StreamEngine(StreamWindow(capacity=400))
        kf = StreamingKFunction(BBOX, self.THRESHOLDS)
        eng.register("k", kf)
        for c0 in range(0, 1200, 120):
            eng.push(pts[c0:c0 + 120], ts[c0:c0 + 120])
            batch = ripley_k(
                eng.window.points, self.THRESHOLDS, BBOX, method="grid"
            )
            snap = kf.snapshot()
            np.testing.assert_allclose(snap.k, batch, rtol=0.0, atol=1e-9)
            assert snap.n_points == len(eng.window)

    def test_integer_counts_match_batch_exactly(self):
        pts, ts = feed(600, seed=2)
        eng = StreamEngine(StreamWindow(capacity=250))
        kf = StreamingKFunction(BBOX, self.THRESHOLDS)
        eng.register("k", kf)
        for c0 in range(0, 600, 100):
            eng.push(pts[c0:c0 + 100], ts[c0:c0 + 100])
        batch_counts = repro.k_function(
            eng.window.points, np.asarray(self.THRESHOLDS), method="grid"
        )
        np.testing.assert_array_equal(kf.counts, batch_counts)

    def test_parallel_query_path_matches_serial(self):
        pts, ts = feed(1600, seed=4)
        serial = StreamingKFunction(BBOX, self.THRESHOLDS, workers=1)
        threaded = StreamingKFunction(BBOX, self.THRESHOLDS, workers=2,
                                      backend="thread")
        for kf in (serial, threaded):
            eng = StreamEngine(StreamWindow(capacity=1400))
            eng.register("k", kf)
            # One push of 1600 events exceeds the 512-event query chunk.
            eng.push(pts, ts)
        np.testing.assert_array_equal(serial.counts, threaded.counts)

    def test_tiny_threshold_push_matches_batch(self):
        # Cells of 1e-160 are far smaller than the candidate search reach,
        # so each query spans millions of (mostly empty) lattice cells.
        bbox = repro.BoundingBox(0.0, 0.0, 1.0, 1.0)
        thresholds = [1e-160]
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1e-170, 0.0],
                        [0.0, 5e-161], [0.0, 2e-160], [0.5, 0.5]])
        eng = StreamEngine(StreamWindow(capacity=10))
        kf = StreamingKFunction(bbox, thresholds)
        eng.register("k", kf)
        eng.push(pts, np.arange(len(pts), dtype=np.float64))
        batch = ripley_k(pts, thresholds, bbox, method="grid")
        np.testing.assert_array_equal(kf.snapshot().k, batch)
        np.testing.assert_array_equal(
            kf.counts, repro.k_function(pts, np.asarray(thresholds),
                                        method="naive"))

    def test_rejects_zero_rmax_and_underflow(self):
        with pytest.raises(ParameterError):
            StreamingKFunction(BBOX, [0.0])
        kf = StreamingKFunction(BBOX, [1.0])
        with pytest.raises(ParameterError):
            kf.snapshot()  # fewer than two points


class TestStreamingKFunctionMemory:
    """A push's K update is sized by the pair budget, not the batch squared."""

    def test_one_push_on_a_20k_window_peaks_under_8_mib(self):
        data = chicago_crime(21_000, seed=3)
        times = np.arange(21_000, dtype=np.float64)
        window = StreamWindow(capacity=20_000)
        kf = StreamingKFunction(data.bbox, (0.1, 0.2, 0.3, 0.5))
        for c0 in range(0, 20_000, 1_000):
            kf.apply(window.push(data.points[c0:c0 + 1_000],
                                 times[c0:c0 + 1_000]))
        delta = window.push(data.points[20_000:], times[20_000:])
        assert delta.n_entered == delta.n_left == 1_000
        tracemalloc.start()
        try:
            kf.apply(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        np.testing.assert_array_equal(
            kf.counts, repro.k_function(window.points, [0.1, 0.2, 0.3, 0.5]))


class TestDeterminism:
    """Same event sequence => bit-identical f64 surfaces for any workers."""

    def test_streamed_kdv_bit_identical_across_workers(self):
        pts, ts = feed(1500, seed=21)
        surfaces = []
        for workers in (1, 2):
            eng = StreamEngine(StreamWindow(capacity=300))
            kdv = StreamingKDV(BBOX, (64, 48), 1.5, rescatter_ratio=2.0,
                               workers=workers, backend="thread")
            eng.register("kdv", kdv)
            for c0 in range(0, 1500, 100):
                eng.push(pts[c0:c0 + 100], ts[c0:c0 + 100])
            assert kdv.rescatters > 0
            surfaces.append(kdv.accumulator.surface(0))
        np.testing.assert_array_equal(surfaces[0], surfaces[1])

    def test_parallel_rescatter_bit_identical_across_workers(self):
        pts, _ = feed(9000, seed=23)
        w = np.ones((9000, 1))
        banks = []
        for workers in (1, 2):
            acc = MultiSurfaceAccumulator(BBOX, (64, 48), 1.5)
            acc.rescatter(pts, w, workers=workers, backend="thread")
            banks.append(acc.surface(0))
        np.testing.assert_array_equal(banks[0], banks[1])

    def test_single_chunk_rescatter_equals_fresh_add(self):
        pts, _ = feed(800, seed=25)
        acc = MultiSurfaceAccumulator(BBOX, (64, 48), 1.5)
        acc.add_weighted(pts[:500], np.ones((500, 1)))
        acc.remove_weighted(pts[:200], np.ones((200, 1)))
        acc.rescatter(pts[200:500], np.ones((300, 1)))
        fresh = kde_grid(pts[200:500], BBOX, (64, 48), 1.5, method="grid").values
        np.testing.assert_array_equal(acc.surface(0), fresh)


@st.composite
def interleavings(draw):
    """A random schedule of push batch sizes over a fixed event feed."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=60),
                          min_size=3, max_size=8))
    capacity = draw(st.integers(min_value=30, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return sizes, capacity, seed


class TestStreamedEqualsBatchProperty:
    """Hypothesis: any push/expire interleaving, streamed == batch."""

    @settings(max_examples=15, deadline=None)
    @given(interleavings())
    def test_gi_star_and_k_match_batch(self, schedule):
        sizes, capacity, seed = schedule
        total = sum(sizes)
        pts, ts = hawkes_stream(BBOX, total, mu=1.0, seed=seed)
        eng = StreamEngine(StreamWindow(capacity=capacity))
        hot = StreamingHotspot(BBOX, (8, 6))
        kf = StreamingKFunction(BBOX, (1.0, 2.5))
        eng.register("hotspot", hot)
        eng.register("k", kf)
        c0 = 0
        for size in sizes:
            eng.push(pts[c0:c0 + size], ts[c0:c0 + size])
            c0 += size
        wpts = eng.window.points

        counts = hot.bin(wpts)
        if np.unique(counts).size > 1:
            batch_g = local_gi_star(counts, hot.weights)
            np.testing.assert_allclose(
                hot.snapshot().values.ravel(), batch_g, rtol=0.0, atol=1e-9
            )
        if wpts.shape[0] >= 2:
            batch_k = ripley_k(wpts, (1.0, 2.5), BBOX, method="grid")
            np.testing.assert_allclose(
                kf.snapshot().k, batch_k, rtol=0.0, atol=1e-9
            )
