"""The Gaussian ``naive`` gather by separable factors vs the elementwise formula.

``kde_naive`` computes the Gaussian as two factor tables per point chunk
and, per y-band, one stacked BLAS product over (``k``-point slice,
x-tile) whose slices are added in point order.  Its stated contract:

* ``|F_hat - F| <= 1e-12 * F + sqrt(DBL_MIN) * sum(max(w_i, 1))`` against
  the elementwise sum ``F`` (``n * sqrt(DBL_MIN)`` unweighted);
* no output value is subnormal (factors below ``sqrt(DBL_MIN)`` are zero);
* slices and chunks are added in point order, and the bits are the same
  for every ``workers``/``backend`` setting, trace included;
* no BLAS product exceeds ``_PRODUCT_MACS`` multiply-adds.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.kdv import KDVProblem, kde_grid
from repro.core.kdv import naive
from repro.geometry import BoundingBox

DBL_MIN = sys.float_info.min
TINY = np.sqrt(DBL_MIN)
BBOX = BoundingBox(0.0, 0.0, 20.0, 12.0)


def elementwise_gaussian(problem: KDVProblem) -> np.ndarray:
    """Test-local reference: one ``w * exp(-d^2/b^2)`` per point-pixel pair."""
    xs, ys = problem.pixel_centers()
    pts = problem.points
    d2 = ((xs[:, None, None] - pts[None, None, :, 0]) ** 2
          + (ys[None, :, None] - pts[None, None, :, 1]) ** 2)
    vals = np.exp(-d2 / (problem.bandwidth * problem.bandwidth))
    if problem.weights is not None:
        vals = vals * problem.weights
    return vals.sum(axis=2)


def assert_within_bound(got: np.ndarray, problem: KDVProblem) -> None:
    ref = elementwise_gaussian(problem)
    w = np.ones(problem.n) if problem.weights is None else problem.weights
    bound = 1e-12 * ref + TINY * np.maximum(w, 1.0).sum()
    excess = np.abs(got - ref) - bound
    assert excess.max() <= 0.0, f"bound exceeded by {excess.max():.3g}"


def _points(n, seed=0, bbox=BBOX):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(bbox.xmin, bbox.xmax, n),
                            rng.uniform(bbox.ymin, bbox.ymax, n)])


def assert_products_within_budget(problem: KDVProblem) -> None:
    chunk, k, tx, ty = naive._tiling(problem.n, problem.nx, problem.ny)
    assert chunk % k == 0
    assert tx * k * ty <= naive._PRODUCT_MACS


class TestStatedBound:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunks_that_do_not_divide_n(self, monkeypatch, weighted):
        # 4 x 4 x 7 products: 37 columns pad to ten x-tiles, 23 rows to
        # six y-bands, and a 28-point chunk (four slices) over 101 points
        # leaves a 17-point chunk whose third slice holds 3 points.
        size = (37, 23)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 8 * (40 + 24) * 30)
        monkeypatch.setattr(naive, "_PRODUCT_MACS", 112)
        assert naive._tiling(101, *size) == (28, 7, 4, 4)
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.0, 3.0, 101) if weighted else None
        problem = KDVProblem(_points(101), BBOX, size, 1.3, "gaussian",
                             weights=weights)
        assert_products_within_budget(problem)
        assert_within_bound(naive.kde_naive(problem).values, problem)

    def test_coincident_points(self):
        problem = KDVProblem(_points(40), BBOX, (24, 16), 1.0, "gaussian")
        xs, ys = problem.pixel_centers()
        # Thirty points on one pixel centre, ten on another.
        pts = np.array([[xs[3], ys[5]]] * 30 + [[xs[20], ys[2]]] * 10)
        problem = KDVProblem(pts, BBOX, (24, 16), 1.0, "gaussian")
        got = naive.kde_naive(problem).values
        assert_within_bound(got, problem)
        assert got[3, 5] == pytest.approx(30.0, rel=1e-12)

    def test_one_pixel_grid(self):
        problem = KDVProblem(_points(50), BBOX, (1, 1), 4.0, "gaussian",
                             weights=np.linspace(0.0, 2.0, 50))
        got = naive.kde_naive(problem).values
        assert got.shape == (1, 1)
        assert_within_bound(got, problem)

    def test_far_pixels_below_1e_150(self):
        # Points in one corner and a narrow bandwidth: far pixels'
        # densities reach below 1e-150, where the zeroed factors live.
        corner = BoundingBox(0.0, 0.0, 4.0, 3.0)
        problem = KDVProblem(_points(30, seed=3, bbox=corner), BBOX, (64, 48),
                             0.35, "gaussian")
        ref = elementwise_gaussian(problem)
        assert ((ref > 0.0) & (ref < 1e-150)).any()
        assert_within_bound(naive.kde_naive(problem).values, problem)

    @pytest.mark.parametrize("weight", [None, 1e-8])
    def test_no_subnormal_output(self, weight):
        # One point in the corner: pixel (i, j) holds w * exp(-(u_i + v_j))
        # with u, v spanning 0..900, so products in the subnormal range
        # (exponents 708..745) would appear if small factors were kept;
        # a weight below 1 must be applied before the x-factors are zeroed.
        bbox = BoundingBox(0.0, 0.0, 30.0, 30.0)
        problem = KDVProblem(np.array([[0.0, 0.0]]), bbox, (120, 120), 1.0,
                             "gaussian",
                             weights=None if weight is None else [weight])
        got = naive.kde_naive(problem).values
        nonzero = got[got != 0.0]
        assert nonzero.size and nonzero.min() >= DBL_MIN
        assert_within_bound(got, problem)


class TestAccumulationOrder:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunks_are_added_in_point_order(self, monkeypatch, weighted):
        # One point per slice, five slices per chunk: each slice's product
        # is the exact outer product of its two factor rows, so a chunk
        # adds the sum of its outer products, taken in point order, to
        # the output, and the chunks follow in point order, bit for bit.
        size = (19, 11)
        monkeypatch.setattr(naive, "_PRODUCT_MACS", 4)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 8 * (20 + 12) * 5)
        assert naive._tiling(60, *size) == (5, 1, 2, 2)
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.1, 2.0, 60) if weighted else None
        problem = KDVProblem(_points(60, seed=7), BBOX, size, 2.5,
                             "gaussian", weights=weights)
        got = naive.kde_naive(problem).values

        xs, ys = problem.pixel_centers()
        scale = -1.0 / (problem.bandwidth * problem.bandwidth)
        fx, fy = np.empty((len(xs), 1)), np.empty((1, len(ys)))
        scratch = np.empty(max(size))
        ref = np.zeros(size)
        for start in range(0, 60, 5):
            chunk = np.zeros(size)
            for k in range(start, start + 5):
                px, py = problem.points[k]
                w = None if weights is None else weights[k:k + 1][None, :]
                naive._factors(xs[:, None], np.array([[px]]), scale, fx,
                               scratch, w)
                naive._factors(np.array([[py]]), ys[None, :], scale, fy,
                               scratch)
                chunk += fx @ fy
            ref += chunk
        assert np.array_equal(got, ref)


class TestWorkerInvariance:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_follow_neither_workers_nor_backend(self, backend,
                                                     weighted):
        # 2,500 points on 64 x 150 pixels span three chunks, the last
        # one partial; 150 rows make three y-bands of 50, so two and four
        # workers take different runs of bands.
        pts = _points(2_500, seed=11)
        weights = (np.random.default_rng(11).uniform(0.0, 2.0, 2_500)
                   if weighted else None)
        chunk, _, _, ty = naive._tiling(2_500, 64, 150)
        assert (chunk < 2_500 < 3 * chunk, ty) == (True, 50)
        ref = kde_grid(pts, BBOX, (64, 150), 0.8, kernel="gaussian",
                       method="naive", weights=weights, workers=1).values
        for workers in (1, 2, 4):
            got = kde_grid(pts, BBOX, (64, 150), 0.8, kernel="gaussian",
                           method="naive", weights=weights, workers=workers,
                           backend=backend).values
            assert np.array_equal(got, ref), (backend, workers)

    def test_bands_trace_is_worker_invariant(self):
        pts = _points(900, seed=5)

        def shape(node):
            return (node["name"], node["calls"],
                    tuple(sorted(node["counters"].items())),
                    tuple(shape(c) for c in node["children"]))

        traces = []
        for workers, backend in [(1, "serial"), (2, "thread"), (4, "thread")]:
            with obs.enabled() as trace:
                kde_grid(pts, BBOX, (40, 30), 1.0, kernel="gaussian",
                         method="naive", workers=workers, backend=backend)
            diag = trace.diagnostics()
            traces.append((diag.counters(), shape(diag.root.as_dict())))
        counters, tree = traces[0]
        assert counters["kdv.factor_evals"] == 900 * (40 + 30)
        assert "kdv.bands" in repr(tree)
        assert all(t == traces[0] for t in traces[1:])


@st.composite
def _gathers(draw):
    """A Gaussian problem plus product and chunk budgets small enough to
    leave remainders in the x-tiles, y-bands, k-slices and point chunks."""
    nx = draw(st.integers(1, 24))
    ny = draw(st.integers(1, 24))
    n = draw(st.integers(1, 80))
    macs = draw(st.integers(4, 400))
    chunk_bytes = draw(st.integers(8, 20_000))
    bandwidth = draw(st.floats(0.05, 15.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _points(n, seed=int(rng.integers(2**32)))
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.0, 3.0, n) * (rng.random(n) > 0.2)
    return (nx, ny), pts, bandwidth, weights, macs, chunk_bytes


class TestSeparableProperty:
    @settings(max_examples=50, deadline=None)
    @given(_gathers())
    @example(((37, 23), _points(101), 1.3, None, 112, 8 * 64 * 30))
    @example(((37, 23), _points(101), 0.1, np.linspace(0.0, 3.0, 101), 112,
              8 * 64 * 30))
    @example(((1, 1), _points(50), 4.0, np.linspace(0.0, 2.0, 50), 400, 56))
    @example(((1, 19), _points(33), 0.3, None, 40, 8 * 22 * 9))
    @example(((24, 24), np.zeros((1, 2)), 0.35, None, 400, 20_000))
    def test_bound_subnormals_and_worker_bits(self, case):
        size, pts, bandwidth, weights, macs, chunk_bytes = case
        problem = KDVProblem(pts, BBOX, size, bandwidth, "gaussian",
                             weights=weights)
        with mock.patch.object(naive, "_PRODUCT_MACS", macs), \
                mock.patch.object(naive, "_CHUNK_BYTES", chunk_bytes):
            assert_products_within_budget(problem)
            got = naive.kde_naive(problem).values
            assert_within_bound(got, problem)
            nonzero = got[got != 0.0]
            assert not nonzero.size or nonzero.min() >= DBL_MIN
            for backend in ("thread", "process"):
                for workers in (2, 4):
                    other = naive.kde_naive(problem, workers=workers,
                                            backend=backend).values
                    assert np.array_equal(other, got), (backend, workers)
