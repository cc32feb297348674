"""The Gaussian ``naive`` gather by separable factors vs the elementwise formula.

``kde_naive`` computes the Gaussian as two factor tables and one BLAS
product per point chunk and row band.  Its stated contract:

* ``|F_hat - F| <= 1e-12 * F + sqrt(DBL_MIN) * sum(max(w_i, 1))`` against
  the elementwise sum ``F`` (``n * sqrt(DBL_MIN)`` unweighted);
* no output value is subnormal (factors below ``sqrt(DBL_MIN)`` are zero);
* chunks are added in point order, and the bits are the same for every
  ``workers``/``backend`` setting, trace included.
"""

import sys

import numpy as np
import pytest

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


class TestStatedBound:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunks_that_do_not_divide_n(self, monkeypatch, weighted):
        # A 7-point chunk over 101 points leaves a 3-point remainder, and
        # a small product budget splits the x-table into padded tiles.
        size = (37, 23)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 8 * sum(size) * 7)
        monkeypatch.setattr(naive, "_PRODUCT_MACS", 7 * 2 * 10)
        edges = np.linspace(0, 23, naive._BANDS + 1).astype(int)
        spans = list(zip(edges[:-1], edges[1:]))
        assert naive._tiling(101, 37, spans) == (7, 4, 10)
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.0, 3.0, 101) if weighted else None
        problem = KDVProblem(_points(101), BBOX, size, 1.3, "gaussian",
                             weights=weights)
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
        # One point per chunk: each chunk's product is the exact outer
        # product of its two factor rows, so the output must equal the
        # sum of those outer products taken in point order, bit for bit.
        size = (19, 11)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 8 * sum(size))
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.1, 2.0, 60) if weighted else None
        problem = KDVProblem(_points(60, seed=7), BBOX, size, 2.5,
                             "gaussian", weights=weights)
        got = naive.kde_naive(problem).values

        xs, ys = problem.pixel_centers()
        scale = -1.0 / (problem.bandwidth * problem.bandwidth)
        fx, fy = np.empty((len(xs), 1)), np.empty((len(ys), 1))
        scratch = np.empty((max(size), 1))
        ref = np.zeros(size)
        for k, (px, py) in enumerate(problem.points):
            w = None if weights is None else weights[k:k + 1]
            naive._factors(xs, np.array([px]), scale, fx,
                           scratch[:len(xs)], w)
            naive._factors(ys, np.array([py]), scale, fy, scratch[:len(ys)])
            ref += np.outer(fx[:, 0], fy[:, 0])
        assert np.array_equal(got, ref)


class TestWorkerInvariance:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_follow_neither_workers_nor_backend(self, backend,
                                                     weighted):
        # 2,500 points on 64 x 48 pixels span two chunks, the second one
        # partial; 48 rows make 16 bands of three.
        pts = _points(2_500, seed=11)
        weights = (np.random.default_rng(11).uniform(0.0, 2.0, 2_500)
                   if weighted else None)
        assert naive._tiling(2_500, 64, [(0, 48)])[0] < 2_500
        ref = kde_grid(pts, BBOX, (64, 48), 0.8, kernel="gaussian",
                       method="naive", weights=weights, workers=1).values
        for workers in (1, 2, 4):
            got = kde_grid(pts, BBOX, (64, 48), 0.8, kernel="gaussian",
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
