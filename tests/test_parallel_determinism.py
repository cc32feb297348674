"""Worker-invariance tests: every Monte-Carlo / fan-out result must be
bit-identical for every worker count and backend.

This is the library's determinism contract (see ``docs/PERFORMANCE.md``):
parallelism changes wall-time only, never output.  Each test computes a
reference at ``workers=1, backend="serial"`` and asserts exact equality
(``np.array_equal`` / ``==``, not ``allclose``) against workers in
{2, 4} and the thread backend.
"""

import numpy as np
import pytest

from repro.core.autocorrelation import (
    gearys_c,
    knn_weights,
    lattice_weights,
    local_morans_i,
    morans_i,
)
from repro.core.interpolation import VariogramModel, idw_predict, ordinary_kriging
from repro.core.kfunction import (
    global_envelope_test,
    k_function_plot,
    network_k_function_plot,
    st_k_function_plot,
)
from repro.core.nkdv import nkdv
from repro.core.stkdv import stkdv
from repro.data import chicago_crime, hk_covid, network_accidents
from repro.geometry import BoundingBox
from repro.network import grid_network

WORKER_GRID = [2, 4]
BACKENDS = ["serial", "thread"]

SEED = 1234


@pytest.fixture(scope="module")
def crime():
    return chicago_crime(120, seed=7)


@pytest.fixture(scope="module")
def covid():
    return hk_covid(60, 80, seed=8)


@pytest.fixture(scope="module")
def road():
    network = grid_network(5, 5, spacing=1.0)
    events = network_accidents(network, 40, seed=9)
    return network, events


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 10, size=(50, 2))
    vals = np.sin(pts[:, 0]) + np.cos(pts[:, 1])
    queries = rng.uniform(0, 10, size=(300, 2))
    return pts, vals, queries


def _grid(workers_only=False):
    """(workers, backend) pairs compared against the serial reference."""
    pairs = [(w, "thread") for w in WORKER_GRID]
    if not workers_only:
        pairs += [(2, "serial")]
    return pairs


class TestEnvelopeDeterminism:
    def test_k_function_plot(self, crime):
        ts = np.linspace(0.5, 4.0, 6)
        ref = k_function_plot(
            crime.points, crime.bbox, ts, n_simulations=19, seed=SEED,
            workers=1, backend="serial",
        )
        for workers, backend in _grid():
            got = k_function_plot(
                crime.points, crime.bbox, ts, n_simulations=19, seed=SEED,
                workers=workers, backend=backend,
            )
            assert np.array_equal(got.observed, ref.observed)
            assert np.array_equal(got.lower, ref.lower)
            assert np.array_equal(got.upper, ref.upper)

    def test_global_envelope_test(self, crime):
        ts = np.linspace(0.5, 4.0, 5)
        ref = global_envelope_test(
            crime.points, crime.bbox, ts, n_simulations=19, seed=SEED,
            workers=1, backend="serial",
        )
        for workers, backend in _grid():
            got = global_envelope_test(
                crime.points, crime.bbox, ts, n_simulations=19, seed=SEED,
                workers=workers, backend=backend,
            )
            assert got.mad_observed == ref.mad_observed
            assert got.mad_critical == ref.mad_critical
            assert got.p_value == ref.p_value
            assert np.array_equal(got.sim_mean, ref.sim_mean)

    def test_network_k_plot(self, road):
        network, events = road
        ts = np.array([0.5, 1.0, 2.0])
        ref = network_k_function_plot(
            network, events, ts, n_simulations=9, seed=SEED,
            workers=1, backend="serial",
        )
        for workers, backend in _grid():
            got = network_k_function_plot(
                network, events, ts, n_simulations=9, seed=SEED,
                workers=workers, backend=backend,
            )
            assert np.array_equal(got.lower, ref.lower)
            assert np.array_equal(got.upper, ref.upper)

    @pytest.mark.parametrize("null", ["csr", "permute"])
    def test_st_k_plot(self, covid, null):
        s_ts = np.array([0.5, 1.5])
        t_ts = np.array([20.0, 60.0])
        ref = st_k_function_plot(
            covid.points, covid.times, covid.bbox, s_ts, t_ts,
            n_simulations=9, null=null, seed=SEED, workers=1, backend="serial",
        )
        for workers, backend in _grid():
            got = st_k_function_plot(
                covid.points, covid.times, covid.bbox, s_ts, t_ts,
                n_simulations=9, null=null, seed=SEED,
                workers=workers, backend=backend,
            )
            assert np.array_equal(got.lower, ref.lower)
            assert np.array_equal(got.upper, ref.upper)


class TestPermutationDeterminism:
    def test_morans_i(self, crime):
        w = knn_weights(crime.points, 5)
        z = crime.points[:, 0] + crime.points[:, 1]
        ref = morans_i(z, w, permutations=49, seed=SEED, workers=1, backend="serial")
        for workers, backend in _grid():
            got = morans_i(z, w, permutations=49, seed=SEED,
                           workers=workers, backend=backend)
            assert got.p_permutation == ref.p_permutation
            assert got.statistic == ref.statistic

    def test_gearys_c(self, crime):
        w = knn_weights(crime.points, 5)
        z = crime.points[:, 0] - crime.points[:, 1]
        ref = gearys_c(z, w, permutations=49, seed=SEED, workers=1, backend="serial")
        for workers, backend in _grid():
            got = gearys_c(z, w, permutations=49, seed=SEED,
                           workers=workers, backend=backend)
            assert got.p_permutation == ref.p_permutation

    def test_local_morans_i(self):
        w = lattice_weights(6, 6, "rook")
        rng = np.random.default_rng(11)
        z = rng.normal(size=36)
        ref = local_morans_i(z, w, permutations=49, seed=SEED,
                             workers=1, backend="serial")
        for workers, backend in _grid():
            got = local_morans_i(z, w, permutations=49, seed=SEED,
                                 workers=workers, backend=backend)
            assert np.array_equal(got.p_values, ref.p_values)
            assert np.array_equal(got.statistics, ref.statistics)


class TestFixedPartitionDeterminism:
    """Float-sum reductions: bit-identical thanks to worker-invariant
    chunking (fixed block constants, in-order summation)."""

    @pytest.mark.parametrize("method", ["naive", "shared"])
    def test_nkdv(self, road, method):
        network, events = road
        ref = nkdv(network, events, 0.4, 1.2, method=method,
                   workers=1, backend="serial")
        for workers, backend in _grid():
            got = nkdv(network, events, 0.4, 1.2, method=method,
                       workers=workers, backend=backend)
            assert np.array_equal(got.densities, ref.densities)

    @pytest.mark.parametrize("method", ["naive", "knn"])
    def test_idw(self, field, method):
        pts, vals, queries = field
        ref = idw_predict(pts, vals, queries, method=method,
                          workers=1, backend="serial")
        for workers, backend in _grid():
            got = idw_predict(pts, vals, queries, method=method,
                              workers=workers, backend=backend)
            assert np.array_equal(got, ref)

    def test_kriging(self, field):
        pts, vals, queries = field
        model = VariogramModel("exponential", nugget=0.0, psill=1.0, range_=3.0)
        ref = ordinary_kriging(pts, vals, queries, model, k_neighbors=8,
                               workers=1, backend="serial")
        for workers, backend in _grid():
            got = ordinary_kriging(pts, vals, queries, model, k_neighbors=8,
                                   workers=workers, backend=backend)
            assert np.array_equal(got.predictions, ref.predictions)
            assert np.array_equal(got.variances, ref.variances)

    def test_stkdv(self, covid):
        frames = np.linspace(*covid.time_range, 4)
        ref = stkdv(covid.points, covid.times, covid.bbox, (32, 24), frames,
                    1.5, 20.0, workers=1, backend="serial")
        for workers, backend in _grid():
            got = stkdv(covid.points, covid.times, covid.bbox, (32, 24), frames,
                        1.5, 20.0, workers=workers, backend=backend)
            assert np.array_equal(got.values, ref.values)

    def test_stkdv_shared(self, covid):
        """The shared backend is serial across frames; workers are inert."""
        frames = np.linspace(*covid.time_range, 4)
        ref = stkdv(covid.points, covid.times, covid.bbox, (32, 24), frames,
                    1.5, 20.0, method="shared", workers=1, backend="serial")
        for workers, backend in _grid():
            got = stkdv(covid.points, covid.times, covid.bbox, (32, 24), frames,
                        1.5, 20.0, method="shared", workers=workers,
                        backend=backend)
            assert np.array_equal(got.values, ref.values)

    def test_kde_naive_matches_any_worker_count(self, crime):
        from repro.core.kdv import kde_grid

        bbox = crime.bbox
        ref = kde_grid(crime.points, bbox, (48, 32), 2.0, method="naive",
                       workers=1)
        for workers in WORKER_GRID:
            got = kde_grid(crime.points, bbox, (48, 32), 2.0, method="naive",
                           workers=workers)
            # The band split is fixed and bands write disjoint slices.
            np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=0)


class TestDualTreeDeterminism:
    """The dual-tree plan phase fixes the tile partition from grid
    geometry alone, so refinement output is bit-identical for every
    worker count and backend — weighted or not."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_dualtree_bit_identical(self, crime, weighted):
        from repro.core.kdv import kde_grid

        weights = None
        if weighted:
            weights = np.random.default_rng(SEED).uniform(
                0.0, 3.0, size=crime.points.shape[0]
            )
        ref = kde_grid(
            crime.points, crime.bbox, (48, 32), 2.0, method="dualtree",
            tau=0.2, weights=weights, workers=1, backend="serial",
        )
        for workers, backend in _grid() + [(4, "serial")]:
            got = kde_grid(
                crime.points, crime.bbox, (48, 32), 2.0, method="dualtree",
                tau=0.2, weights=weights, workers=workers, backend=backend,
            )
            assert np.array_equal(got.values, ref.values)

    def test_dualtree_stats_worker_invariant(self, crime):
        """Counters describe the same refinement no matter the pool."""
        from repro.core.kdv import kde_grid

        ref = kde_grid(crime.points, crime.bbox, (48, 32), 2.0,
                       method="dualtree", tau=0.2, workers=1,
                       backend="serial").diagnostics.records["refinement"]
        got = kde_grid(crime.points, crime.bbox, (48, 32), 2.0,
                       method="dualtree", tau=0.2, workers=4,
                       backend="thread").diagnostics.records["refinement"]
        assert got.pairs_visited == ref.pairs_visited
        assert got.tiles_bulk_accepted == ref.tiles_bulk_accepted
        assert got.leaf_leaf_scans == ref.leaf_leaf_scans
        assert got.points_touched == ref.points_touched
        assert got.n_tiles == ref.n_tiles
        assert got.n_jobs == ref.n_jobs


class TestSeedConvention:
    def test_int_and_seedsequence_agree(self, crime):
        ts = np.linspace(0.5, 3.0, 4)
        a = k_function_plot(crime.points, crime.bbox, ts, n_simulations=9,
                            seed=SEED, workers=2)
        b = k_function_plot(crime.points, crime.bbox, ts, n_simulations=9,
                            seed=np.random.SeedSequence(SEED), workers=2)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)


class TestTraceDeterminism:
    """Merged obs counters and span trees are bit-identical for every
    workers/backend combination (the trace side of the contract)."""

    TRACE_GRID = [(1, "serial"), (2, "serial"), (2, "thread"), (4, "thread")]

    @staticmethod
    def _shape(node):
        """Span tree with wall-clock seconds stripped (names/calls/counters
        are deterministic; measured time is not)."""
        return (node["name"], node["calls"], tuple(sorted(node["counters"].items())),
                tuple(TestTraceDeterminism._shape(c) for c in node["children"]))

    def _trace(self, fn):
        from repro import obs

        out = []
        for workers, backend in self.TRACE_GRID:
            with obs.enabled() as trace:
                fn(workers, backend)
            diag = trace.diagnostics()
            out.append((diag.counters(), self._shape(diag.root.as_dict())))
        return out

    def _assert_invariant(self, traces):
        ref_counters, ref_shape = traces[0]
        assert any(ref_counters.values()), "trace collected no counters"
        for counters, shape in traces[1:]:
            assert counters == ref_counters
            assert shape == ref_shape

    def test_kde_grid_trace(self, crime):
        from repro.core.kdv import kde_grid

        self._assert_invariant(self._trace(
            lambda w, b: kde_grid(crime.points, crime.bbox, (32, 24), 2.0,
                                  method="naive", workers=w, backend=b)
        ))

    def test_dualtree_trace(self, crime):
        from repro.core.kdv import kde_grid

        self._assert_invariant(self._trace(
            lambda w, b: kde_grid(crime.points, crime.bbox, (32, 24), 2.0,
                                  method="dualtree", tau=0.2, workers=w,
                                  backend=b)
        ))

    def test_stkdv_trace(self, covid):
        self._assert_invariant(self._trace(
            lambda w, b: stkdv(covid.points, covid.times, covid.bbox,
                               (16, 12), np.linspace(0.5, 3.5, 3), 1.5, 1.0,
                               workers=w, backend=b)
        ))

    def test_k_function_plot_trace(self, crime):
        ts = np.linspace(0.5, 3.0, 4)
        self._assert_invariant(self._trace(
            lambda w, b: k_function_plot(crime.points, crime.bbox, ts,
                                         n_simulations=9, seed=SEED,
                                         workers=w, backend=b)
        ))

    def test_network_k_trace(self, road):
        from repro.core.kfunction import network_k_function

        network, events = road
        ts = np.linspace(0.5, 2.5, 4)
        self._assert_invariant(self._trace(
            lambda w, b: network_k_function(network, events, ts,
                                            workers=w, backend=b)
        ))

    def test_st_k_trace(self, covid):
        from repro.core.kfunction import st_k_function

        self._assert_invariant(self._trace(
            lambda w, b: st_k_function(covid.points, covid.times,
                                       np.linspace(0.5, 2.5, 3),
                                       np.linspace(0.5, 1.5, 3),
                                       workers=w, backend=b)
        ))

    def test_morans_i_trace(self, crime):
        weights = knn_weights(crime.points, k=6)
        values = crime.points[:, 0] + crime.points[:, 1]
        self._assert_invariant(self._trace(
            lambda w, b: morans_i(values, weights, permutations=99, seed=SEED,
                                  workers=w, backend=b)
        ))
