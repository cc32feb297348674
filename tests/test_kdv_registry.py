"""The KDV backend registry and everything derived from it.

Every ``kde_grid`` backend is one record in ``repro.core.kdv._registry``;
these tests pin the derived tables, the docs that must list the same
methods, and the one exact gather ``naive`` runs at every worker count.
"""

import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from repro.core.kdv import KDV_METHODS, KDVProblem, api, kde_grid, naive
from repro.core.kdv._registry import BACKENDS
from repro.core.kdv.planner import AUTO_CANDIDATES, _METHOD_ONLY_PARAMS
from repro.errors import ParameterError
from repro.geometry import BoundingBox

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDerivedTables:
    def test_methods_are_auto_plus_registry(self):
        assert KDV_METHODS == ("auto", *BACKENDS)

    def test_auto_candidates_keep_the_tiebreak_order(self):
        assert AUTO_CANDIDATES == ("grid", "sweep", "naive", "dualtree")

    def test_method_only_params(self):
        assert _METHOD_ONLY_PARAMS == {
            "eps": ("bounds", "sampling"),
            "delta": ("sampling",),
            "sample": ("sampling",),
            "seed": ("sampling",),
            "tau": ("dualtree",),
            "workers": ("naive", "dualtree"),
            "backend": ("naive", "dualtree"),
            "dtype": ("grid",),
        }

    def test_unknown_method_rejected(self, small_points, bbox):
        with pytest.raises(ParameterError, match="unknown KDV method"):
            kde_grid(small_points, bbox, (8, 6), 2.0, method="gridcut")


def _table_methods(table: str) -> list[str]:
    """Method names from the rows of an RST or Markdown method table."""
    return re.findall(r"^(?:\| )?``?(\w+)``? ", table, flags=re.MULTILINE)


class TestDocsListTheRegistry:
    def test_api_module_docstring_table(self):
        header = api.__doc__.index("method        algorithm")
        start = api.__doc__.index("\n", api.__doc__.index("\n", header) + 1)
        table = api.__doc__[start:api.__doc__.index("\n====", start)]
        assert _table_methods(table) == list(KDV_METHODS)

    def test_api_md_method_table(self):
        text = (ROOT / "docs" / "API.md").read_text()
        start = text.index("| `method=` |")
        table = text[start:text.index("\n\n", start)]
        assert _table_methods(table) == list(KDV_METHODS)


class TestOneGather:
    """``naive`` gathers over fixed row bands in byte-sized chunks, so its
    bits follow neither ``workers``/``backend`` nor the chunk split."""

    @pytest.mark.parametrize("kernel", ["quartic", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_parallel_equals_naive(self, clustered_points, bbox, rng,
                                   kernel, weighted):
        weights = (rng.uniform(0.5, 1.5, size=clustered_points.shape[0])
                   if weighted else None)
        # An nx that is not a multiple of 4 catches a weighted reduction
        # whose bits depend on how many rows a chunk holds.
        for size in ((48, 36), (31, 29), (25, 17)):
            serial = kde_grid(clustered_points, bbox, size, 1.5,
                              kernel=kernel, method="naive", weights=weights,
                              workers=1)
            for backend in ("serial", "thread"):
                for workers in (1, 2, 4):
                    par = kde_grid(clustered_points, bbox, size, 1.5,
                                   kernel=kernel, method="naive",
                                   weights=weights, workers=workers,
                                   backend=backend)
                    assert np.array_equal(par.values, serial.values), (
                        size, backend, workers)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_do_not_follow_the_chunk_size(self, clustered_points, bbox,
                                               rng, monkeypatch, weighted):
        weights = (rng.uniform(0.5, 1.5, size=clustered_points.shape[0])
                   if weighted else None)
        problem = KDVProblem(clustered_points, bbox, (31, 29), 1.5,
                             "quartic", weights=weights)
        ref = naive.kde_naive(problem).values
        row_bytes = 8 * clustered_points.shape[0]
        for rows in (1, 3, 5, 6, 7, 4096):
            monkeypatch.setattr(naive, "_CHUNK_BYTES", row_bytes * rows)
            assert np.array_equal(naive.kde_naive(problem).values, ref), rows

    def test_bands_larger_than_one_chunk(self, clustered_points, bbox):
        # 128 rows make 16 bands of 160 x 8 = 1280 pixels, each spanning
        # two chunks of the ~2 MiB budget at n = 400.
        chunk = naive._CHUNK_BYTES // (8 * clustered_points.shape[0])
        assert chunk < 160 * 128 // naive._BANDS
        serial = kde_grid(clustered_points, bbox, (160, 128), 1.5,
                          method="naive", workers=1)
        par = kde_grid(clustered_points, bbox, (160, 128), 1.5,
                       method="naive", workers=2, backend="thread")
        assert np.array_equal(par.values, serial.values)


class TestGatherMemory:
    """The gather's temporaries are sized in bytes, not pixels."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_peak_stays_under_64_mib(self, weighted):
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 100.0, size=(5_000, 2))
        weights = rng.uniform(0.5, 1.5, size=5_000) if weighted else None
        bbox = BoundingBox(0.0, 0.0, 100.0, 100.0)
        tracemalloc.start()
        try:
            grid = kde_grid(points, bbox, (64, 64), 5.0, method="naive",
                            weights=weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.values.max() > 0.0
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
