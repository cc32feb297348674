"""The KDV backend registry and everything derived from it.

Every ``kde_grid`` backend is one record in ``repro.core.kdv._registry``;
these tests pin the derived tables, the docs that must list the same
methods, and the one gather ``naive`` and ``parallel`` share.
"""

import pathlib
import re

import numpy as np
import pytest

from repro.analysis import deprecations
from repro.core.kdv import KDV_METHODS, api, kde_grid
from repro.core.kdv._registry import BACKENDS
from repro.core.kdv.planner import AUTO_CANDIDATES, _METHOD_ONLY_PARAMS
from repro.errors import ParameterError

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDerivedTables:
    def test_methods_are_auto_plus_registry(self):
        assert KDV_METHODS == ("auto", *BACKENDS)

    def test_auto_candidates_keep_the_tiebreak_order(self):
        assert AUTO_CANDIDATES == ("grid", "sweep", "naive", "parallel",
                                   "dualtree")

    def test_method_only_params(self):
        assert _METHOD_ONLY_PARAMS == {
            "eps": ("bounds", "sampling"),
            "delta": ("sampling",),
            "sample": ("sampling",),
            "seed": ("sampling",),
            "index": ("bounds",),
            "tau": ("dualtree",),
            "workers": ("parallel", "dualtree"),
            "backend": ("parallel", "dualtree"),
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


def test_rpr014_kde_grid_replacements_name_registered_methods():
    named = [
        re.search(r"kde_grid\(method='(\w+)'\)", d.replacement)
        for d in deprecations()
    ]
    methods = [m.group(1) for m in named if m is not None]
    assert methods
    assert set(methods) <= set(BACKENDS)


class TestOneGather:
    """``parallel`` is ``naive``'s gather over row bands: bit-identical."""

    @pytest.mark.parametrize("kernel", ["quartic", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_parallel_equals_naive(self, clustered_points, bbox, rng,
                                   kernel, weighted):
        weights = (rng.uniform(0.5, 1.5, size=clustered_points.shape[0])
                   if weighted else None)
        naive = kde_grid(clustered_points, bbox, (48, 36), 1.5,
                         kernel=kernel, method="naive", weights=weights)
        for workers in (1, 2, 4):
            par = kde_grid(clustered_points, bbox, (48, 36), 1.5,
                           kernel=kernel, method="parallel",
                           weights=weights, workers=workers)
            assert np.array_equal(par.values, naive.values)

    def test_bands_larger_than_one_chunk(self, clustered_points, bbox):
        # workers=1 splits 128 rows into 4 bands of 160 x 32 = 5120
        # pixels, so each band spans two 4096-pixel chunks.
        naive = kde_grid(clustered_points, bbox, (160, 128), 1.5,
                         method="naive")
        par = kde_grid(clustered_points, bbox, (160, 128), 1.5,
                       method="parallel", workers=1)
        assert np.array_equal(par.values, naive.values)
