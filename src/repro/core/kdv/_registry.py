"""The ``kde_grid`` backend registry: one frozen record per backend.

``KDV_METHODS``, the ``kde_grid`` keyword audit and dispatch, the auto
planner's candidates, feasibility check, cost model and calibration map,
``plan_request``'s pricing and the CLI's ``--method`` choices are all
derived from :data:`BACKENDS`.  The table is private and fixed, not an
extension point; its order is the planner's candidate order and tiebreak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .adaptive import kde_adaptive
from .bounds import kde_bounds
from .dualtree import kde_dualtree
from .gridcut import kde_gridcut
from .naive import _band_count as naive_band_count
from .naive import kde_naive
from .sampling import kde_sampling
from .sweep import kde_sweep

#: Parallel scaling exponent: ``workers`` workers buy a
#: ``workers ** 0.85`` speedup on the divisible phase (thread dispatch
#: and memory bandwidth eat the rest; BENCH_envelope_parallel.json).
PARALLEL_EFFICIENCY_EXPONENT = 0.85

_EPS = 0.05    # bounds / sampling guarantee
_TAU = 1e-3    # dual-tree absolute error budget

Features = Mapping[str, object]


@dataclass(frozen=True)
class Backend:
    """Everything the library knows about one ``kde_grid`` backend."""

    name: str  # the method= string
    run: Callable  # entry point, run(problem, **params)
    # Predicted wall seconds, cost(c, features): c(name) reads a CostModel
    # coefficient, features are the planner's problem features.
    cost: Callable[[Callable[[str], float], Features], float]
    # Method-specific keywords it honours -> the value passed when unset.
    params: Mapping[str, object] = field(default_factory=dict)
    weights: bool = True  # honours per-point weights
    # Why it cannot run a problem with these features, or None.
    infeasible: Callable[[Features], str | None] = lambda features: None
    # The coefficient trace calibration rescales, or a function of the
    # traced plan's features naming it.
    calibrates: str | Callable[[Features], str] | None = None
    auto: bool = False  # in the exact family method="auto" plans among


def _n(f: Features) -> float:
    return float(f["n"])


def _npx(f: Features) -> float:
    return float(f["nx"]) * float(f["ny"])


def _logn(f: Features) -> float:
    return math.log2(max(_n(f), 2.0))


def _speedup(workers: float) -> float:
    return max(1.0, workers ** PARALLEL_EFFICIENCY_EXPONENT)


def _grid_cost(c, f: Features) -> float:
    cost = (c("grid_base") + c("grid_pp") * _n(f) * float(f["patch"])
            + c("grid_px") * _npx(f))
    if f.get("dtype") == "float32":
        cost *= c("grid_f32_factor")
    if f["kernel"] == "gaussian":
        cost *= c("grid_gauss_factor")
    return cost


def _naive_cost(c, f: Features) -> float:
    # The tasks are row bands, so workers past the band count add
    # nothing.  Each task past the first pays a fixed dispatch overhead,
    # so a tiny problem is not fanned out just because workers are
    # available.
    bands = naive_band_count(f["kernel"] == "gaussian", int(f["n"]),
                             int(f["nx"]), int(f["ny"]))
    tasks = min(float(f.get("workers", 1)), bands)
    overhead = c("parallel_overhead") * (tasks - 1.0)
    if f["kernel"] != "gaussian":
        return overhead + c("naive_pp") * _n(f) * _npx(f) / _speedup(tasks)
    # The separable gather: every worker builds the whole x-table, and
    # the y-factors and the products split over the workers.
    return (overhead + c("naive_factor") * _n(f) * float(f["nx"])
            + (c("naive_factor") * _n(f) * float(f["ny"])
               + c("naive_product") * _n(f) * _npx(f)) / _speedup(tasks))


def _naive_calibrates(f: Features) -> str:
    return "naive_product" if f.get("kernel") == "gaussian" else "naive_pp"


def _sweep_cost(c, f: Features) -> float:
    # Every point pays a share: it is filtered, sorted and expanded
    # before the first row, and thin bands' row batches evaluate more
    # pairs than the band holds.  Then each row pays a fixed cost, its
    # window cells (about 3 per pixel) and one (row, point) pair per
    # point within the bandwidth of the row.  The row terms were fitted
    # on the quartic (3 coefficients in d^2); Epanechnikov and uniform
    # sweeps measure 0.64-0.74x and 0.39-0.45x.
    scale = (float(f["poly"]) + 1.0) / 4.0
    return (c("sweep_base") + c("sweep_point") * _n(f)
            + scale * float(f["ny"])
            * (c("sweep_row") + c("sweep_unit")
               * (3.0 * float(f["nx"]) + float(f["band"]))))


def _sweep_infeasible(f: Features) -> str | None:
    if not f["poly"]:
        return "kernel is not polynomial in d^2"
    return None


def _tree_cost(c, f: Features, budget_factor: float) -> float:
    return (c("dualtree_base")
            + c("dualtree_build") * _n(f) * _logn(f)
            + c("dualtree_refine") * _npx(f) * _logn(f) * budget_factor
            / _speedup(float(f.get("workers", 1))))


def _dualtree_cost(c, f: Features) -> float:
    tau = f.get("tau")
    tau = _TAU if tau is None else max(float(tau), 1e-12)
    # Tighter budgets refine more pairs; the sqrt law is a documented
    # heuristic, clipped so a wild tau cannot blow the prediction past
    # physical plausibility.
    return _tree_cost(c, f, min(4.0, max(0.25, math.sqrt(_TAU / tau))))


def _bounds_cost(c, f: Features) -> float:
    # The same refinement under a relative budget: on 2k-20k-point
    # chicago_crime inputs it measured 1-3x the default-tau dual tree,
    # and flat in eps over 0.01-0.2.
    return _tree_cost(c, f, 2.0)


def _sampling_cost(c, f: Features) -> float:
    sample = f.get("sample")
    m = min(_n(f), 2000.0 if sample is None else float(sample))
    return c("sampling_base") + c("naive_pp") * m * _npx(f)


#: Every backend by name, in candidate/tiebreak order.
BACKENDS: dict[str, Backend] = {b.name: b for b in (
    Backend("grid", kde_gridcut, _grid_cost, params={"dtype": None},
            calibrates="grid_pp", auto=True),
    Backend("sweep", kde_sweep, _sweep_cost, infeasible=_sweep_infeasible,
            calibrates="sweep_unit", auto=True),
    Backend("naive", kde_naive, _naive_cost,
            params={"workers": None, "backend": None},
            calibrates=_naive_calibrates, auto=True),
    Backend("dualtree", kde_dualtree, _dualtree_cost,
            params={"tau": _TAU, "workers": None, "backend": None},
            calibrates="dualtree_refine", auto=True),
    Backend("bounds", kde_bounds, _bounds_cost, params={"eps": _EPS},
            weights=False, calibrates="dualtree_refine"),
    Backend("sampling", kde_sampling, _sampling_cost,
            params={"eps": _EPS, "delta": 0.05, "sample": None, "seed": None},
            weights=False, calibrates="sampling_base"),
    # Never planned for, so unmodelled: an explicit request costs zero.
    Backend("adaptive", kde_adaptive, lambda c, f: 0.0),
)}
