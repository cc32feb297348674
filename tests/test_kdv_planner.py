"""Tests for the cost-based auto planner (``repro.core.kdv.planner``).

Covers the PR 8 bug class (method-specific kwargs with ``method="auto"``
crashed because the audit ran before auto resolution), the golden
decision table of the cost model, the LRU plan cache, calibration, and
the worker/backend invariance of planning.
"""

import numpy as np
import pytest

from repro import obs, parallel
from repro.core.kdv import (
    KDVProblem,
    calibrate,
    clear_plan_cache,
    kde_grid,
    plan_cache_info,
    plan_kdv,
)
from repro.core.kdv import planner as planner_mod
from repro.core.kdv.planner import _METHOD_ONLY_PARAMS
from repro.errors import ParameterError
from repro.geometry import BoundingBox

SIZE = (24, 16)
BW = 2.0


@pytest.fixture(autouse=True)
def _fresh_planner_state():
    """Isolate every test: empty plan cache, default model and defaults."""
    saved_model = planner_mod._model
    clear_plan_cache()
    yield
    planner_mod._set_model(saved_model)
    clear_plan_cache()
    parallel.set_default_workers(None)
    parallel.set_default_backend(None)


def _uniform_problem(n, size, bandwidth, kernel="quartic", seed=0,
                     weights=None):
    bbox = BoundingBox(0.0, 0.0, 100.0, 100.0)
    pts = np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))
    return KDVProblem(pts, bbox, size, bandwidth, kernel, weights=weights)


class TestGoldenDecisionTable:
    """The cost model reproduces the benchmark-measured crossovers."""

    def test_small_n_picks_naive_or_grid(self, small_points, bbox):
        plan = plan_kdv(KDVProblem(small_points, bbox, SIZE, BW))
        assert plan.method in ("naive", "grid")

    def test_poly_kernel_large_n_picks_sweep(self):
        plan = plan_kdv(_uniform_problem(16_000, (128, 96), 16.0, "quartic"))
        assert plan.method == "sweep"

    def test_explicit_workers_picks_parallel_capable(self):
        plan = plan_kdv(
            _uniform_problem(16_000, (128, 96), 16.0, "quartic"),
            {"workers": 4},
        )
        assert plan.method in ("parallel", "dualtree")
        assert plan.kwargs == {"workers": 4}
        assert not plan.dropped

    def test_sub_pixel_bandwidth_picks_grid(self):
        # b = 0.5 < 2 * max(dx, dy) on a 64x48 grid over 100x100: the
        # sweep's cancellation regime, where each point touches O(1)
        # pixels and the scatter backend wins.
        plan = plan_kdv(_uniform_problem(4_000, (64, 48), 0.5, "quartic"))
        assert plan.method == "grid"
        assert "sweep" in plan.rationale and "infeasible" in plan.rationale

    def test_non_polynomial_kernel_never_plans_sweep(self):
        plan = plan_kdv(_uniform_problem(16_000, (128, 96), 16.0, "gaussian"))
        assert plan.method != "sweep"

    def test_costs_cover_every_feasible_backend(self):
        plan = plan_kdv(_uniform_problem(1_000, (64, 48), 8.0, "quartic"))
        assert set(plan.costs) == {"grid", "sweep", "naive", "parallel",
                                   "dualtree"}
        assert all(c > 0.0 for c in plan.costs.values())
        assert plan.cost == plan.costs[plan.method]


class TestAutoKwargsBugfix:
    """The PR 8 bug class: every _METHOD_ONLY_PARAMS kwarg is legal with
    method="auto" and steers planning to a backend that honours it."""

    HINTS = {
        "eps": 0.2, "delta": 0.2, "sample": 40, "seed": 7,
        "index": "kdtree", "tau": 0.05, "workers": 2, "backend": "serial",
        "dtype": "float32",
    }

    @pytest.mark.parametrize("name", sorted(_METHOD_ONLY_PARAMS))
    def test_each_kwarg_with_auto_succeeds(self, name, small_points, bbox):
        grid = kde_grid(small_points, bbox, SIZE, BW, method="auto",
                        **{name: self.HINTS[name]})
        plan = grid.diagnostics.records["kdv.plan"]
        assert plan["method"] in _METHOD_ONLY_PARAMS[name]
        assert name in plan["kwargs"]
        assert not plan["dropped"]

    def test_workers_and_dtype_together_succeed(self, small_points, bbox):
        # No single backend honours both hints; the planner must still
        # resolve (recording the dropped hint) instead of crashing.
        grid = kde_grid(small_points, bbox, SIZE, BW, method="auto",
                        workers=2, dtype="float32")
        plan = grid.diagnostics.records["kdv.plan"]
        dropped_or_kept = set(plan["kwargs"]) | set(plan["dropped"])
        assert {"workers", "dtype"} <= dropped_or_kept
        assert len(plan["dropped"]) == 1

    def test_explicit_method_audit_still_strict(self, small_points, bbox):
        with pytest.raises(ParameterError, match="workers"):
            kde_grid(small_points, bbox, SIZE, BW, method="grid", workers=2)

    def test_weighted_problem_drops_unit_mass_hints(self, small_points,
                                                    bbox, rng):
        w = rng.uniform(0.5, 1.5, size=small_points.shape[0])
        grid = kde_grid(small_points, bbox, SIZE, BW, method="auto",
                        eps=0.2, weights=w)
        plan = grid.diagnostics.records["kdv.plan"]
        assert plan["method"] not in ("bounds", "sampling")
        assert "eps" in plan["dropped"]

    def test_unknown_hint_rejected(self, small_points, bbox):
        with pytest.raises(ParameterError, match="unknown"):
            plan_kdv(KDVProblem(small_points, bbox, SIZE, BW),
                     {"bogus": 1})

    def test_non_problem_rejected(self):
        with pytest.raises(ParameterError, match="KDVProblem"):
            plan_kdv(object())


class TestWorkersDefault:
    """Library-level auto reads the effective worker count (REPRO_WORKERS
    / set_default_workers), not just the explicit kwarg."""

    def _big_gaussian(self):
        # Crossover workload: serially the grid scatter is cheapest, but
        # with 8 workers the dual-tree execute phase amortises below it.
        return _uniform_problem(30_000, (192, 192), 2.0, "gaussian")

    def test_serial_default_plans_serial_backend(self):
        plan = plan_kdv(self._big_gaussian())
        assert plan.workers == 1
        assert plan.method == "grid"

    def test_worker_default_flips_to_parallel_capable(self):
        parallel.set_default_workers(8)
        plan = plan_kdv(self._big_gaussian())
        assert plan.workers == 8
        assert plan.method in ("parallel", "dualtree")

    def test_env_workers_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        plan = plan_kdv(self._big_gaussian())
        assert plan.workers == 8
        assert plan.method in ("parallel", "dualtree")

    def test_parallel_choice_bit_identical_to_serial_run(self, small_points,
                                                         bbox):
        # Whatever auto resolves to with workers available, executing
        # that plan is bit-identical to the same backend run serially
        # (the repro.parallel worker-invariance contract).
        auto = kde_grid(small_points, bbox, SIZE, BW, method="auto",
                        workers=4)
        plan = auto.diagnostics.records["kdv.plan"]
        assert plan["method"] in ("parallel", "dualtree")
        serial = kde_grid(small_points, bbox, SIZE, BW,
                          method=plan["method"], workers=1)
        assert np.array_equal(auto.values, serial.values)


class TestPlanInvariance:
    """Planning is deterministic and does not depend on the executor."""

    def test_plan_identical_for_any_workers(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        methods = {plan_kdv(problem, {"workers": w}).method
                   for w in (2, 4, 8)}
        assert len(methods) == 1

    def test_plan_identical_for_any_backend_hint(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        plans = [plan_kdv(problem, {"backend": b})
                 for b in ("serial", "thread", "process")]
        assert len({p.method for p in plans}) == 1
        assert len({tuple(sorted(p.costs.items())) for p in plans}) == 1

    def test_default_backend_does_not_change_plan(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        baseline = plan_kdv(problem)
        parallel.set_default_backend("process")
        clear_plan_cache()
        assert plan_kdv(problem).method == baseline.method

    def test_repeated_planning_is_deterministic(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        first = plan_kdv(problem)
        clear_plan_cache()
        second = plan_kdv(problem)
        assert first.method == second.method
        assert first.rationale == second.rationale
        assert not second.cache_hit


class TestPlanCache:
    def test_identical_query_hits_cache(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        first = plan_kdv(problem)
        second = plan_kdv(problem)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.method == first.method
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_same_shape_different_points_still_hits(self, bbox):
        # The cost model never reads coordinates, so two same-shaped
        # problems share a plan — the serve layer's hot case.
        a = _uniform_problem(500, SIZE, BW, seed=1)
        b = _uniform_problem(500, SIZE, BW, seed=2)
        b = KDVProblem(b.points, a.bbox, SIZE, BW)
        plan_kdv(a)
        assert plan_kdv(b).cache_hit

    @pytest.mark.parametrize("change", [
        {"bandwidth": BW * 2}, {"size": (25, 16)}, {"kernel": "gaussian"},
    ])
    def test_signature_change_misses(self, small_points, bbox, change):
        base = dict(size=SIZE, bandwidth=BW, kernel="quartic")
        plan_kdv(KDVProblem(small_points, bbox, base["size"],
                            base["bandwidth"], base["kernel"]))
        base.update(change)
        plan = plan_kdv(KDVProblem(small_points, bbox, base["size"],
                                   base["bandwidth"], base["kernel"]))
        assert not plan.cache_hit

    def test_different_hints_miss(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        plan_kdv(problem)
        assert not plan_kdv(problem, {"tau": 0.1}).cache_hit

    def test_calibrate_invalidates_cache(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW)
        plan_kdv(problem)
        calibrate()
        assert not plan_kdv(problem).cache_hit

    def test_cache_bounded_lru(self, small_points, bbox):
        for i in range(planner_mod.PLAN_CACHE_MAXSIZE + 10):
            plan_kdv(KDVProblem(small_points, bbox, SIZE, BW + 0.01 * i))
        assert plan_cache_info()["size"] == planner_mod.PLAN_CACHE_MAXSIZE

    def test_cache_counters_traced(self, small_points, bbox):
        grids = []
        with obs.enabled():
            for _ in range(2):
                grids.append(kde_grid(small_points, bbox, SIZE, BW,
                                      method="auto"))
        assert grids[0].diagnostics.counter("kdv.plan.cache_miss") == 1
        assert grids[1].diagnostics.counter("kdv.plan.cache_hit") == 1
        assert grids[1].diagnostics.records["kdv.plan"]["cache_hit"]


class TestCalibration:
    def test_calibrate_from_traces_rescales(self, small_points, bbox):
        with obs.enabled():
            grid = kde_grid(small_points, bbox, SIZE, BW, method="auto")
        method = grid.diagnostics.records["kdv.plan"]["method"]
        dominant = {"naive": "naive_pp", "grid": "grid_pp",
                    "sweep": "sweep_unit"}[method]
        before = planner_mod.cost_model().coefficient(dominant)
        model = calibrate(traces=[grid.diagnostics])
        assert model.coefficient(dominant) != before
        assert "obs traces" in model.source


class TestPlanDiagnostics:
    def test_plan_recorded_untraced(self, small_points, bbox):
        grid = kde_grid(small_points, bbox, SIZE, BW, method="auto")
        plan = grid.diagnostics.records["kdv.plan"]
        assert plan["method"] in plan["costs"]
        assert plan["rationale"].startswith(plan["method"])

    def test_explicit_method_records_no_plan(self, small_points, bbox):
        grid = kde_grid(small_points, bbox, SIZE, BW, method="naive")
        records = (grid.diagnostics.records
                   if grid.diagnostics is not None else {})
        assert "kdv.plan" not in records

    def test_plan_as_dict_json_serialisable(self, small_points, bbox):
        import json

        plan = plan_kdv(KDVProblem(small_points, bbox, SIZE, BW),
                        {"workers": 2})
        text = json.dumps(plan.as_dict())
        assert "rationale" in json.loads(text)
