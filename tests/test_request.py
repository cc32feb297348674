"""Unified request layer: round-trips, fingerprints, from_request parity."""

import numpy as np
import pytest

import repro
from repro.core.kdv import KDVProblem, kde_grid, plan_kdv
from repro.core.kdv.planner import AUTO_CANDIDATES
from repro.core.kfunction import k_function_plot
from repro.core.pipeline import HotspotAnalysis
from repro.core.request import (
    AnalyticsRequest,
    HotspotRequest,
    KDVRequest,
    KFunctionRequest,
    REQUEST_KINDS,
    RequestPlan,
    execute_request,
    plan_request,
    request_from_dict,
)
from repro.errors import ParameterError

BBOX = repro.BoundingBox(0.0, 0.0, 10.0, 8.0)
RNG = np.random.default_rng(7)
POINTS = BBOX.sample_uniform(300, RNG)


# ---------------------------------------------------------------------------
# Round-trips and fingerprints
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_kinds_registered(self):
        assert set(REQUEST_KINDS) == {"kdv", "hotspot", "kfunction"}

    @pytest.mark.parametrize("request_", [
        KDVRequest(dataset="d", bandwidth=1.5, size=(64, 48), method="grid"),
        KDVRequest(bandwidth=2.0, bbox=(0.0, 0.0, 10.0, 8.0), eps=0.05,
                   dtype="float32", workers=2),
        HotspotRequest(dataset="d", n_simulations=19, seed=3,
                       thresholds=(0.5, 1.0)),
        KFunctionRequest(dataset="d", n_thresholds=6, n_simulations=9,
                         include_self=True, seed=11),
    ])
    def test_to_dict_from_dict_identity(self, request_):
        payload = request_.to_dict()
        rebuilt = request_from_dict(payload)
        assert rebuilt == request_
        assert rebuilt.fingerprint() == request_.fingerprint()

    def test_to_dict_is_json_safe(self):
        import json
        payload = KDVRequest(bandwidth=1.0, size=(32, 32)).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_base_from_dict_dispatches(self):
        payload = {"kind": "kdv", "bandwidth": 2.5}
        req = AnalyticsRequest.from_dict(payload)
        assert isinstance(req, KDVRequest)
        assert req.bandwidth == 2.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown request kind"):
            request_from_dict({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown field"):
            request_from_dict({"kind": "kdv", "bandwidth": 1.0, "spam": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ParameterError, match="mapping"):
            request_from_dict([("kind", "kdv")])

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ParameterError, match="bandwidth"):
            KDVRequest(bandwidth=0.0)
        with pytest.raises(ParameterError, match="bandwidth"):
            KDVRequest(bandwidth=-2.0)

    def test_unknown_kdv_method_rejected_at_construction(self):
        with pytest.raises(ParameterError, match="unknown KDV method"):
            KDVRequest(bandwidth=1.0, method="bogus")
        with pytest.raises(ParameterError, match="unknown KDV method"):
            request_from_dict({"kind": "kdv", "bandwidth": 1.0,
                               "method": "gridcut"})

    @pytest.mark.parametrize("kind,field,value", [
        ("kdv", "size", ["a", 2]),
        ("kdv", "size", 5),
        ("kdv", "bbox", [0.0, 0.0, "x", 1.0]),
        ("hotspot", "size", ["a", 2]),
        ("hotspot", "n_simulations", "abc"),
        ("hotspot", "quantile", "hi"),
        ("hotspot", "min_pixels", [2]),
        ("hotspot", "thresholds", ["a", 1.0]),
        ("hotspot", "thresholds", 3),
        ("kfunction", "n_thresholds", "x"),
        ("kfunction", "n_simulations", "abc"),
        ("kfunction", "n_simulations", float("inf")),
        ("kfunction", "thresholds", [1.0, None]),
    ])
    def test_malformed_numeric_field_is_named(self, kind, field, value):
        payload = {"kind": kind, field: value}
        if kind == "kdv":
            payload["bandwidth"] = 1.0
        with pytest.raises(ParameterError, match=field):
            request_from_dict(payload)

    @pytest.mark.parametrize("method", ["kdtree", "bogus"])
    def test_unknown_k_method_rejected_at_construction(self, method):
        with pytest.raises(ParameterError, match="auto, naive, grid"):
            KFunctionRequest(method=method)
        with pytest.raises(ParameterError, match="unknown K-function method"):
            request_from_dict({"kind": "kfunction", "method": method})


class TestFingerprint:
    def test_stable_across_construction_order(self):
        a = KDVRequest(dataset="d", bandwidth=1.0, kernel="gaussian")
        b = request_from_dict(
            {"kernel": "gaussian", "kind": "kdv", "dataset": "d",
             "bandwidth": 1.0}
        )
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_every_parameter(self):
        base = KDVRequest(dataset="d", bandwidth=1.0)
        for changed in (
            base.replace(bandwidth=1.1),
            base.replace(size=(128, 128)),
            base.replace(kernel="gaussian"),
            base.replace(method="grid"),
            base.replace(dataset="other"),
            base.replace(normalize=True),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_none_fields_do_not_leak(self):
        # None fields are dropped from the wire form, so a request built
        # with explicit None equals one built with defaults.
        a = KDVRequest(bandwidth=1.0, eps=None)
        b = KDVRequest(bandwidth=1.0)
        assert a.to_dict() == b.to_dict()
        assert a.fingerprint() == b.fingerprint()

    def test_kind_disambiguates(self):
        a = HotspotRequest(dataset="d", seed=1)
        b = KFunctionRequest(dataset="d", seed=1)
        assert a.fingerprint() != b.fingerprint()


# ---------------------------------------------------------------------------
# from_request constructors agree bit-for-bit with the kwarg surface
# ---------------------------------------------------------------------------


class TestFromRequestParity:
    def test_kde_grid(self):
        req = KDVRequest(bandwidth=1.25, size=(48, 40), kernel="gaussian",
                         method="grid")
        direct = kde_grid(POINTS, BBOX, (48, 40), 1.25, kernel="gaussian",
                          method="grid")
        via = kde_grid.from_request(POINTS, req, bbox=BBOX)
        np.testing.assert_array_equal(direct.values, via.values)

    def test_kde_grid_request_bbox_wins(self):
        req = KDVRequest(bandwidth=1.0, size=(32, 32),
                         bbox=(0.0, 0.0, 10.0, 8.0), method="grid")
        via = kde_grid.from_request(POINTS, req)
        assert via.bbox == BBOX

    def test_kde_grid_rejects_wrong_kind(self):
        with pytest.raises(ParameterError, match="KDVRequest"):
            kde_grid.from_request(POINTS, HotspotRequest())

    def test_hotspot(self):
        req = HotspotRequest(size=(48, 48), n_simulations=9, seed=5,
                             thresholds=(0.6, 1.2, 1.8))
        direct = HotspotAnalysis(POINTS, BBOX).run(
            size=(48, 48), n_simulations=9, seed=5,
            thresholds=np.array([0.6, 1.2, 1.8]),
        )
        via = HotspotAnalysis.from_request(POINTS, req, bbox=BBOX).run_request(req)
        np.testing.assert_array_equal(direct.density.values, via.density.values)
        assert direct.bandwidth == via.bandwidth
        assert direct.significant == via.significant

    def test_hotspot_rejects_wrong_kind(self):
        with pytest.raises(ParameterError, match="HotspotRequest"):
            HotspotAnalysis.from_request(POINTS, KFunctionRequest(), bbox=BBOX)

    def test_k_function_plot(self):
        thresholds = (0.5, 1.0, 1.5)
        req = KFunctionRequest(thresholds=thresholds, n_simulations=7, seed=2)
        direct = k_function_plot(POINTS, BBOX, np.asarray(thresholds),
                                 n_simulations=7, seed=2)
        via = k_function_plot.from_request(POINTS, req, bbox=BBOX)
        np.testing.assert_array_equal(direct.observed, via.observed)
        np.testing.assert_array_equal(direct.lower, via.lower)
        np.testing.assert_array_equal(direct.upper, via.upper)

    def test_k_function_default_ladder(self):
        req = KFunctionRequest(n_thresholds=5, n_simulations=3, seed=0)
        ladder = req.resolve_thresholds(BBOX)
        assert ladder.shape == (5,)
        assert ladder[-1] == pytest.approx(0.25 * BBOX.diagonal)
        plot = k_function_plot.from_request(POINTS, req, bbox=BBOX)
        np.testing.assert_array_equal(plot.thresholds, ladder)

    def test_missing_bbox_rejected(self):
        with pytest.raises(ParameterError, match="bbox"):
            execute_request(HotspotRequest(), POINTS)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class TestPlanRequest:
    def test_auto_kdv_delegates_to_planner(self):
        req = KDVRequest(bandwidth=1.0, size=(64, 64))
        plan = plan_request(req, POINTS, bbox=BBOX)
        assert isinstance(plan, RequestPlan)
        assert plan.kind == "kdv"
        assert plan.method in ("grid", "gridcut", "sweep", "sampling",
                               "dualtree", "naive")
        assert plan.cost >= 0.0
        assert plan.detail is not None  # the full KDVPlan audit trail

    def test_explicit_kdv_method_is_respected(self):
        req = KDVRequest(bandwidth=1.0, size=(64, 64), method="naive")
        plan = plan_request(req, POINTS, bbox=BBOX)
        assert plan.method == "naive"
        assert "explicit" in plan.rationale

    @pytest.mark.parametrize("method", AUTO_CANDIDATES)
    def test_explicit_kdv_priced_like_the_planner(self, method):
        # Explicit methods are priced on the planner's own features, so
        # they cost exactly what the planner predicts for that backend.
        req = KDVRequest(bandwidth=1.0, size=(64, 48), method=method)
        plan = plan_request(req, POINTS, bbox=BBOX)
        problem = KDVProblem(POINTS, BBOX, req.size, req.bandwidth)
        assert plan.cost == plan_kdv(problem).costs[method]

    def test_explicit_adaptive_is_priced_at_zero(self):
        req = KDVRequest(bandwidth=1.0, size=(16, 16), method="adaptive")
        assert plan_request(req, POINTS, bbox=BBOX).cost == 0.0

    def test_monte_carlo_costs_scale_with_simulations(self):
        small = plan_request(
            KFunctionRequest(n_simulations=9), POINTS, bbox=BBOX
        )
        large = plan_request(
            KFunctionRequest(n_simulations=999), POINTS, bbox=BBOX
        )
        assert large.cost > small.cost

    def test_plan_as_dict_is_json_safe(self):
        import json
        plan = plan_request(KDVRequest(bandwidth=1.0), POINTS, bbox=BBOX)
        assert json.dumps(plan.as_dict())

    def test_execute_records_plan_on_trace(self):
        from repro import obs
        req = KDVRequest(bandwidth=1.0, size=(32, 32), method="grid")
        with obs.enabled() as collector:
            execute_request(req, POINTS, bbox=BBOX)
        diag = collector.diagnostics()
        names = {child.name for child in diag.root.children}
        assert "request.kdv" in names

    def test_execute_plans_auto_kdv_once(self):
        from repro import obs
        from repro.core.kdv import clear_plan_cache
        clear_plan_cache()
        req = KDVRequest(bandwidth=1.0, size=(32, 32))
        with obs.enabled() as collector:
            execute_request(req, POINTS, bbox=BBOX)
        counters = collector.diagnostics().counters()
        assert counters.get("kdv.plan.cache_miss") == 1
        assert "kdv.plan.cache_hit" not in counters

    def test_top_level_exports(self):
        assert repro.KDVRequest is KDVRequest
        assert repro.execute_request is execute_request
        assert repro.core.plan_request is plan_request
