"""Tests for repro.obs — spans, counters, gauges, Diagnostics, result types."""

import json
import pickle

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.kfunction import NetworkKResult, STKResult


class TestCollector:
    def test_counters_attach_to_innermost_span(self):
        c = obs.Collector()
        with obs.activate(c):
            obs.count("outer", 1)
            with obs.span("inner"):
                obs.count("deep", 5)
                obs.count("deep", 2)
        diag = c.diagnostics()
        assert diag.root.counters == {"outer": 1}
        assert diag.root.child("inner").counters == {"deep": 7}

    def test_nested_spans_build_tree(self):
        c = obs.Collector()
        with obs.activate(c):
            with obs.span("a"):
                with obs.span("b"):
                    obs.count("k")
        root = c.diagnostics().root
        assert root.child("a").child("b").counters == {"k": 1}

    def test_same_named_siblings_aggregate(self):
        c = obs.Collector()
        with obs.activate(c):
            for _ in range(3):
                with obs.span("simulation"):
                    obs.count("sims")
        node = c.diagnostics().root.child("simulation")
        assert node.calls == 3
        assert node.counters == {"sims": 3}

    def test_gauge_last_write_wins(self):
        c = obs.Collector()
        with obs.activate(c):
            obs.gauge("tau", 0.5)
            obs.gauge("tau", 0.25)
        assert c.diagnostics().root.gauges == {"tau": 0.25}

    def test_total_counters_roll_up(self):
        c = obs.Collector()
        with obs.activate(c):
            obs.count("k", 1)
            with obs.span("x"):
                obs.count("k", 10)
        diag = c.diagnostics()
        assert diag.counters() == {"k": 11}
        assert diag.counter("k") == 11
        assert diag.counter("missing", -1) == -1

    def test_exception_inside_span_unwinds(self):
        c = obs.Collector()
        with obs.activate(c):
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
            obs.count("after")
        root = c.diagnostics().root
        assert root.counters == {"after": 1}
        assert root.child("boom") is not None

    def test_absorb_merges_into_open_span(self):
        worker = obs.Collector()
        with obs.activate(worker):
            obs.count("k", 3)
            with obs.span("leaf"):
                obs.count("deep", 1)
        parent = obs.Collector()
        with obs.activate(parent):
            with obs.span("merge"):
                obs.current().absorb(worker)
        node = parent.diagnostics().root.child("merge")
        assert node.counters == {"k": 3}
        assert node.child("leaf").counters == {"deep": 1}

    def test_collector_pickle_roundtrip(self):
        c = obs.Collector()
        with obs.activate(c):
            obs.count("k", 2)
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.diagnostics().counters() == {"k": 2}


class TestActivation:
    def test_disabled_by_default(self):
        assert not obs.is_active()
        assert obs.current() is None
        # All record entry points are silent no-ops.
        obs.count("nothing")
        obs.gauge("nothing", 1.0)
        with obs.span("nothing"):
            pass

    def test_enabled_scopes_to_block(self):
        with obs.enabled() as trace:
            assert obs.is_active()
            assert obs.current() is trace
            obs.count("k")
        assert not obs.is_active()
        assert trace.diagnostics().counters() == {"k": 1}

    def test_global_collector_install_and_clear(self):
        c = obs.Collector()
        previous = obs.set_global_collector(c)
        try:
            assert obs.is_active()
            obs.count("k", 4)
        finally:
            obs.set_global_collector(previous)
        assert c.diagnostics().counters() == {"k": 4}
        assert not obs.is_active()

    def test_context_local_shadows_global(self):
        g = obs.Collector()
        previous = obs.set_global_collector(g)
        try:
            with obs.enabled() as local:
                obs.count("k")
        finally:
            obs.set_global_collector(previous)
        assert local.diagnostics().counters() == {"k": 1}
        assert g.diagnostics().counters() == {}


class TestTask:
    def test_task_yields_diagnostics_when_tracing(self):
        with obs.enabled():
            with obs.task("tool") as t:
                obs.count("tool.items", 9)
        assert t.diagnostics is not None
        assert t.diagnostics.root.name == "tool"
        assert t.diagnostics.counter("tool.items") == 9

    def test_task_is_none_when_disabled(self):
        with obs.task("tool") as t:
            pass
        assert t.diagnostics is None

    def test_records_survive_disabled_tracing(self):
        with obs.task("tool") as t:
            t.record("refinement", {"pairs": 3})
        assert t.diagnostics is not None
        assert t.diagnostics.records["refinement"] == {"pairs": 3}
        assert t.diagnostics.counters() == {}

    def test_from_records(self):
        diag = obs.Diagnostics.from_records("kdv", {"a": 1})
        assert diag.root.name == "kdv"
        assert diag.records == {"a": 1}


class TestDiagnosticsSerialisation:
    def _sample(self):
        with obs.enabled() as trace:
            with obs.task("tool") as t:
                obs.count("tool.points", 42)
                obs.gauge("tool.tau", 0.5)
                with obs.span("phase"):
                    obs.count("tool.scans", 7)
        del trace
        return t.diagnostics

    def test_as_dict_json_roundtrip(self):
        diag = self._sample()
        payload = diag.as_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back == json.loads(json.dumps(payload, sort_keys=True))
        assert back["counters"] == {"tool.points": 42, "tool.scans": 7}
        assert back["span"]["name"] == "tool"
        assert back["span"]["gauges"] == {"tool.tau": 0.5}
        assert back["span"]["children"][0]["name"] == "phase"

    def test_as_dict_uses_record_as_dict(self):
        class Rec:
            def as_dict(self):
                return {"x": 1}

        diag = obs.Diagnostics.from_records("t", {"rec": Rec(), "plain": 2})
        d = diag.as_dict()
        assert d["records"] == {"rec": {"x": 1}, "plain": 2}

    def test_format_tree_mentions_spans_and_counters(self):
        text = self._sample().format_tree()
        assert "tool" in text
        assert "phase" in text
        assert "tool.scans = 7" in text
        assert "ms" in text

    def test_diagnostics_pickles(self):
        diag = self._sample()
        back = pickle.loads(pickle.dumps(diag))
        assert back.counters() == diag.counters()


class TestStopwatch:
    def test_accumulates_over_reentries(self):
        sw = obs.Stopwatch()
        with sw:
            pass
        first = sw.seconds
        with sw:
            pass
        assert sw.seconds >= first >= 0.0


class TestKCountResults:
    def _netk(self):
        ts = np.array([1.0, 2.0])
        diag = obs.Diagnostics.from_records("netk", {})
        return NetworkKResult(np.array([3, 9], dtype=np.int64),
                              thresholds=ts, diagnostics=diag)

    def test_network_result_is_ndarray(self):
        res = self._netk()
        assert isinstance(res, np.ndarray)
        assert res.dtype == np.int64
        assert res.tolist() == [3, 9]
        assert np.array_equal(np.diff(res), [6])
        assert np.array_equal(res.counts, [3, 9])
        assert np.array_equal(res.thresholds, [1.0, 2.0])
        assert res.diagnostics.root.name == "netk"

    def test_metadata_survives_views_and_arithmetic(self):
        res = self._netk()
        assert (res * 2).diagnostics is res.diagnostics
        assert np.array_equal(res.thresholds, res[:1].thresholds)
        # Converting out of the subclass drops the metadata cleanly.
        plain = np.asarray(res)
        assert not hasattr(plain, "thresholds")

    def test_network_result_pickle_roundtrip(self):
        res = self._netk()
        back = pickle.loads(pickle.dumps(res))
        assert isinstance(back, NetworkKResult)
        assert np.array_equal(back, res)
        assert np.array_equal(back.thresholds, res.thresholds)
        assert back.diagnostics.root.name == "netk"

    def test_st_result_carries_both_threshold_axes(self):
        s_ts = np.array([1.0])
        t_ts = np.array([0.5, 1.5])
        res = STKResult(np.zeros((1, 2), dtype=np.int64),
                        s_thresholds=s_ts, t_thresholds=t_ts,
                        diagnostics=None)
        assert res.shape == (1, 2)
        assert np.array_equal(res.s_thresholds, s_ts)
        assert np.array_equal(res.t_thresholds, t_ts)
        assert res.diagnostics is None

    def test_exported_from_package_root(self):
        assert repro.NetworkKResult is NetworkKResult
        assert repro.STKResult is STKResult
        assert repro.Diagnostics is obs.Diagnostics


class TestToolDiagnostics:
    """End-to-end: tools attach Diagnostics when tracing is enabled."""

    def test_kde_grid_attaches_diagnostics(self):
        from repro.geometry import BoundingBox

        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(60, 2))
        bbox = BoundingBox(0, 0, 10, 10)
        with obs.enabled():
            grid = repro.kde_grid(pts, bbox, (16, 12), 1.5, method="naive")
        assert grid.diagnostics is not None
        assert grid.diagnostics.counter("kdv.points") == 60
        assert grid.diagnostics.counter("kdv.method.naive") == 1

    def test_tracing_does_not_change_values(self):
        from repro.geometry import BoundingBox

        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(80, 2))
        bbox = BoundingBox(0, 0, 10, 10)
        plain = repro.kde_grid(pts, bbox, (16, 12), 1.5)
        with obs.enabled():
            traced = repro.kde_grid(pts, bbox, (16, 12), 1.5)
        assert np.array_equal(plain.values, traced.values)
