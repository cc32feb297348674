"""Run one workload and turn what it observed into named metrics."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import (
    Client,
    Metric,
    RssSampler,
    median,
    percentile,
    server_counters,
)
from tracing import Tracer
from workloads import WORKLOADS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The methods the planner picks for the ``analyst_session`` ladder,
#: spelled out so the reported names keep matching BENCHMARK.json.
KDV_METHODS = ("grid", "sweep", "dualtree")


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code: machine and settings."""
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{build.get('name')} {build.get('version')}",
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "REPRO_WORKERS")},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def release_memory() -> None:
    """Free a torn-down set-up, heap included, before the next one.

    Without it the peak RSS depends on where the allocator happened to
    place three set-ups' worth of surfaces.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the collector's work is all we can do


def _ms(values) -> float:
    return 1e3 * median(values) if values else 0.0


def end_to_end(phase, setups: list[float], rss: RssSampler
               ) -> dict[str, Metric]:
    """The BENCHMARK.json end-to-end metrics (every workload reports each)."""
    return {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(rss.peak_mb, "MB", 1),
        "latency_p95_ms": Metric(1e3 * percentile(phase.latencies, 95),
                                 "ms", len(phase.latencies)),
    }


def named_extras(workload, phase, attempted: int, failed: int
                 ) -> dict[str, Metric]:
    """End-to-end metrics that are reported but not in the result line.

    The median latency and the throughput are among them: for CPU-bound
    work they follow the host's speed mode too closely to carry a bound
    (see NOTES.md).
    """
    rate = phase.throughput()
    extras = {
        "error_rate": Metric(failed / max(attempted, 1), "ratio", attempted),
        "latency_p50_ms": Metric(1e3 * percentile(phase.latencies, 50), "ms",
                                 len(phase.latencies)),
        "throughput_per_s": Metric(rate, "1/s", len(phase.steps)),
    }
    if workload.name in ("tile_browse", "ingest_retile"):
        extras["throughput_rps"] = Metric(rate, "1/s", len(phase.steps))
    if workload.name == "ingest_retile":
        fresh = phase.extra["freshness"]
        extras["freshness_p50_ms"] = Metric(_ms(fresh), "ms", len(fresh))
    if workload.name == "stream_slide":
        extras["events_per_s"] = Metric(rate, "1/s", len(phase.steps))
    if workload.name == "analyst_session":
        flows = phase.extra["workflow"]
        extras["workflow_p50_s"] = Metric(median(flows) if flows else 0.0,
                                          "s", len(flows))
        extras["kdv_query_p50_ms"] = Metric(_ms(phase.latencies), "ms",
                                            len(phase.latencies))
    return extras


def _layer_ms(tracer: Tracer, name: str) -> Metric:
    calls = tracer.self_s.get(name, [])
    return Metric(_ms(calls), "ms", len(calls))


def per_layer(tracer: Tracer, state: dict, cold: dict, delta: dict,
              payloads: list, overhead_pct: float) -> dict[str, Metric]:
    """Per-layer metrics of the traced half, joined with server counters.

    A layer the workload does not reach reports 0 with 0 samples.
    """
    out: dict[str, Metric] = {}
    # Client latency split by request id: service, encoding, the rest.
    joined = []
    for rid, seconds, size in state.get("log", []):
        spans = tracer.requests.get(rid)
        if spans is not None:
            service = sum(v for k, v in spans.items()
                          if k.startswith("service."))
            joined.append((seconds - service, spans.get("frontend.encode", 0.0),
                           size))
    out["frontend.transport_ms"] = Metric(_ms([j[0] for j in joined]), "ms",
                                          len(joined))
    out["frontend.encode_ms"] = Metric(_ms([j[1] for j in joined]), "ms",
                                       len(joined))
    out["frontend.handler_ms"] = _layer_ms(tracer, "frontend.handler")
    out["frontend.response_bytes"] = Metric(
        float(np.mean([j[2] for j in joined])) if joined else 0.0, "bytes",
        len(joined))
    service = [s for k in ("service.tile", "service.ingest", "service.query")
               for s in tracer.self_s.get(k, [])]
    out["service.self_ms"] = Metric(_ms(service), "ms", len(service))

    def ratio(num: str, den: tuple[str, ...]) -> Metric:
        total = sum(delta.get(k, 0) for k in den)
        return Metric(delta.get(num, 0) / total if total else 0.0, "ratio",
                      total)

    out["cache.tile_hit_ratio"] = ratio(
        "tile.cache_hit", ("tile.cache_hit", "tile.cache_miss"))
    ingests = delta.get("ingest.batches", 0)
    out["cache.tile_invalidated_per_ingest"] = Metric(
        delta.get("tile.invalidated", 0) / ingests if ingests else 0.0,
        "count", ingests)
    out["cache.query_hit_ratio"] = ratio(
        "query.cache_hit", ("query.cache_hit", "query.cache_miss"))
    requests = delta.get("requests.total", 0)
    out["coalesce.waited"] = Metric(delta.get("coalesce.waited", 0), "count",
                                    requests)
    out["admission.queue_depth_max"] = Metric(tracer.queue_depth_max, "count",
                                              requests)
    for z in range(5):
        out[f"surfaces.cold_build_ms.z{z}"] = Metric(
            _ms(cold.get(z, [])), "ms", len(cold.get(z, [])))
    out["surfaces.sync_ms"] = _layer_ms(tracer, "surfaces.sync")
    dirty = tracer.sync_dirty
    out["surfaces.dirty_tiles"] = Metric(
        float(np.mean(dirty)) if dirty else 0.0, "count", len(dirty))
    out["request.plan_ms"] = _layer_ms(tracer, "request.plan")
    out["request.execute_ms"] = _layer_ms(tracer, "request.execute")
    out["kdv.kde_grid_ms"] = _layer_ms(tracer, "kdv.kde_grid")
    kdv = [p for kind, p in payloads if kind == "kdv"]
    for method in KDV_METHODS:
        picks = sum(p["plan"]["method"] == method for p in kdv)
        out[f"kdv.method.{method}"] = Metric(picks, "count", len(kdv))
    errors = [p["trace"]["seconds"] / p["plan"]["cost"] for p in kdv
              if p["plan"]["cost"] > 0]
    out["kdv.plan_error_ratio"] = Metric(median(errors) if errors else 0.0,
                                         "ratio", len(errors))
    out["kfunction.envelope_ms"] = _layer_ms(tracer, "kfunction.envelope")
    flows = [p["trace"]["counters"] for kind, p in payloads
             if kind == "workflow"]
    pairs = [c.get("kfunction.pairs_within_smax", 0) for c in flows]
    out["kfunction.pairs_within_smax"] = Metric(
        median(pairs) if pairs else 0, "count", len(pairs))
    out["clustering.extract_ms"] = _layer_ms(tracer, "clustering.extract")
    out["stream.window_push_ms"] = _layer_ms(tracer, "stream.window_push")
    out["stream.kdv_apply_ms"] = _layer_ms(tracer, "stream.kdv_apply")
    out["stream.hotspot_apply_ms"] = _layer_ms(tracer,
                                               "stream.hotspot_apply")
    out["stream.kfunction_apply_ms"] = _layer_ms(tracer,
                                                 "stream.kfunction_apply")
    pushes = len(tracer.self_s.get("stream.window_push", []))
    out["stream.kdv_rescatters"] = Metric(
        delta.get("stream.kdv_rescatters", 0), "count", pushes)
    out["trace.overhead_pct"] = Metric(overhead_pct, "%", 2)
    spans = sum(len(v) for v in tracer.self_s.values())
    out["trace.spans"] = Metric(spans, "count", spans)
    return out


def _counters(state: dict) -> dict:
    """``/stats`` counters, or the streaming engine's for ``stream_slide``."""
    if "engine" in state:
        kdv = state["engine"].analytics["kdv"]
        return {"stream.kdv_rescatters": kdv.rescatters}
    client = Client(state["server"].port, "stats")
    try:
        return server_counters(client)
    finally:
        client.close()


def measure(workload, seconds: float, trace: bool):
    """Set up, drive and check one workload; returns the raw observations."""
    if not trace:
        setups, state = [], None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                release_memory()
            start = perf_counter()
            state = workload.setup()
            setups.append(perf_counter() - start)
        try:
            with RssSampler() as rss:
                phase = workload.run(state, seconds)
            verdicts = workload.check(state)
        finally:
            workload.teardown(state)
        return phase, setups, rss, verdicts, None

    tracer = Tracer()
    tracer.install()
    state = None
    try:
        tracer.active = True
        start = perf_counter()
        state = workload.setup()
        setups = [perf_counter() - start]
        cold = dict(tracer.cold_build_s)
        tracer.active = False
        tracer.clear()
        untraced = workload.run(state, seconds / 2)
        before = _counters(state)
        mark = len(state.get("payloads", []))
        tracer.active = True
        with RssSampler() as rss:
            phase = workload.run(state, seconds / 2)
        tracer.active = False
        after = _counters(state)
        verdicts = workload.check(state)
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        base = percentile(untraced.latencies, 50)
        overhead = 100.0 * (percentile(phase.latencies, 50) / base - 1.0)
        layers = per_layer(tracer, state, cold, delta,
                           state.get("payloads", [])[mark:], overhead)
    finally:
        tracer.active = False
        if state is not None:
            workload.teardown(state)
        tracer.uninstall()
    phase.attempted += untraced.attempted
    phase.failed += untraced.failed
    return phase, setups, rss, verdicts, layers


def main(args, root: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    phase, setups, rss, verdicts, layers = measure(workload, args.seconds,
                                                   bool(args.trace))
    attempted = phase.attempted + len(verdicts)
    failed = phase.failed + sum(not v.passed for v in verdicts)
    correct = failed == 0 and phase.work > 0 and bool(verdicts)
    e2e = end_to_end(phase, setups, rss)
    extras = named_extras(workload, phase, attempted, failed)
    reported = layers if args.trace else e2e

    env = environment(root)
    lines = [f"perfbench {workload.name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "environment " + json.dumps(env, sort_keys=True)]
    for name, m in {**e2e, **extras}.items():
        lines.append(f"  {name:<28} {m.value:>14.6g} {m.unit:<6} n={m.samples}")
    if layers:
        lines.append("per layer (traced half):")
        for name, m in layers.items():
            lines.append(f"  {name:<36} {m.value:>14.6g} {m.unit:<6} "
                         f"n={m.samples}")
    lines.append("oracles:")
    for v in verdicts:
        lines.append(f"  {'PASS' if v.passed else 'FAIL'} {v.name}: {v.detail}")
    print("\n".join(lines))

    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": env, "correct": correct,
            "attempted": attempted, "failed": failed,
            "end_to_end": {k: m.as_dict() for k, m in {**e2e, **extras}.items()},
            "per_layer": ({k: m.as_dict() for k, m in layers.items()}
                          if layers else None),
            "oracles": [v.__dict__ for v in verdicts],
        }, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m.value, "unit": m.unit}
                    for k, m in reported.items()},
    }))
    return 0
