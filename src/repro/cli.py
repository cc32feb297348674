"""Command-line interface: the library's tools on flat CSV files.

The deployed systems the paper describes (KDV-Explorer, the COVID hotspot
maps) are thin front-ends over exactly these operations, so the CLI covers
the same workflow on files:

    python -m repro generate covid --n 4000 --out events.csv
    python -m repro kdv events.csv --bandwidth 2.0 --out heatmap.ppm --ascii
    python -m repro kfunction events.csv --simulations 99
    python -m repro hotspots events.csv --out hotspots.ppm
    python -m repro stkdv events.csv --frames 4 --out-prefix frame

Input CSVs carry ``x,y`` or ``x,y,t`` columns (header optional), the
format of :mod:`repro.data.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import obs
from .core.kdv import KDV_METHODS, kde_grid
from .core.kfunction import k_function_plot
from .core.pipeline import HotspotAnalysis
from .core.stkdv import stkdv
from .data import SpatioTemporalDataset, read_dataset_csv, write_csv
from .errors import ReproError
from .raster import ascii_render, write_ppm

__all__ = ["main", "build_parser"]


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        size = int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"size must look like 256x192, got {text!r}"
        ) from exc
    if size[0] < 1 or size[1] < 1:
        raise argparse.ArgumentTypeError(
            f"size dimensions must be positive, got {text!r}"
        )
    return size


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from exc
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        ) from exc
    if not (value >= 0.0):  # rejects negatives and NaN alike
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``python -m repro`` command suite."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Large-scale geospatial analytics on CSV point files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every subcommand (repro.obs).
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace", action="store_true",
        help="collect a span/counter trace of the run and print the tree "
             "(see docs/OBSERVABILITY.md); deterministic for any --workers",
    )
    trace_parent.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="also dump the trace as JSON to PATH (implies --trace)",
    )

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV",
                         parents=[trace_parent])
    gen.add_argument("dataset", choices=["covid", "crime", "taxi"])
    gen.add_argument("--n", type=int, default=4000, help="number of events")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    kdv = sub.add_parser("kdv", help="render a KDV heatmap from a CSV",
                         parents=[trace_parent])
    kdv.add_argument("input", help="CSV of x,y[,t] events")
    kdv.add_argument("--bandwidth", type=float, required=True)
    kdv.add_argument("--kernel", default="quartic")
    kdv.add_argument("--method", default="auto", choices=KDV_METHODS)
    kdv.add_argument("--size", type=_parse_size, default=(256, 192))
    kdv.add_argument("--colormap", default="heat")
    kdv.add_argument("--out", help="output PPM path")
    kdv.add_argument("--ascii", action="store_true", help="print a terminal preview")
    kdv.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the naive/dualtree methods (default: "
             "REPRO_WORKERS; with --method auto, a planning hint that "
             "steers the cost model toward the parallel-capable backends)",
    )
    kdv.add_argument(
        "--backend", default=None, choices=["serial", "thread", "process"],
        help="executor backend for the naive/dualtree methods "
             "(default: REPRO_BACKEND; the output is bit-identical "
             "for every choice)",
    )
    kdv.add_argument(
        "--tau", type=_non_negative_float, default=None,
        help="absolute error budget for --method dualtree "
             "(per-pixel error <= tau/2; 0 = exact; default 1e-3)",
    )
    kdv.add_argument(
        "--dtype", default=None, choices=["float32", "float64"],
        help="scatter-core accuracy mode for --method grid (float64 = "
             "bit-exact default; float32 = bucketed kernel tables under "
             "a bounded-error contract; with --method auto, a planning "
             "hint steering the cost model toward the grid backend)",
    )

    kfn = sub.add_parser("kfunction", help="K-function plot with CSR envelopes",
                         parents=[trace_parent])
    kfn.add_argument("input")
    kfn.add_argument("--thresholds", type=int, default=12, help="threshold count")
    kfn.add_argument("--max-threshold", type=float, default=None)
    kfn.add_argument("--simulations", type=int, default=99)
    kfn.add_argument("--seed", type=int, default=0)
    kfn.add_argument(
        "--chart", action="store_true", help="draw the K/L/U curves as text"
    )
    kfn.add_argument(
        "--workers", type=int, default=None,
        help="worker count for CSR envelope simulations (default: REPRO_WORKERS)",
    )

    hot = sub.add_parser("hotspots", help="end-to-end hotspot analysis",
                         parents=[trace_parent])
    hot.add_argument("input")
    hot.add_argument("--size", type=_parse_size, default=(192, 128))
    hot.add_argument("--simulations", type=int, default=39)
    hot.add_argument("--quantile", type=float, default=0.95)
    hot.add_argument("--seed", type=int, default=0)
    hot.add_argument("--out", help="output PPM path")
    hot.add_argument(
        "--workers", type=int, default=None,
        help="worker count for CSR envelope simulations (default: REPRO_WORKERS)",
    )

    screen = sub.add_parser(
        "csrtest", help="cheap CSR screens: quadrat chi-square + Clark-Evans",
        parents=[trace_parent],
    )
    screen.add_argument("input")
    screen.add_argument("--quadrats", type=_parse_size, default=(5, 5))

    st = sub.add_parser("stkdv", help="spatiotemporal KDV frames (needs x,y,t)",
                        parents=[trace_parent])
    st.add_argument("input")
    st.add_argument("--frames", type=_positive_int, default=6)
    st.add_argument("--bandwidth-space", type=float, required=True)
    st.add_argument("--bandwidth-time", type=float, required=True)
    st.add_argument(
        "--method", default="auto", choices=["auto", "naive", "window", "shared"],
        help="STKDV backend: shared = incremental temporal sharing "
             "(polynomial temporal kernels; falls back to window)",
    )
    st.add_argument("--size", type=_parse_size, default=(128, 96))
    st.add_argument(
        "--dtype", default=None, choices=["float32", "float64"],
        help="scatter-core accuracy mode for the window/shared backends "
             "(float64 = bit-exact default; float32 = bucketed kernel "
             "tables under a bounded-error contract)",
    )
    st.add_argument("--out-prefix", default="stkdv_frame")
    st.add_argument(
        "--workers", type=int, default=None,
        help="worker count for per-frame evaluation (default: REPRO_WORKERS); "
             "ignored by the serial shared backend",
    )

    strm = sub.add_parser(
        "stream",
        help="drive the incremental streaming engine over a live feed",
        parents=[trace_parent],
    )
    strm.add_argument(
        "input", nargs="?", default=None,
        help="optional CSV of x,y[,t] events replayed in time order; "
             "omitted = simulate a Hawkes (self-exciting) feed",
    )
    strm.add_argument(
        "--events", type=_positive_int, default=2000,
        help="number of events of the simulated Hawkes feed (ignored with "
             "an input CSV)",
    )
    strm.add_argument("--seed", type=int, default=0,
                      help="seed of the simulated feed")
    strm.add_argument(
        "--window", type=_positive_int, default=1000,
        help="sliding window capacity in events (count-based mode)",
    )
    strm.add_argument(
        "--horizon", type=float, default=None,
        help="sliding window length in time units (replaces --window)",
    )
    strm.add_argument(
        "--step", type=_positive_int, default=100,
        help="events per push (the feed's batch size)",
    )
    strm.add_argument(
        "--bandwidth", type=float, default=None,
        help="KDV bandwidth (default: 5%% of the window diagonal)",
    )
    strm.add_argument("--size", type=_parse_size, default=(128, 96),
                      help="KDV raster resolution")
    strm.add_argument("--lattice", type=_parse_size, default=(24, 16),
                      help="hot-spot cell lattice resolution")
    strm.add_argument(
        "--thresholds", type=_positive_int, default=4,
        help="number of K-function distance thresholds",
    )
    strm.add_argument("--out", help="output PPM path of the final surface")
    strm.add_argument("--ascii", action="store_true",
                      help="print a terminal preview of the final surface")
    strm.add_argument(
        "--workers", type=int, default=None,
        help="worker count for re-scatters and large delta queries "
             "(default: REPRO_WORKERS); surfaces are bit-identical for "
             "every choice",
    )
    strm.add_argument(
        "--backend", default=None, choices=["serial", "thread", "process"],
        help="executor backend (default: REPRO_BACKEND)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the analytics HTTP server (tiles, queries, ingest, stats)",
        parents=[trace_parent],
    )
    srv.add_argument(
        "input", nargs="?", default=None,
        help="optional CSV of x,y[,t] events preloaded as dataset "
             "--name; omitted = synthetic crime dataset of --events points",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8731,
                     help="bind port; 0 = ephemeral (default 8731)")
    srv.add_argument("--name", default="demo",
                     help="name of the preloaded dataset (default demo)")
    srv.add_argument(
        "--events", type=_positive_int, default=4000,
        help="size of the synthetic dataset (ignored with an input CSV)",
    )
    srv.add_argument("--seed", type=int, default=0,
                     help="seed of the synthetic dataset")
    srv.add_argument(
        "--tile-px", type=_positive_int, default=64,
        help="tile side length in pixels (default 64)",
    )
    srv.add_argument(
        "--max-zoom", type=int, default=4,
        help="deepest pyramid level served (default 4)",
    )
    srv.add_argument(
        "--tile-cache-mb", type=_positive_int, default=12,
        help="tile cache budget in MiB of encoded tile bodies (default 12)",
    )
    srv.add_argument(
        "--result-cache", type=_positive_int, default=128,
        help="query-result cache capacity in entries (default 128)",
    )
    srv.add_argument(
        "--max-inflight", type=_positive_int, default=None,
        help="bound on concurrently executing requests "
             "(default: 2x the resolved worker count)",
    )
    srv.add_argument(
        "--workers", type=int, default=None,
        help="worker count that sizes the default --max-inflight "
             "(default: REPRO_WORKERS)",
    )

    return parser


def _cmd_generate(args) -> int:
    if args.dataset == "covid":
        ds = data_mod.hk_covid(
            n_wave1=args.n // 3, n_wave2=args.n - args.n // 3, seed=args.seed
        )
        write_csv(args.out, ds.points, times=ds.times)
    elif args.dataset == "crime":
        ds = data_mod.chicago_crime(args.n, seed=args.seed)
        write_csv(args.out, ds.points)
    else:
        ds = data_mod.nyc_taxi(args.n, seed=args.seed)
        write_csv(args.out, ds.points, times=ds.times)
    print(f"wrote {ds.n} events to {args.out}")
    return 0


def _cmd_kdv(args) -> int:
    ds = read_dataset_csv(args.input, margin=0.0)
    # method="auto" resolves through the cost-based planner inside
    # kde_grid; --workers/--backend/--tau/--dtype pass through as hints.
    grid = kde_grid(
        ds.points, ds.bbox, args.size, args.bandwidth,
        kernel=args.kernel, method=args.method, workers=args.workers,
        backend=args.backend, tau=args.tau, dtype=args.dtype,
    )
    plan = (
        grid.diagnostics.records.get("kdv.plan")
        if grid.diagnostics is not None else None
    )
    if plan is not None:
        dropped = (f"; dropped: {', '.join(sorted(plan['dropped']))}"
                   if plan["dropped"] else "")
        print(f"auto plan: {plan['rationale']}{dropped}")
    print(
        f"KDV over {ds.points.shape[0]} events, grid {args.size[0]}x{args.size[1]}, "
        f"kernel={args.kernel}, b={args.bandwidth:g}; peak density {grid.max:.4g} "
        f"at ({grid.argmax_coords()[0]:.3g}, {grid.argmax_coords()[1]:.3g})"
    )
    refinement = (
        grid.diagnostics.records.get("refinement")
        if grid.diagnostics is not None else None
    )
    if refinement is not None:
        s = refinement
        print(
            f"refinement: {s.pairs_visited} pairs, {s.tiles_bulk_accepted} bulk "
            f"accepts, {s.leaf_leaf_scans} leaf scans ({s.points_touched} points), "
            f"{s.n_jobs}/{s.n_tiles} tiles refined; plan {s.plan_seconds * 1e3:.0f} ms, "
            f"execute {s.execute_seconds * 1e3:.0f} ms"
        )
    if args.out:
        write_ppm(args.out, grid, args.colormap)
        print(f"heatmap written to {args.out}")
    if args.ascii or not args.out:
        print(ascii_render(grid, width=72))
    return 0


def _cmd_kfunction(args) -> int:
    ds = read_dataset_csv(args.input)
    top = args.max_threshold
    if top is None:
        top = 0.25 * ds.bbox.diagonal
    thresholds = np.linspace(top / args.thresholds, top, args.thresholds)
    plot = k_function_plot(
        ds.points, ds.bbox, thresholds,
        n_simulations=args.simulations, seed=args.seed,
        workers=args.workers,
    )
    print(f"{'s':>10} {'K(s)':>12} {'L(s)':>12} {'U(s)':>12}  regime")
    for s, k, lo, hi, regime in plot.rows():
        print(f"{s:>10.4g} {k:>12.0f} {lo:>12.0f} {hi:>12.0f}  {regime}")
    clustered = plot.clustered_thresholds()
    if clustered.size:
        print(f"\nsignificant clustering at {clustered.size} thresholds; "
              f"suggested KDV bandwidth: {np.median(clustered):.4g}")
    else:
        print("\nno significant clustering detected")
    if args.chart:
        from .bench import ascii_chart

        print()
        print(
            ascii_chart(
                plot.thresholds,
                {"K(s)": plot.observed, "L(s)": plot.lower, "U(s)": plot.upper},
                title="K-function plot (Figure 2 style)",
            )
        )
    return 0


def _cmd_hotspots(args) -> int:
    ds = read_dataset_csv(args.input)
    report = HotspotAnalysis(ds.points, ds.bbox).run(
        size=args.size,
        n_simulations=args.simulations,
        quantile=args.quantile,
        seed=args.seed,
        workers=args.workers,
    )
    print(report.summary())
    if args.out:
        write_ppm(args.out, report.density, "heat")
        print(f"hotspot map written to {args.out}")
    return 0


def _cmd_csrtest(args) -> int:
    from .core.csr_tests import clark_evans, quadrat_test

    ds = read_dataset_csv(args.input)
    quadrat = quadrat_test(ds.points, ds.bbox, args.quadrats[0], args.quadrats[1])
    ce = clark_evans(ds.points, ds.bbox)
    print(
        f"quadrat test ({args.quadrats[0]}x{args.quadrats[1]}): "
        f"chi2={quadrat.statistic:.1f} df={quadrat.df} p={quadrat.p_value:.4g} "
        f"-> {'CSR not rejected' if quadrat.is_csr else 'CSR rejected'}"
    )
    print(
        f"Clark-Evans: R={ce.index:.3f} z={ce.z_score:.2f} "
        f"p={ce.p_value:.4g} -> {ce.pattern}"
    )
    return 0


def _cmd_stkdv(args) -> int:
    ds = read_dataset_csv(args.input)
    if not isinstance(ds, SpatioTemporalDataset):
        print("error: stkdv needs a 3-column (x,y,t) CSV", file=sys.stderr)
        return 2
    t_lo, t_hi = ds.time_range
    frames = np.linspace(t_lo, t_hi, args.frames)
    result = stkdv(
        ds.points, ds.times, ds.bbox, args.size, frames,
        args.bandwidth_space, args.bandwidth_time,
        method=args.method, dtype=args.dtype, workers=args.workers,
    )
    track = result.hotspot_track()
    for j, (t, (x, y)) in enumerate(zip(frames, track)):
        path = Path(f"{args.out_prefix}_{j:03d}.ppm")
        write_ppm(path, result.frame(j), "heat")
        print(f"frame {j}: t={t:.4g}, hotspot peak at ({x:.3g}, {y:.3g}) -> {path}")
    return 0


def _cmd_stream(args) -> int:
    from .data import hawkes_stream
    from .geometry import BoundingBox
    from .stream import (
        StreamEngine,
        StreamingHotspot,
        StreamingKDV,
        StreamingKFunction,
        StreamWindow,
    )

    if args.input:
        ds = read_dataset_csv(args.input)
        bbox = ds.bbox
        pts = ds.points
        times = (
            ds.times if isinstance(ds, SpatioTemporalDataset)
            else np.arange(pts.shape[0], dtype=np.float64)
        )
        order = np.argsort(times, kind="stable")
        pts, times = pts[order], times[order]
    else:
        bbox = BoundingBox(0.0, 0.0, 20.0, 20.0)
        pts, times = hawkes_stream(bbox, args.events, mu=2.0, seed=args.seed)

    bandwidth = args.bandwidth
    if bandwidth is None:
        bandwidth = 0.05 * bbox.diagonal
    window = (
        StreamWindow(horizon=args.horizon) if args.horizon is not None
        else StreamWindow(capacity=args.window)
    )
    engine = StreamEngine(window)
    kdv = StreamingKDV(
        bbox, args.size, bandwidth,
        workers=args.workers, backend=args.backend,
    )
    hotspot = StreamingHotspot(bbox, args.lattice)
    rmax = 0.25 * bbox.diagonal
    thresholds = np.linspace(rmax / args.thresholds, rmax, args.thresholds)
    kfn = StreamingKFunction(
        bbox, thresholds, workers=args.workers, backend=args.backend
    )
    engine.register("kdv", kdv)
    engine.register("hotspot", hotspot)
    engine.register("kfunction", kfn)

    for c0 in range(0, pts.shape[0], args.step):
        engine.push(pts[c0:c0 + args.step], times[c0:c0 + args.step])

    grid = kdv.snapshot()
    records = grid.diagnostics.records
    print(
        f"streamed {engine.events_pushed} events in {engine.pushes} pushes; "
        f"window holds {len(window)} "
        f"({'horizon ' + format(args.horizon, 'g') if args.horizon is not None else 'capacity ' + str(args.window)})"
    )
    print(
        f"KDV: grid {kdv.nx}x{kdv.ny}, b={bandwidth:g}, peak {grid.max:.4g}; "
        f"{records['dirty_tiles']}/{kdv.ledger.tiles_nx * kdv.ledger.tiles_ny} "
        f"tiles dirty since last snapshot, {records['rescatters']} re-scatters, "
        f"drift ratio {records['drift_ratio']:.2f}"
    )
    gi = hotspot.snapshot()
    hot_cells = int((gi.values > 1.96).sum())
    cold_cells = int((gi.values < -1.96).sum())
    print(
        f"Gi*: lattice {hotspot.nx}x{hotspot.ny}, {hot_cells} hot / "
        f"{cold_cells} cold cells at |z| > 1.96"
    )
    snap = kfn.snapshot()
    csr = np.pi * snap.thresholds ** 2
    print(f"{'s':>10} {'K(s)':>12} {'pi s^2':>12}")
    for s, k, c in zip(snap.thresholds, snap.k, csr):
        print(f"{s:>10.4g} {k:>12.4g} {c:>12.4g}")
    if args.out:
        write_ppm(args.out, grid, "heat")
        print(f"surface written to {args.out}")
    if args.ascii:
        print(ascii_render(grid, width=72))
    return 0


def _cmd_serve(args) -> int:
    from .serve import AnalyticsService, ServeConfig, create_server

    service = AnalyticsService(config=ServeConfig(
        tile_px=args.tile_px,
        max_zoom=args.max_zoom,
        tile_cache_bytes=args.tile_cache_mb * 2**20,
        result_cache_capacity=args.result_cache,
        max_inflight=args.max_inflight,
        workers=args.workers,
    ))
    if args.input:
        ds = read_dataset_csv(args.input, margin=0.05)
        times = (
            ds.times if isinstance(ds, SpatioTemporalDataset) else None
        )
        service.create_dataset(args.name, ds.points, times=times,
                               bbox=ds.bbox)
        source = args.input
    else:
        ds = data_mod.chicago_crime(args.events, seed=args.seed)
        service.create_dataset(args.name, ds.points)
        source = f"synthetic crime (n={ds.n}, seed={args.seed})"

    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    bandwidth = 0.05 * service.store.get(args.name).bbox.diagonal
    print(f"serving dataset {args.name!r} from {source}")
    print(f"listening on http://{host}:{port}")
    print(f"  tiles:  GET /v1/tile/{args.name}/0/0/0.json?bandwidth={bandwidth:g}")
    print(f"  stats:  GET /stats")
    print(f"  query:  POST /v1/query   ingest: POST /v1/ingest/{args.name}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "kdv": _cmd_kdv,
    "kfunction": _cmd_kfunction,
    "hotspots": _cmd_hotspots,
    "csrtest": _cmd_csrtest,
    "stkdv": _cmd_stkdv,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
}


def _run_traced(args) -> int:
    """Run one subcommand under a fresh collector, then print the trace."""
    collector = obs.Collector()
    with obs.activate(collector):
        code = _COMMANDS[args.command](args)
    diagnostics = collector.diagnostics()
    print("\ntrace:")
    print(diagnostics.format_tree())
    if args.trace_json:
        Path(args.trace_json).write_text(
            json.dumps(diagnostics.as_dict(), indent=2, sort_keys=True)
        )
        print(f"trace JSON written to {args.trace_json}")
    return code


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "trace", False) or getattr(args, "trace_json", None):
            return _run_traced(args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
