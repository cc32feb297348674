"""The four benchmark workloads.

Each workload generates its inputs from the seed in ``__init__`` (not
timed), builds a fresh system in :meth:`setup` (timed as ``setup_s``),
drives it in :meth:`run` for a given number of seconds (callable more
than once on the same state), and checks its outputs against an oracle
in :meth:`check`, outside the timed region.  NOTES.md says why each
workload exists and which layers it stresses.

HTTP workloads keep ``state["log"]``: ``(request id, seconds, body bytes)``
per completed request, which the traced run joins with server spans.
``stream_slide`` calls the ``repro.stream`` library directly.
"""

from __future__ import annotations

import hashlib
import json
import threading
from time import perf_counter

import numpy as np

import repro
from repro.core.autocorrelation import local_gi_star
from repro.core.kernels import get_kernel
from repro.core.kfunction import ripley_k
from repro.core.pipeline import HotspotAnalysis
from repro.core.request import HotspotRequest, KDVRequest
from repro.data import chicago_crime
from repro.stream import (
    StreamEngine,
    StreamingHotspot,
    StreamingKDV,
    StreamingKFunction,
    StreamWindow,
)

from harness import Client, Phase, Server, Verdict, json_body, register_dataset

TILE_PX = 64      # ServeConfig default: tiles are 64x64 pixels
MAX_ZOOM = 4      # ServeConfig default: zoom levels 0..4
#: The streaming accumulator's published per-pixel bound is
#: ``64 * eps * K(0) * gross weight`` (``KDVAccumulator.drift_tolerance``).
DRIFT_SAFETY = 64.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), stream])


def _dataset_body(points: np.ndarray, bbox) -> bytes:
    return json_body({
        "points": points.tolist(),
        "bbox": [bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax],
    })


def _kde_tolerance(bandwidth: float, n_points: int, kernel: str) -> float:
    peak = float(get_kernel(kernel).evaluate(np.zeros(1), bandwidth)[0])
    eps = float(np.finfo(np.float64).eps)
    return DRIFT_SAFETY * eps * peak * max(n_points, 1)


def _check_tile(name: str, payload: dict, points: np.ndarray) -> Verdict:
    """A served JSON tile against a fresh batch ``kde_grid`` of its window."""
    values = np.asarray(payload["values"], dtype=np.float64)
    bbox = repro.BoundingBox(*payload["bbox"])
    ref = repro.kde_grid(points, bbox, values.shape, payload["bandwidth"],
                         kernel=payload["kernel"], method="grid").values
    err = float(np.max(np.abs(values - np.maximum(ref, 0.0))))
    tol = _kde_tolerance(payload["bandwidth"], points.shape[0],
                         payload["kernel"])
    where = (f"z{payload['zoom']}/{payload['tx']}/{payload['ty']}"
             f"@v{payload['version']}")
    return Verdict(name, err <= tol, f"{where} max|err|={err:.3g} tol={tol:.3g}")


def _block(bbox, zoom: int, x: float, y: float, width: int):
    """The ``width x width`` tile block around ``(x, y)``, kept on the map."""
    side = 2 ** zoom
    width = min(width, side)
    cx = min(int((x - bbox.xmin) / bbox.width * side), side - 1)
    cy = min(int((y - bbox.ymin) / bbox.height * side), side - 1)
    x0 = min(max(cx - width // 2, 0), side - width)
    y0 = min(max(cy - width // 2, 0), side - width)
    return [(x0 + i, y0 + j) for i in range(width) for j in range(width)]


class TileBrowse:
    """Map viewers panning and zooming: two closed-loop tile connections."""

    name = "tile_browse"
    n_events = 20_000
    bandwidth_fractions = (0.005, 0.01)  # of the window diagonal
    zipf_exponent = 0.8
    connections = 2
    sequence_length = 50_000              # per connection, reused cyclically
    sample_every = 40                     # keep every k-th body for the oracle
    max_checks = 16

    def __init__(self, seed: int):
        crime = chicago_crime(self.n_events, seed=_rng(seed, 1))
        self.points = crime.points
        self.bbox = crime.bbox
        self.body = _dataset_body(self.points, self.bbox)
        self.bandwidths = tuple(f * self.bbox.diagonal
                                for f in self.bandwidth_fractions)
        keys = [
            (z, tx, ty, b)
            for z in range(MAX_ZOOM + 1)
            for tx in range(2 ** z) for ty in range(2 ** z)
            for b in self.bandwidths
        ]
        rng = _rng(seed, 2)
        order = rng.permutation(len(keys))
        weights = 1.0 / np.arange(1, len(keys) + 1) ** self.zipf_exponent
        self.sequences = []
        for _ in range(self.connections):
            ranks = rng.choice(len(keys), size=self.sequence_length,
                               p=weights / weights.sum())
            ppm = rng.random(self.sequence_length) < 0.5
            self.sequences.append([
                self._path(keys[order[r]], "ppm" if p else "json")
                for r, p in zip(ranks, ppm)
            ])

    @staticmethod
    def _path(key, fmt: str) -> str:
        z, tx, ty, b = key
        return f"/v1/tile/city/{z}/{tx}/{ty}.{fmt}?bandwidth={b!r}"

    def setup(self) -> dict:
        server = Server()
        admin = Client(server.port, "admin")
        register_dataset(admin, "city", self.body)
        for z in range(MAX_ZOOM + 1):          # one cold tile per surface
            for b in self.bandwidths:
                resp = admin.request("GET", self._path((z, 0, 0, b), "json"))
                if resp.status != 200:
                    raise RuntimeError(f"cold tile failed: {resp.status}")
        clients = [Client(server.port, f"c{i}")
                   for i in range(self.connections)]
        return {"server": server, "admin": admin, "clients": clients,
                "cursor": [0] * self.connections, "log": [],
                "json_samples": [], "ppm_samples": []}

    def teardown(self, state: dict) -> None:
        for client in state["clients"]:
            client.close()
        state["admin"].close()
        state["server"].close()

    def run(self, state: dict, seconds: float) -> Phase:
        phase = Phase()
        logs = [[] for _ in state["clients"]]
        start = perf_counter()
        deadline = start + seconds

        def browse(i: int) -> None:
            client, seq, log = state["clients"][i], self.sequences[i], logs[i]
            k = state["cursor"][i]
            while perf_counter() < deadline:
                path = seq[k % len(seq)]
                resp = client.request("GET", path)
                if k % self.sample_every:
                    resp.body = b""   # keep only the oracle's samples
                k += 1
                log.append((path, resp))
            state["cursor"][i] = k

        threads = [threading.Thread(target=browse, args=(i,))
                   for i in range(len(state["clients"]))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for log in logs:
            for path, resp in log:
                phase.attempted += 1
                if resp.status != 200:
                    phase.failed += 1
                    continue
                phase.latencies.append(resp.seconds)
                state["log"].append((resp.rid, resp.seconds, resp.size))
                if resp.body:
                    kind = "ppm_samples" if ".ppm" in path else "json_samples"
                    state[kind].append(resp.body)
        phase.add_completions(start, [
            (r.sent + r.seconds, 1) for log in logs for _, r in log
            if r.status == 200
        ])
        return phase

    def check(self, state: dict) -> list[Verdict]:
        verdicts = []
        for body in state["json_samples"][:self.max_checks]:
            payload = json.loads(body)
            if payload["version"] != 0:   # no ingests: version 0 throughout
                verdicts.append(Verdict("tile_json_values", False,
                                        f"version {payload['version']}"))
                continue
            verdicts.append(_check_tile("tile_json_values", payload,
                                        self.points))
        header = f"P6\n{TILE_PX} {TILE_PX}\n255\n".encode("ascii")
        for body in state["ppm_samples"][:self.max_checks]:
            ok = (body.startswith(header)
                  and len(body) == len(header) + TILE_PX * TILE_PX * 3)
            verdicts.append(Verdict("tile_ppm_shape", ok, f"{len(body)} bytes"))
        return verdicts


class IngestRetile:
    """A live feed plus one viewer on one connection: ingest, then re-tile."""

    name = "ingest_retile"
    n_events = 20_000
    bandwidth_fraction = 0.01
    zooms = ((2, 2), (3, 3))      # (zoom, viewport width in tiles)
    batch_sizes = (20, 50)
    n_rounds = 2_000              # reused cyclically
    #: The oracle value-checks the re-served tiles of every k-th round, up
    #: to ``max_checks`` tiles a run.
    check_every = 4
    max_checks = 39

    def __init__(self, seed: int):
        crime = chicago_crime(self.n_events, seed=_rng(seed, 1))
        self.points = crime.points
        self.bbox = crime.bbox
        self.body = _dataset_body(self.points, self.bbox)
        self.bandwidth = self.bandwidth_fraction * self.bbox.diagonal
        rng = _rng(seed, 3)
        b = self.bbox
        scale = 0.01 * b.diagonal
        self.rounds = []
        # New events arrive where events already are: each batch centres
        # on a random existing event.
        loci = self.points[rng.integers(0, self.n_events, self.n_rounds)]
        for cx, cy in loci:
            n = int(rng.integers(self.batch_sizes[0], self.batch_sizes[1] + 1))
            batch = np.column_stack([
                np.clip(rng.normal(cx, scale, n), b.xmin, b.xmax),
                np.clip(rng.normal(cy, scale, n), b.ymin, b.ymax),
            ])
            tiles = [
                (z, tx, ty)
                for z, width in self.zooms
                for tx, ty in _block(b, z, cx, cy, width)
            ]
            self.rounds.append(
                (batch, json_body({"points": batch.tolist()}), tiles)
            )

    def _path(self, z: int, tx: int, ty: int) -> str:
        return f"/v1/tile/city/{z}/{tx}/{ty}.json?bandwidth={self.bandwidth!r}"

    def setup(self) -> dict:
        server = Server()
        client = Client(server.port, "viewer")
        register_dataset(client, "city", self.body)
        for z, _ in self.zooms:                 # build the maintained surfaces
            resp = client.request("GET", self._path(z, 0, 0))
            if resp.status != 200:
                raise RuntimeError(f"cold tile failed: {resp.status}")
        return {"server": server, "client": client, "round": 0,
                "batches": [], "served": {}, "samples": [],
                "unchanged": [0, 0], "ahead": 0, "log": []}

    def teardown(self, state: dict) -> None:
        state["client"].close()
        state["server"].close()

    def run(self, state: dict, seconds: float) -> Phase:
        phase = Phase()
        freshness, done = [], []
        client = state["client"]
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            batch, body, tiles = self.rounds[state["round"] % self.n_rounds]
            sampled = (state["round"] % self.check_every == 0
                       and len(state["samples"]) < self.max_checks)
            state["round"] += 1
            phase.attempted += 1
            resp = client.request("POST", "/v1/ingest/city", body)
            if resp.status != 200:
                phase.failed += 1
                continue
            outcome = resp.json()
            state["batches"].append(batch)
            version = outcome["version"]
            if version != len(state["batches"]):
                phase.failed += 1
            phase.latencies.append(resp.seconds)
            done.append((resp.sent + resp.seconds, 1))
            state["log"].append((resp.rid, resp.seconds, resp.size))
            fresh_at = None
            for z, tx, ty in tiles:
                phase.attempted += 1
                tile = client.request("GET", self._path(z, tx, ty))
                if tile.status != 200:
                    phase.failed += 1
                    continue
                phase.latencies.append(tile.seconds)
                done.append((tile.sent + tile.seconds, 1))
                state["log"].append((tile.rid, tile.seconds, tile.size))
                payload = json.loads(tile.body)
                if payload["version"] > version:
                    state["ahead"] += 1
                key = (z, tx, ty)
                previous = state["served"].get(key)
                state["served"][key] = (payload["version"], payload["values"])
                if previous is None:
                    continue               # first view: nothing to refresh
                if sampled:
                    # Whatever version it reports, a tile re-served after
                    # this ingest must match a fresh surface over this
                    # version: a clean tile's pixels did not change.
                    state["samples"].append((version, payload))
                if payload["version"] == version:
                    fresh_at = tile.sent + tile.seconds
                else:
                    # Not dirtied by this ingest: must be the cached tile.
                    state["unchanged"][0] += 1
                    if (payload["version"] != previous[0]
                            or payload["values"] != previous[1]):
                        state["unchanged"][1] += 1
            if fresh_at is not None:
                freshness.append(fresh_at - resp.sent)
        phase.add_completions(start, done)
        phase.extra["freshness"] = freshness
        return phase

    def check(self, state: dict) -> list[Verdict]:
        verdicts = []
        for version, payload in state["samples"]:
            points = np.vstack([self.points] + state["batches"][:version])
            verdicts.append(_check_tile(f"retile_values@v{version}", payload,
                                        points))
        seen, changed = state["unchanged"]
        verdicts.append(Verdict(
            "retile_clean_tiles_unchanged", changed == 0,
            f"{changed} of {seen} cached tiles changed",
        ))
        verdicts.append(Verdict(
            "retile_version_not_ahead", state["ahead"] == 0,
            f"{state['ahead']} tiles newer than the last ingest",
        ))
        return verdicts


class AnalystSession:
    """One analyst alternating the hotspot workflow with KDV queries."""

    name = "analyst_session"
    n_city = 20_000
    #: Small enough that a cycle takes about two seconds, so a run holds
    #: enough cycles for a steady median (the workflow's pair counting
    #: grows with the square of the point count).
    n_district = 1_200
    simulations = 19
    #: (kernel, size, bandwidth fraction of the diagonal): the planner's
    #: grid, sweep and dual-tree regimes at n = 20k.  An odd number of
    #: rungs of distinct cost puts the median inside one rung's samples.
    ladder = (
        ("quartic", (256, 192), 0.01),
        ("epanechnikov", (128, 96), 0.05),
        ("quartic", (128, 96), 0.15),
        ("quartic", (64, 48), 0.15),
        ("gaussian", (128, 96), 0.05),
    )

    def __init__(self, seed: int):
        self.seed = int(seed)
        city = chicago_crime(self.n_city, seed=_rng(seed, 1))
        district = chicago_crime(self.n_district, seed=_rng(seed, 4))
        self.datasets = {"city": (city.points, city.bbox),
                         "district": (district.points, district.bbox)}
        self.bodies = {name: _dataset_body(pts, bbox)
                       for name, (pts, bbox) in self.datasets.items()}

    def _requests(self, cycle: int):
        """One cycle: a hotspot workflow, then one KDV query per rung.

        Every request is distinct (workflow seed, perturbed bandwidth),
        so the service's result cache never answers.
        """
        yield "workflow", HotspotRequest(
            dataset="district", n_simulations=self.simulations,
            seed=self.seed * 100_003 + cycle,
        )
        diag = self.datasets["city"][1].diagonal
        for kernel, size, frac in self.ladder:
            yield "kdv", KDVRequest(
                dataset="city", bandwidth=frac * diag * (1.0 + 1e-4 * cycle),
                size=size, kernel=kernel,
            )

    def setup(self) -> dict:
        server = Server()
        client = Client(server.port, "analyst")
        for name, body in self.bodies.items():
            register_dataset(client, name, body)
        return {"server": server, "client": client, "cycle": 0,
                "log": [], "payloads": [], "to_check": []}

    def teardown(self, state: dict) -> None:
        state["client"].close()
        state["server"].close()

    def run(self, state: dict, seconds: float) -> Phase:
        phase = Phase(extra={"workflow": []})
        done = []
        client = state["client"]
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            cycle = state["cycle"]
            state["cycle"] += 1
            for kind, request in self._requests(cycle):
                phase.attempted += 1
                resp = client.request("POST", "/v1/query",
                                      json_body(request.to_dict()))
                if resp.status != 200:
                    phase.failed += 1
                    continue
                done.append((resp.sent + resp.seconds, 1))
                payload = resp.json()
                state["log"].append((resp.rid, resp.seconds, resp.size))
                state["payloads"].append((kind, payload))
                if kind == "workflow":
                    phase.extra["workflow"].append(resp.seconds)
                else:
                    phase.latencies.append(resp.seconds)
                if cycle == 0:
                    state["to_check"].append((request, payload))
        phase.add_completions(start, done)
        return phase

    def check(self, state: dict) -> list[Verdict]:
        verdicts = []
        for request, payload in state["to_check"]:
            points, bbox = self.datasets[request.dataset]
            if isinstance(request, KDVRequest):
                grid = repro.kde_grid(points, bbox, request.size,
                                      request.bandwidth, kernel=request.kernel)
                sha = hashlib.sha256(
                    np.ascontiguousarray(grid.values).tobytes()
                ).hexdigest()
                verdicts.append(Verdict(
                    "kdv_surface_sha256", sha == payload["surface_sha256"],
                    f"{request.kernel} {request.size} via "
                    f"{payload['plan']['method']}",
                ))
                continue
            report = HotspotAnalysis(points, bbox, kernel=request.kernel).run(
                size=request.size, n_simulations=request.n_simulations,
                seed=request.seed,
            )
            expected = {
                "significant": bool(report.significant),
                "bandwidth": float(report.bandwidth),
                "bandwidth_source": report.bandwidth_source,
                "hotspots": [
                    {"centroid": [float(c) for c in spot.centroid],
                     "mass": float(spot.mass), "area": float(spot.area)}
                    for spot in report.hotspots
                ],
            }
            got = {key: payload[key] for key in expected}
            verdicts.append(Verdict(
                "hotspot_equals_batch", got == expected,
                f"{len(expected['hotspots'])} hotspots, seed {request.seed}",
            ))
        return verdicts


class StreamSlide:
    """The streaming library API: a 20k-event window slid 1k events a push.

    The feed is a seeded permutation of one fixed pool of events, so the
    density every push sees (and with it the K-function's pair counts)
    does not depend on the seed; only which events arrive in which order
    does.  Times are the event's position in the feed.
    """

    name = "stream_slide"
    window = 20_000
    slide = 1_000                 # 5% of the window
    pool_size = 200_000           # a multiple of ``slide``; reused cyclically
    pool_seed = 20_240_601        # fixes the density, never the feed order
    size = (256, 192)
    bandwidth = 1.0               # km, on the 30 x 40 km window
    lattice = (30, 40)            # 1 km hotspot cells
    thresholds = (0.1, 0.2, 0.3, 0.5)
    #: Lower than the library default (64) so that the drift policy
    #: re-scatters the surface about once per 70 pushes, inside a run.
    rescatter_ratio = 8.0

    def __init__(self, seed: int):
        pool = chicago_crime(self.pool_size, seed=self.pool_seed)
        self.bbox = pool.bbox
        self.points = pool.points[_rng(seed, 5).permutation(self.pool_size)]

    def _push(self, engine: StreamEngine, k: int) -> None:
        """Push the ``k``-th slide of the (cyclic) feed."""
        lo = (k * self.slide) % self.pool_size
        times = np.arange(k * self.slide, (k + 1) * self.slide,
                          dtype=np.float64)
        engine.push(self.points[lo:lo + self.slide], times)

    def setup(self) -> dict:
        engine = StreamEngine(StreamWindow(capacity=self.window))
        engine.register("kdv", StreamingKDV(
            self.bbox, self.size, self.bandwidth,
            rescatter_ratio=self.rescatter_ratio))
        engine.register("hotspot", StreamingHotspot(self.bbox, self.lattice))
        engine.register("kfunction",
                        StreamingKFunction(self.bbox, self.thresholds))
        # Fill the window slide by slide: one 20k-event push would make
        # the K-function count all 2e8 pairs among the batch at once.
        fill = self.window // self.slide
        for k in range(fill):
            self._push(engine, k)
        return {"engine": engine, "next": fill, "checkpoints": []}

    def teardown(self, state: dict) -> None:
        state["engine"] = None

    def run(self, state: dict, seconds: float) -> Phase:
        phase = Phase()
        engine = state["engine"]
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            sent = perf_counter()
            self._push(engine, state["next"])
            end = perf_counter()
            state["next"] += 1
            phase.attempted += 1
            phase.latencies.append(end - sent)
            phase.steps.append((self.slide, end - sent))
        # A checkpoint per run, taken after the timed loop.
        kdv = engine.analytics["kdv"]
        state["checkpoints"].append({
            "window": engine.window.points,
            "kdv": kdv.accumulator.surface(0),
            "kdv_tolerance": kdv.accumulator.drift_tolerance,
            "gi": engine.analytics["hotspot"].snapshot().values.ravel(),
            "k": engine.analytics["kfunction"].snapshot().k,
        })
        return phase

    def check(self, state: dict) -> list[Verdict]:
        verdicts = []
        hotspot = StreamingHotspot(self.bbox, self.lattice)
        for cp in state["checkpoints"]:
            points = cp["window"]
            gi = local_gi_star(hotspot.bin(points), hotspot.weights)
            verdicts.append(Verdict(
                "stream_gi_star_equals_batch", np.array_equal(cp["gi"], gi),
                f"{points.shape[0]} events, {gi.shape[0]} cells"))
            k = ripley_k(points, self.thresholds, self.bbox, method="grid")
            verdicts.append(Verdict(
                "stream_k_equals_batch", np.array_equal(cp["k"], k),
                f"K={np.array2string(k, precision=4)}"))
            ref = repro.kde_grid(points, self.bbox, self.size, self.bandwidth,
                                 kernel="quartic", method="grid").values
            err = float(np.max(np.abs(cp["kdv"] - ref)))
            verdicts.append(Verdict(
                "stream_kdv_within_drift_tolerance",
                err <= cp["kdv_tolerance"],
                f"max|err|={err:.3g} tol={cp['kdv_tolerance']:.3g}"))
        return verdicts


WORKLOADS = {w.name: w for w in (TileBrowse, IngestRetile, AnalystSession,
                                 StreamSlide)}
