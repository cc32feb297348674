"""Shared pieces of the benchmark: server lifecycle, HTTP client, statistics.

Imported only after ``run.py`` has pinned the thread environment, because
importing :mod:`repro` imports NumPy.
"""

from __future__ import annotations

import http.client
import json
import math
import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.serve import AnalyticsService, create_server


@dataclass
class Metric:
    """One reported number: value, unit and how many samples it rests on."""

    value: float
    unit: str
    samples: int

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


@dataclass
class Verdict:
    """The outcome of one oracle check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class Phase:
    """What one timed loop observed.

    ``latencies`` are the workload's primary operation (seconds);
    ``steps`` are ``(work units, seconds)`` per completed operation in
    completion order, whose seconds add up to the measured time;
    ``extra`` holds workload-specific samples (seconds) by name.
    """

    latencies: list[float] = field(default_factory=list)
    steps: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: dict[str, list[float]] = field(default_factory=dict)

    @property
    def work(self) -> float:
        return sum(w for w, _ in self.steps)

    def throughput(self) -> float:
        """Work units completed per measured second."""
        return self.work / sum(s for _, s in self.steps)

    def add_completions(self, start: float, done: list[tuple[float, float]]
                        ) -> None:
        """Steps from ``(end time, work)`` completions of concurrent loops."""
        previous = start
        for end, work in sorted(done):
            self.steps.append((work, end - previous))
            previous = end


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100); NaN when empty."""
    return float(np.percentile(values, q)) if values else math.nan


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class RssSampler:
    """Highest RSS seen while the ``with`` block runs, sampled every 50 ms.

    Set-up runs three times per run and leaves allocator residue behind,
    so the process's lifetime peak says more about the allocator than
    about the service; the timed phase's peak is the footprint under load.
    """

    interval = 0.05

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, rss_mb())
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_mb = max(self.peak_mb, rss_mb())


class Server:
    """An :class:`AnalyticsService` behind its HTTP front end on port 0."""

    def __init__(self):
        self.service = AnalyticsService()
        self.httpd = create_server(self.service, port=0)
        self.port = self.httpd.server_address[1]
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-server", daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, close the socket and wait for the serve loop."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=30.0)


@dataclass
class Response:
    status: int
    body: bytes
    size: int          # bytes received, kept when the body is dropped
    seconds: float
    rid: str
    sent: float

    def json(self):
        return json.loads(self.body)


class Client:
    """One keep-alive HTTP/1.1 connection that tags requests with an id.

    The ``X-Request-Id`` header lets the traced run join a client-side
    latency with the server-side spans of the same request.
    """

    def __init__(self, port: int, name: str):
        self._port = port
        self.name = name
        self._seq = 0
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: bytes | None = None
                ) -> Response:
        """Send one request and read the whole response body.

        A transport failure comes back as status 0 after reconnecting, so
        the caller counts it as a failed operation.
        """
        self._seq += 1
        rid = f"{self.name}-{self._seq}"
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        sent = perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=120
            )
            data, status = b"", 0
        return Response(status, data, len(data), perf_counter() - sent, rid,
                        sent)

    def close(self) -> None:
        self._conn.close()


def json_body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def register_dataset(client: Client, name: str, body: bytes) -> dict:
    """``POST /v1/datasets/<name>`` with a pre-encoded point body."""
    resp = client.request("POST", f"/v1/datasets/{name}", body)
    if resp.status != 201:
        raise RuntimeError(
            f"registering {name!r} failed: {resp.status} {resp.body[:200]!r}"
        )
    return resp.json()


def server_counters(client: Client) -> dict:
    """The ``counters`` block of ``GET /stats``."""
    resp = client.request("GET", "/stats")
    if resp.status != 200:
        raise RuntimeError(f"/stats failed: {resp.status}")
    return resp.json()["counters"]
