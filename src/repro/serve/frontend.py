"""Stdlib HTTP front-end over :class:`~repro.serve.service.AnalyticsService`.

A deliberately thin layer: parse the URL/body, call the transport-free
service, serialise the answer.  Concurrency comes from
:class:`http.server.ThreadingHTTPServer` (one thread per connection);
the service's admission semaphore bounds how many of those threads
execute analytics at once, and its coalescer collapses identical
concurrent queries — the HTTP layer adds no policy of its own.

Routes (all JSON unless noted):

=======  ===================================  =================================
Method   Path                                 Meaning
=======  ===================================  =================================
GET      ``/healthz``                         liveness probe
GET      ``/stats``                           service metrics snapshot
GET      ``/v1/datasets``                     dataset summary rows
POST     ``/v1/datasets/<name>``              create dataset from a point body
POST     ``/v1/ingest/<name>``                append a batch to a dataset
POST     ``/v1/query``                        run an analytics request dict
GET      ``/v1/tile/<name>/<z>/<x>/<y>.json`` density tile (values + bbox)
GET      ``/v1/tile/<name>/<z>/<x>/<y>.ppm``  the same tile as a PPM heatmap
=======  ===================================  =================================

Tile query parameters: ``bandwidth`` (required), ``kernel``, ``dtype``
(``float64``, the default, or ``float32``), ``colormap`` (PPM only).
Tile bodies are encoded here but cached by the service, one per format
and colormap, so a tile hit sends cached bytes without encoding.
Error mapping is uniform: :class:`~repro.errors.ServeError` → 404, any
other :class:`~repro.errors.ReproError` → 400, everything else → 500, and
the stdlib's protocol errors (a malformed request line, an unknown
method) keep their own status; every error body is the JSON
``{"error": <message>, "type": <exception class name>}``, with type
``"HTTPError"`` for the protocol errors.

Every response — status line, headers and body — leaves in one socket
write.  Headers written ahead of the body would make the body a second
small segment, which Nagle's algorithm holds until the client's delayed
ACK arrives (≈40 ms per response on Linux).
"""

from __future__ import annotations

import functools
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..errors import ParameterError, ReproError, ServeError
from ..geometry import BoundingBox
from ..raster import DensityGrid, render_rgb
from .service import AnalyticsService, TileResult

__all__ = ["create_server", "ReproRequestHandler"]

#: Upper bound on accepted request bodies (64 MiB of JSON points is far
#: beyond any sane ingest batch; bigger means a client error, not a load).
_MAX_BODY = 64 * 1024 * 1024


def _ppm_bytes(grid, colormap: str) -> bytes:
    """The grid rendered as a binary PPM image (the CLI's heatmap format)."""
    image = render_rgb(grid, colormap)
    h, w, _ = image.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + image.tobytes()


def _json_body(result: TileResult) -> bytes:
    """A tile's JSON body, as :meth:`ReproRequestHandler._send_json` encodes."""
    return json.dumps(result.to_payload()).encode("utf-8")


def _ppm_body(result: TileResult, colormap: str) -> bytes:
    """A tile's PPM heatmap body."""
    grid = DensityGrid(BoundingBox(*result.bbox), result.values)
    return _ppm_bytes(grid, colormap)


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the bound :class:`AnalyticsService`.

    Bind a service with ``type("H", (ReproRequestHandler,), {"service":
    svc})`` or use :func:`create_server`, which does exactly that.
    """

    service: AnalyticsService  # injected by create_server
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Access logging is the stats module's job; stay quiet on stderr."""

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        """Write the whole response in one send (see the module docstring)."""
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(f"{head}\r\n".encode("latin-1") + body)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send_error_json(self, status: int, message: str, kind: str) -> None:
        self.service.stats.incr(f"http.{status}")
        self._send_json(status, {"error": message, "type": kind})

    def send_error(self, code, message=None, explain=None):
        """The stdlib's protocol errors, as JSON and with the connection closed.

        The request stream may be unparseable past this point, so the
        connection is not reused.
        """
        self.close_connection = True
        self._send_error_json(
            int(code), message or self.responses[code][0], "HTTPError"
        )

    def _read_json(self) -> dict:
        """The request body, which must be a JSON object."""
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError as exc:
            self.close_connection = True  # the body's extent is unknown
            raise ParameterError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from exc
        if length <= 0:
            raise ParameterError("request body must be non-empty JSON")
        if length > _MAX_BODY:
            self.close_connection = True  # the body stays unread
            raise ParameterError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ParameterError(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        return body

    def _dispatch(self, handler) -> None:
        """Run a route handler with the uniform error → status mapping."""
        try:
            handler()
        except ServeError as exc:
            self._send_error_json(404, str(exc), type(exc).__name__)
        except ReproError as exc:
            self._send_error_json(400, str(exc), type(exc).__name__)
        except BrokenPipeError:  # client went away mid-response
            self.service.stats.incr("http.disconnect")
        except Exception as exc:  # noqa: BLE001 - server must not die
            kind = type(exc).__name__
            self._send_error_json(500, f"{kind}: {exc}", kind)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch GET routes."""
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch POST routes."""
        self._dispatch(self._post)

    def _get(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = dict(parse_qsl(url.query))
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True})
            return
        if parts == ["stats"]:
            self._send_json(200, self.service.stats_snapshot())
            return
        if parts == ["v1", "datasets"]:
            self._send_json(200, {"datasets": self.service.datasets()})
            return
        if len(parts) == 6 and parts[:2] == ["v1", "tile"]:
            self._get_tile(parts[2:], query)
            return
        raise ServeError(f"no such resource: {url.path}")

    def _get_tile(self, parts: list[str], query: dict) -> None:
        name, z_raw, x_raw, y_raw = parts
        stem, _, fmt = y_raw.partition(".")
        fmt = fmt or "json"
        if fmt not in ("json", "ppm"):
            raise ParameterError(f"tile format must be json or ppm, got {fmt!r}")
        try:
            zoom, tx, ty = int(z_raw), int(x_raw), int(stem)
        except ValueError as exc:
            raise ParameterError(
                f"tile address must be integers, got /{z_raw}/{x_raw}/{stem}"
            ) from exc
        if "bandwidth" not in query:
            raise ParameterError("tile requests need a bandwidth parameter")
        try:
            bandwidth = float(query["bandwidth"])
        except ValueError as exc:
            raise ParameterError(
                f"bandwidth must be a number, got {query['bandwidth']!r}"
            ) from exc
        if fmt == "json":
            body_fmt, encode = "json", _json_body
            content_type = "application/json"
        else:
            colormap = query.get("colormap", "heat")
            body_fmt = ("ppm", colormap)
            encode = functools.partial(_ppm_body, colormap=colormap)
            content_type = "image/x-portable-pixmap"
        body = self.service.tile(
            name, zoom, tx, ty, bandwidth,
            kernel=query.get("kernel", "quartic"),
            dtype=query.get("dtype"),
            fmt=body_fmt, encode=encode,
        )
        self._send(200, body, content_type=content_type)

    def _post(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["v1", "query"]:
            self._send_json(200, self.service.query(self._read_json()))
            return
        if len(parts) == 3 and parts[:2] == ["v1", "datasets"]:
            body = self._read_json()
            summary = self.service.create_dataset(
                parts[2],
                body.get("points"),
                times=body.get("times"),
                bbox=body.get("bbox"),
                margin=body.get("margin", 0.05),
            )
            self._send_json(201, summary)
            return
        if len(parts) == 3 and parts[:2] == ["v1", "ingest"]:
            body = self._read_json()
            outcome = self.service.ingest(
                parts[2], body.get("points"), times=body.get("times")
            )
            self._send_json(200, outcome)
            return
        raise ServeError(f"no such resource: {url.path}")


def create_server(service: AnalyticsService, host: str = "127.0.0.1",
                  port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — what the tests and the CI smoke client
    use.  Call ``serve_forever()`` to block, or run it in a thread and
    ``shutdown()`` for a clean stop.
    """
    handler = type(
        "BoundReproRequestHandler", (ReproRequestHandler,),
        {"service": service},
    )
    server = ThreadingHTTPServer((host, int(port)), handler)
    server.daemon_threads = True
    return server
