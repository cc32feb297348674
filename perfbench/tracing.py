"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) with spans kept in memory.  A span's *self* time is
its duration minus the durations of the spans it directly encloses on the
same thread, so the self times of nested layers add up to the outermost
span.  Nothing under ``src/`` is edited: the wrappers are installed by
attribute assignment for the traced run and removed afterwards.

Two entry points carry extra bookkeeping:

* ``ReproRequestHandler.do_GET``/``do_POST`` (``frontend.handler``) keep
  their direct children's time by request id (the ``X-Request-Id``
  header), so a client latency can be split into service, encoding and
  transport time for the same request;
* ``MaintainedSurface.sync`` is named by context: the first sync of a
  surface is its cold build (``surfaces.cold_build.z<zoom>``, whose
  inclusive time is kept per zoom), a sync under
  ``AnalyticsService.ingest`` is ingest maintenance (``surfaces.sync``);
  any other is the no-op check on the read path and is not a span, so
  its time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import threading
import types
import weakref
from collections import defaultdict
from time import perf_counter

import repro.core.kdv
import repro.core.pipeline
import repro.core.request
import repro.serve.frontend
import repro.serve.service
from repro.serve.frontend import ReproRequestHandler
from repro.serve.service import AnalyticsService, TileResult
from repro.serve.stats import ServeStats
from repro.serve.surfaces import MaintainedSurface
from repro.stream import (
    StreamingHotspot,
    StreamingKDV,
    StreamingKFunction,
    StreamWindow,
)

#: (owner, attribute, span name).  Module-level functions are wrapped in
#: every namespace their callers resolve them from.
ENTRY_POINTS = (
    (ReproRequestHandler, "do_GET", "frontend.handler"),
    (ReproRequestHandler, "do_POST", "frontend.handler"),
    (TileResult, "to_payload", "frontend.encode"),
    (repro.serve.frontend, "render_rgb", "frontend.encode"),
    (AnalyticsService, "tile", "service.tile"),
    (AnalyticsService, "ingest", "service.ingest"),
    (AnalyticsService, "query", "service.query"),
    (MaintainedSurface, "sync", None),
    (repro.serve.service, "plan_request", "request.plan"),
    (repro.core.request, "plan_request", "request.plan"),
    (repro.serve.service, "execute_request", "request.execute"),
    (repro.core.kdv, "kde_grid", "kdv.kde_grid"),
    (repro.core.pipeline, "kde_grid", "kdv.kde_grid"),
    (repro.core.pipeline, "k_function_plot", "kfunction.envelope"),
    (repro.core.pipeline, "extract_hotspots", "clustering.extract"),
    (StreamWindow, "push", "stream.window_push"),
    (StreamingKDV, "apply", "stream.kdv_apply"),
    (StreamingHotspot, "apply", "stream.hotspot_apply"),
    (StreamingKFunction, "apply", "stream.kfunction_apply"),
)


class _Frame:
    __slots__ = ("name", "child_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.children: dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory span recorder behind monkey-patched entry points.

    ``active`` switches recording on and off without reinstalling, so one
    run can time an untraced half and a traced half on the same state.
    """

    def __init__(self):
        self.active = False
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._surfaces_built: weakref.WeakSet = weakref.WeakSet()
        self.clear()

    def clear(self) -> None:
        """Forget every recorded span (keeps the wrappers installed)."""
        with self._lock:
            self.self_s: dict[str, list[float]] = defaultdict(list)
            self.cold_build_s: dict[int, list[float]] = defaultdict(list)
            self.requests: dict[str, dict[str, float]] = {}
            self.sync_dirty: list[int] = []
            self.queue_depth_max = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(original, name))
        self._patch(repro.serve.frontend, "json", types.SimpleNamespace(
            dumps=self._wrap(json.dumps, "frontend.encode"),
            loads=json.loads,
            JSONDecodeError=json.JSONDecodeError,
        ))
        self._patch(ServeStats, "adjust_gauge",
                    self._watch_gauge(ServeStats.adjust_gauge))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _span_name(self, fixed: str | None, args, stack) -> str | None:
        """The span's name; None for a read-path sync, which is not a span."""
        if fixed is not None:
            return fixed
        surface = args[0]  # MaintainedSurface.sync(self, dataset)
        if surface not in self._surfaces_built:
            self._surfaces_built.add(surface)
            return f"surfaces.cold_build.z{surface.zoom}"
        if stack and stack[-1].name == "service.ingest":
            return "surfaces.sync"
        return None

    def _wrap(self, fn, fixed_name: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            name = tracer._span_name(fixed_name, args, stack)
            if name is None:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += total
                    stack[-1].children[frame.name] += total
                tracer._record(frame, total, args)
            if frame.name == "surfaces.sync":
                with tracer._lock:
                    tracer.sync_dirty.append(len(result))
            return result

        return wrapper

    def _record(self, frame: _Frame, total: float, args) -> None:
        with self._lock:
            self.self_s[frame.name].append(total - frame.child_s)
            if frame.name.startswith("surfaces.cold_build.z"):
                zoom = int(frame.name.rsplit(".z", 1)[1])
                self.cold_build_s[zoom].append(total)
            if frame.name == "frontend.handler":
                rid = args[0].headers.get("X-Request-Id")
                if rid is not None:
                    self.requests[rid] = dict(frame.children)

    def _watch_gauge(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(stats, name, delta):
            value = fn(stats, name, delta)
            if tracer.active and name == "queue.depth":
                with tracer._lock:
                    tracer.queue_depth_max = max(tracer.queue_depth_max, value)
            return value

        return wrapper
