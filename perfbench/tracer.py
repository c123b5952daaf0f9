"""Spans for the traced run, recorded from outside the program.

The traced run installs wrappers around the public functions each layer
exposes, in the program's own processes, from this file.  A wrapper goes
on the name where its caller looks it up: ``repro.dataset.ingest``
imports ``process_svg_bytes`` by name, so that binding is the one that
is wrapped; methods are wrapped on their class.  A wrapped name that no
longer exists is listed as a missing layer and the run goes on.

Each span records its name, start, end, parent span and request id.
Spans stay in memory and are written out when the process exits.  The
untraced runs never import this module's ``install``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from pathlib import Path

now = time.monotonic


def _rid_from_headers(args, kwargs):
    headers = kwargs.get("headers", args[3] if len(args) > 3 else None)
    if headers is None:
        return None
    return headers.get("x-request-id")


def _write_extra(args, kwargs, result):
    kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
    return {"kind": kind, "bytes": getattr(result, "size", 0)}


def _save_extra(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return {"bytes": Path(path).stat().st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


def _map_extra(args, kwargs, result):
    map_name = kwargs.get("map_name", args[1] if len(args) > 1 else None)
    return {"map": getattr(map_name, "value", None)}


#: (module, attribute path, span name, options) per program process.
#: ``adopt``: spans on threads with no open span (the ingest pool's
#: workers) become children of this one while it is open.
TARGETS = {
    "ingest": [
        ("repro.dataset.ingest", "IngestDaemon.run", "ingest.run", {"adopt": True}),
        ("repro.dataset.ingest", "process_svg_bytes", "parse", {}),
        ("repro.dataset.store", "DatasetStore.read_ref", "store.read", {}),
        ("repro.dataset.store", "DatasetStore.write", "store.write", {"extra": _write_extra}),
        ("repro.dataset.ingest", "fsync_directory", "store.fsync_dir", {}),
        ("repro.dataset.store", "fsync_directory", "store.fsync_dir", {}),
        ("repro.dataset.store", "DatasetStore.iter_refs", "store.iter_refs", {"generator": True}),
        ("repro.dataset.ingest", "IngestJournal.sync", "ingest.journal_sync", {}),
        ("repro.dataset.engine", "Manifest.load", "manifest.load", {}),
        ("repro.dataset.engine", "Manifest.save", "manifest.save", {"extra": _save_extra}),
        ("repro.dataset.shards", "compact_map_shards", "shards.compact", {"extra": _map_extra}),
        ("repro.dataset.shards", "build_index", "index.build", {}),
    ],
    "server": [
        ("repro.server.app", "handle_request", "core.handle", {"rid": _rid_from_headers}),
        ("repro.server.core", "match_route", "router.match", {}),
        ("repro.server.engines", "EngineCache.handle", "engines.handle", {}),
        ("repro.server.engines", "resolve_read_handle", "handles.open", {}),
        ("repro.server.engines", "read_generation", "handles.generation", {}),
        ("repro.server.core", "read_generation", "handles.generation", {}),
        ("repro.server.services", "snapshot_payload", "services.snapshot", {}),
        ("repro.server.services", "series_payload", "services.series", {}),
        ("repro.server.services", "imbalance_payload", "services.imbalance", {}),
        ("repro.server.services", "evolution_payload", "services.evolution", {}),
        ("repro.server.services", "maps_payload", "services.maps", {}),
        ("repro.server.feed", "GenerationWatcher.poll_now", "feed.poll", {}),
    ],
}


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, rid, extra]`` per span.
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self._adopter

    def _open(self, name: str, rid: object) -> int:
        parent = self.current()
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, now(), None, parent, rid, None])
        self._stack().append(index)
        return index

    def _close(self, index: int, extra: dict | None) -> None:
        span = self.spans[index]
        span[2] = now()
        span[5] = extra
        self._stack().pop()

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        rid = self.spans[parent][4] if parent is not None else None
        with self._lock:
            self.spans.append([name, start, end, parent, rid, None])

    def wrap(self, func, name: str, options: dict):
        tracer = self
        extra_of = options.get("extra")
        rid_of = options.get("rid")
        adopt = options.get("adopt", False)

        if options.get("generator"):

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                parent = tracer.current()
                start = now()
                try:
                    yield from func(*args, **kwargs)
                finally:
                    tracer.record(name, start, now(), parent)

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            index = tracer._open(name, rid)
            if adopt:
                tracer._adopter = index
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                if adopt:
                    tracer._adopter = None
                extra = extra_of(args, kwargs, result) if extra_of is not None else None
                tracer._close(index, extra)

        return wrapper

    def install(self, kind: str) -> None:
        """Wrap every target of one process kind; note the missing ones."""
        for module_name, attr_path, name, options in TARGETS[kind]:
            label = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, options)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, options)))
            elif callable(raw):
                setattr(owner, attr, self.wrap(raw, name, options))
            else:
                self.missing.append(label)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op."""

        def noop():
            return None

        scratch = Tracer()
        wrapped = scratch.wrap(noop, "calibrate", {})
        started = now()
        for _ in range(calls):
            noop()
        plain = now() - started
        started = now()
        for _ in range(calls):
            wrapped()
        traced = now() - started
        return max(0.0, (traced - plain) / calls)


# -- analysis (runs in the load generator) ---------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None and span[2] is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        if span[2] is None:
            out.append(0.0)
            continue
        covered = union_length(children.get(index, []), span[1], span[2])
        out.append(max(0.0, span[2] - span[1] - covered))
    return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total
