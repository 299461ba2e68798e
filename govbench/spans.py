"""In-memory span tracing around the governed system's public callables.

The tracer wraps callables from the outside (nothing under ``src/`` is
instrumented): :meth:`Tracer.install` swaps each traced callable for a
wrapper that records one span per call, and :meth:`Tracer.uninstall`
puts the originals back, so an untraced run executes exactly the
program's own code.

A span carries a name, start and end (``perf_counter_ns``), the id of
the span that caused it and a request id. Spans of one thread nest on a
thread-local stack; a server-side root span (the endpoint handlers run
on the HTTP gateway's worker threads) finds its parent through the
request id the client put in the envelope. Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "QUERY_LAYERS", "RELEASE_LAYERS",
           "self_times"]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: str | None
    thread: int
    start: int
    end: int = 0
    #: rows returned, for ``wrappers.fetch`` spans
    rows: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "request": self.request, "thread": self.thread,
                "start_ns": self.start, "end_ns": self.end,
                "rows": self.rows}


def _targets() -> list[tuple[Any, str, str, str]]:
    """(owner, attribute, layer, kind) of every traced callable.

    ``kind`` is ``call`` for a plain call, ``wait`` for a lock context
    manager whose span covers only the acquisition, and ``root`` for an
    endpoint handler whose request id comes from its envelope.
    Functions imported by name are patched where the caller looks them
    up (the engine module, the journal's release applicator).
    """
    import repro.query.engine as engine
    import repro.query.planner as planner
    import repro.storage.journal as journal
    from repro.api.endpoint import ProtocolEndpoint
    from repro.core.ontology import BDIOntology
    from repro.query.planner import PhysicalPlan
    from repro.rdf.dataset import Dataset
    from repro.service.epoch_lock import EpochLock
    from repro.storage.journal import Journal
    from repro.streaming.standing import StandingQuery
    from repro.wrappers.base import StaticWrapper
    return [
        (ProtocolEndpoint, "handle_query", "api.handle_query", "root"),
        (ProtocolEndpoint, "handle_release", "api.handle_release", "root"),
        (EpochLock, "read", "service.read_wait", "wait"),
        (EpochLock, "write", "service.write_wait", "wait"),
        (engine, "parse_omq", "query.parse", "call"),
        (engine, "rewrite", "query.rewrite", "call"),
        (engine, "plan_ucq", "query.plan", "call"),
        (planner, "plan_ucq", "query.plan", "call"),
        (Dataset, "union_graph", "rdf.union_graph", "call"),
        (BDIOntology, "fingerprint", "core.fingerprint", "call"),
        (journal, "new_release", "core.new_release", "call"),
        (PhysicalPlan, "execute", "relational.execute", "call"),
        # every wrapper the workloads bind is a StaticWrapper
        (StaticWrapper, "fetch_rows", "wrappers.fetch", "call"),
        (Journal, "append", "storage.journal_append", "call"),
        (StandingQuery, "refresh", "streaming.refresh", "call"),
    ]


#: layers whose cost an analyst query pays (reported per query)
QUERY_LAYERS = ("api.handle_query", "service.read_wait", "query.parse",
                "query.rewrite", "query.plan", "rdf.union_graph",
                "core.fingerprint", "relational.execute",
                "wrappers.fetch", "streaming.refresh")
#: layers whose cost a steward release pays (reported per release)
RELEASE_LAYERS = ("api.handle_release", "service.write_wait",
                  "core.new_release", "storage.journal_append")


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    #: request id → open client root span id (server roots attach here)
    _roots: dict[str, int] = field(default_factory=dict)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None,
             root: bool = False) -> Iterator[Span]:
        """Record one span; ``root=True`` opens a client request."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and request is not None:
            parent_id = self._roots.get(request)
        else:
            parent_id = parent.id if parent is not None else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), parent_id, name, request,
                    threading.get_ident(), time.perf_counter_ns())
        if root and request is not None:
            self._roots[request] = span.id
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
            if root and request is not None:
                self._roots.pop(request, None)

    @property
    def active(self) -> bool:
        """True while the traced callables are patched in."""
        return bool(self._saved)

    # -- patching ------------------------------------------------------------

    def _wrap(self, original: Callable, layer: str,
              kind: str) -> Callable:
        tracer = self
        if kind == "wait":
            @contextmanager
            @functools.wraps(original)
            def waited(*args: Any, **kwargs: Any) -> Iterator[Any]:
                with ExitStack() as stack:
                    with tracer.span(layer):
                        value = stack.enter_context(
                            original(*args, **kwargs))
                    yield value
            return waited

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            request = None
            if kind == "root" and len(args) > 1:
                request = getattr(args[1], "request_id", None)
            with tracer.span(layer, request) as span:
                result = original(*args, **kwargs)
                if layer == "wrappers.fetch":
                    span.rows = len(result)
                return result
        return traced

    def install(self) -> None:
        if self._saved:
            return
        wrapped: dict[int, Callable] = {}
        for owner, attr, layer, kind in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            # One function reachable from two modules gets one wrapper.
            replacement = wrapped.setdefault(
                id(original), self._wrap(original, layer, kind))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(span.to_dict()) + "\n")


def _self_time(span: Span, children: list[Span]) -> int:
    """A span's duration minus the part its children's intervals cover."""
    covered = 0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.end - span.start - covered


def self_times(spans: list[Span], roots: dict[str, str],
               ) -> dict[tuple[str, str], dict[str, Any]]:
    """Reduce spans to per-layer self time and per-request call counts.

    *roots* maps each client root span name to its request kind
    (``query`` or ``release``). Rows are keyed ``(kind, layer)``: a
    layer's calls are charged to the kind of request they ran under.
    ``per_request_ms`` divides the self time by that kind's request
    count and ``calls_median`` is the median number of calls one
    request made.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    by_id = {span.id: span for span in spans}

    def root_of(span: Span) -> Span:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span

    requests: dict[str, set[str]] = {kind: set()
                                     for kind in roots.values()}
    table: dict[tuple[str, str], dict[str, Any]] = {}
    calls: dict[tuple[str, str], dict[str, int]] = {}
    for span in spans:
        root = root_of(span)
        kind = roots.get(root.name)
        if kind is None:
            continue
        request = root.request or str(root.id)
        requests[kind].add(request)
        entry = table.setdefault((kind, span.name), {
            "calls": 0, "self_ns": 0, "rows": 0})
        entry["calls"] += 1
        entry["self_ns"] += _self_time(span, children.get(span.id, []))
        entry["rows"] += span.rows or 0
        per = calls.setdefault((kind, span.name), {})
        per[request] = per.get(request, 0) + 1
    for (kind, name), entry in table.items():
        n = len(requests[kind])
        entry["requests"] = n
        entry["per_request_ms"] = entry["self_ns"] / n / 1e6
        per = calls[(kind, name)]
        entry["calls_median"] = statistics.median(
            per.get(r, 0) for r in requests[kind])
    return table
