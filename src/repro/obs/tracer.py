"""Span tracing for pipeline stages.

A :class:`Tracer` produces nested :class:`Span` objects::

    with tracer.span("ner.extract", asn=64512) as span:
        ...
        span.set_attribute("siblings", 3)

Each span records wall-clock duration, free-form attributes, and error
status (an exception inside the block marks the span ``error`` and
re-raises).  Spans nest: a span opened while another is active becomes
its child, so one pipeline run yields a tree the manifest exporter
serialises as-is.

Like the metrics registry, a process-global tracer backs zero-config
instrumentation (:func:`get_tracer`), and tests swap in a private one via
:func:`use_tracer`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .context import current_trace_context, generate_span_id, generate_trace_id


@dataclass
class Span:
    """One timed, attributed stage of a run."""

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    started_at: float = 0.0  # UNIX timestamp
    duration: float = 0.0  # seconds, set when the span finishes
    status: str = "in_progress"  # "in_progress" | "ok" | "error"
    error: str = ""
    children: List["Span"] = field(default_factory=list)
    trace_id: str = ""  # 32-hex W3C trace ID shared by the whole tree
    span_id: str = ""  # 16-hex ID of this span
    parent_span_id: str = ""  # parent's span_id, or the remote caller's

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self.status != "in_progress"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration,
            "status": self.status,
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
            if self.parent_span_id:
                out["parent_span_id"] = self.parent_span_id
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.error:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Builds span trees; one instance per process (or per test).

    The active-span stack is *per thread*: a thread-mode shard or a
    request handler nests its spans on its own stack without racing any
    other thread's.  The root list is shared and lock-protected.
    """

    def __init__(self) -> None:
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span; nests under the currently active span, if any.

        Trace identity: a child span inherits its parent's trace ID and
        records the parent's span ID; a root span adopts the ambient
        :func:`~repro.obs.context.current_trace_context` (so a span tree
        opened while serving a request joins the request's trace, with
        the HTTP-layer span ID as its remote parent) and only mints a
        brand-new trace ID when there is no ambient context at all.
        """
        node = Span(
            name=name,
            attributes=dict(attributes),
            started_at=time.time(),
            span_id=generate_span_id(),
        )
        if self._stack:
            parent = self._stack[-1]
            node.trace_id = parent.trace_id
            node.parent_span_id = parent.span_id
            parent.children.append(node)
        else:
            context = current_trace_context()
            if context is not None:
                node.trace_id = context.trace_id
                node.parent_span_id = context.span_id
            else:
                node.trace_id = generate_trace_id()
            with self._lock:
                self._roots.append(node)
        self._stack.append(node)
        start = time.perf_counter()
        try:
            yield node
            node.status = "ok"
        except BaseException as exc:
            node.status = "error"
            node.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            node.duration = time.perf_counter() - start
            self._stack.pop()

    def spans(self) -> List[Span]:
        """Root spans recorded so far."""
        with self._lock:
            return list(self._roots)

    def all_spans(self) -> List[Span]:
        """Every span, depth-first across all roots."""
        out: List[Span] = []
        for root in self.spans():
            out.extend(root.walk())
        return out

    def find(self, name: str) -> List[Span]:
        """All spans (at any depth) with the given name."""
        return [s for s in self.all_spans() if s.name == name]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [root.to_dict() for root in self.spans()]

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
        self._stack.clear()


# -- process-global default ----------------------------------------------------

_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer instrumented modules default to."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer; returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Temporarily install *tracer* (default: a fresh one) as global."""
    tracer = tracer or Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
