"""Structured JSONL event log: the one record of what the system did.

Metrics answer "how many"; spans answer "how long"; the event log
answers "what happened, in order, to *this* request".  :meth:`EventLog.emit`
is the only way the library reports an occurrence — there is no second,
prose logging path.  An :class:`EventLog` holds a bounded in-memory ring
(so a serving process can be interrogated over HTTP without unbounded
growth) and optionally appends every retained event to a JSONL file sink
(``borges serve --access-log``).  Each event is one flat JSON object::

    {"ts": 1754556000.123, "event": "http.access", "severity": "info",
     "trace_id": "4bf92f35…", "endpoint": "asn", "status": 200,
     "admission": "admitted", "generation": 3, "latency_ms": 0.412}

The current :class:`~repro.obs.context.TraceContext` is stamped onto
every event automatically, which is what makes the log joinable with
response headers, span trees and SLO exemplars.

High-volume event classes (the per-request access log) pass a
``sample`` rate: sampling is decided by a seeded RNG *before* the ring
is touched, so a sampled-out event costs one random draw.  Severities
follow stdlib logging (``debug`` < ``info`` < ``warning`` < ``error``)
and events below ``min_severity`` are dropped at the source.

**stderr is a rendering of the same events.**  Every retained event is
also handed to the stdlib ``repro`` logger at its severity, as one
``name key=value …`` line.  The library never configures that logger, so
a library user sees warnings and errors the way Python's last-resort
handler prints them; :func:`setup_logging` (called once by the CLI)
installs a timestamped stderr handler and sets the threshold —
``warning`` by default, ``debug`` under ``borges -v``.  Per-request
events are ``info``, so serving writes nothing to stderr by default.

Like the registry and tracer, a process-global instance backs
zero-config emission (:func:`get_event_log`); tests and the CLI swap in
a configured one via :func:`use_event_log`/:func:`set_event_log`.
"""

from __future__ import annotations

import json
import logging
import random
import re
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import ConfigError
from .context import current_trace_context

#: Severity names in ascending order of urgency.
SEVERITIES = ("debug", "info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: stdlib level per severity rank, for the stderr rendering.
_LEVELS = (logging.DEBUG, logging.INFO, logging.WARNING, logging.ERROR)

#: The logger events are rendered through; only :func:`setup_logging`
#: gives it a handler or a level.
_STDERR = logging.getLogger("repro")

#: Event fields the rendered line already shows another way.
_UNRENDERED = frozenset(("ts", "event", "severity"))

#: String values that must be JSON-quoted to stay one ``key=value`` token.
_NEEDS_QUOTES = re.compile(r'[\s"=]')

#: Default in-memory ring capacity (events, not bytes).
DEFAULT_CAPACITY = 2048


class EventLog:
    """Bounded ring of structured events with an optional JSONL file sink."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: Optional[Union[str, Path]] = None,
        min_severity: str = "debug",
        sample_seed: int = 0x10C,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"event log capacity must be >= 1: {capacity}")
        if min_severity not in _SEVERITY_RANK:
            raise ConfigError(
                f"unknown severity {min_severity!r}; known: {SEVERITIES}"
            )
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._min_rank = _SEVERITY_RANK[min_severity]
        self._rng = random.Random(sample_seed)
        self._path = Path(path) if path is not None else None
        self._file = None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "a", encoding="utf-8")
        self.emitted = 0
        self.sampled_out = 0
        self.suppressed = 0
        self.written = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def emit(
        self,
        name: str,
        severity: str = "info",
        sample: float = 1.0,
        **fields: object,
    ) -> Optional[Dict[str, object]]:
        """Record one event; returns it, or ``None`` when dropped.

        ``sample`` < 1 keeps that fraction of calls (seeded, so a run's
        kept set is reproducible).  Severities at ``warning`` and above
        are never sampled away — losing the rare events is exactly the
        failure mode sampling must not introduce.  A retained event is
        also rendered on stderr when the ``repro`` logger's threshold
        admits its severity (see :func:`setup_logging`).
        """
        rank = _SEVERITY_RANK.get(severity)
        if rank is None:
            raise ConfigError(
                f"unknown severity {severity!r}; known: {SEVERITIES}"
            )
        if rank < self._min_rank:
            self.suppressed += 1
            return None
        if sample < 1.0 and rank < _SEVERITY_RANK["warning"]:
            if self._rng.random() >= sample:
                self.sampled_out += 1
                return None
        event: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "event": name,
            "severity": severity,
        }
        context = current_trace_context()
        if context is not None:
            event["trace_id"] = context.trace_id
        event.update(fields)
        with self._lock:
            self._ring.append(event)
            self.emitted += 1
            if self._file is not None:
                self._file.write(
                    json.dumps(event, sort_keys=True, default=str) + "\n"
                )
                self.written += 1
                # Flush every line: the sink sits on request paths that
                # are milliseconds-scale, and a buffered access log is
                # useless to an operator tailing it live.
                self._file.flush()
        level = _LEVELS[rank]
        if _STDERR.isEnabledFor(level):
            _STDERR.log(level, _render(event))
        return event

    # -- reading -----------------------------------------------------------

    def events(
        self, name: Optional[str] = None, limit: int = 0
    ) -> List[Dict[str, object]]:
        """Retained events (oldest first), optionally filtered by name."""
        with self._lock:
            out = [
                dict(event)
                for event in self._ring
                if name is None or event.get("event") == name
            ]
        if limit > 0:
            out = out[-limit:]
        return out

    def tail(self, n: int = 10) -> List[Dict[str, object]]:
        return self.events(limit=n)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            buffered = len(self._ring)
        return {
            "emitted": self.emitted,
            "sampled_out": self.sampled_out,
            "suppressed": self.suppressed,
            "written": self.written,
            "buffered": buffered,
            "capacity": self.capacity,
            "path": str(self._path) if self._path is not None else "",
        }

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _render(event: Dict[str, object]) -> str:
    """One event as the ``name key=value …`` line stderr shows.

    Empty strings are left out: a field that says nothing (no error, no
    quarantine path) only makes the line longer.
    """
    parts = [str(event["event"])]
    for key, value in event.items():
        if key in _UNRENDERED or value == "":
            continue
        if not isinstance(value, str) or _NEEDS_QUOTES.search(value):
            value = json.dumps(value, default=str, separators=(",", ":"))
        parts.append(f"{key}={value}")
    return " ".join(parts)


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a line is emitted, so a
    redirected or captured stderr still receives the rendering."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr


def setup_logging(severity: str = "warning") -> None:
    """Render events at *severity* and above on stderr, timestamped.

    Idempotent: a second call only moves the threshold.
    """
    rank = _SEVERITY_RANK.get(severity)
    if rank is None:
        raise ConfigError(f"unknown severity {severity!r}; known: {SEVERITIES}")
    _STDERR.setLevel(_LEVELS[rank])
    if not _STDERR.handlers:
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(message)s")
        )
        _STDERR.addHandler(handler)
        _STDERR.propagate = False


# -- process-global default ----------------------------------------------------

_GLOBAL_EVENTS = EventLog()


def get_event_log() -> EventLog:
    """The process-global event log instrumented modules default to."""
    return _GLOBAL_EVENTS


def set_event_log(log: EventLog) -> EventLog:
    """Swap the global event log; returns the previous one."""
    global _GLOBAL_EVENTS
    previous = _GLOBAL_EVENTS
    _GLOBAL_EVENTS = log
    return previous


@contextmanager
def use_event_log(log: Optional[EventLog] = None) -> Iterator[EventLog]:
    """Temporarily install *log* (default: a fresh one) as global."""
    log = log or EventLog()
    previous = set_event_log(log)
    try:
        yield log
    finally:
        set_event_log(previous)
