"""Observability: metrics, spans, trace context, events, SLOs, manifests.

Composable but independent pieces:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket histograms
  (process-global by default, injectable for tests);
* :class:`Tracer` — nested wall-clock spans with attributes, error
  status, and W3C trace/span IDs;
* :class:`TraceContext` — W3C ``traceparent`` parse/generate with
  contextvar propagation (:func:`use_trace_context`), joining HTTP
  requests, span trees, events and exemplars under one trace ID;
* :class:`EventLog` — structured JSONL events (bounded ring + optional
  file sink) stamped with the current trace ID, and the only reporting
  path: stderr renders the same events (:func:`setup_logging`);
* :class:`SLOTracker` — rolling-window availability/latency objectives
  with multi-window burn-rate alerting, plus :class:`ExemplarStore`
  (slow-request span trees) and :class:`RuntimeSampler` (process gauges);
* exporters — :func:`build_manifest`/:func:`write_manifest` (the JSON run
  manifest) and :func:`render_prometheus` (text exposition format).

The hot paths (pipeline features, LLM client, scraper, favicon API,
experiment runner, serve tier) are instrumented against the global
registry/tracer/event log, so ``borges run --telemetry-out run.json``
captures a full run for free.
"""

from .context import (
    SPAN_ID_HEX_LENGTH,
    TRACE_ID_HEX_LENGTH,
    TRACE_RESPONSE_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    current_trace_context,
    ensure_trace_context,
    generate_span_id,
    generate_trace_id,
    new_trace_context,
    parse_traceparent,
    reset_trace_context,
    set_trace_context,
    use_trace_context,
)
from .log import (
    DEFAULT_CAPACITY,
    SEVERITIES,
    EventLog,
    get_event_log,
    set_event_log,
    setup_logging,
    use_event_log,
)
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    config_fingerprint,
    load_manifest,
    write_manifest,
)
from .process import PEAK_RSS_GAUGE, peak_rss_bytes, record_peak_rss
from .prometheus import render_prometheus
from .registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_LOOKUP_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
    use_registry,
)
from .slo import (
    DEFAULT_BURN_RATE_THRESHOLD,
    DEFAULT_EXEMPLAR_THRESHOLD,
    ExemplarStore,
    RuntimeSampler,
    SLOConfig,
    SLOTracker,
)
from .tracer import Span, Tracer, get_tracer, set_tracer, use_tracer

__all__ = [
    "SPAN_ID_HEX_LENGTH",
    "TRACE_ID_HEX_LENGTH",
    "TRACE_RESPONSE_HEADER",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "current_trace_context",
    "ensure_trace_context",
    "generate_span_id",
    "generate_trace_id",
    "new_trace_context",
    "parse_traceparent",
    "reset_trace_context",
    "set_trace_context",
    "use_trace_context",
    "DEFAULT_CAPACITY",
    "SEVERITIES",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "setup_logging",
    "use_event_log",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "config_fingerprint",
    "load_manifest",
    "write_manifest",
    "PEAK_RSS_GAUGE",
    "peak_rss_bytes",
    "record_peak_rss",
    "render_prometheus",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_LOOKUP_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "set_registry",
    "use_registry",
    "DEFAULT_BURN_RATE_THRESHOLD",
    "DEFAULT_EXEMPLAR_THRESHOLD",
    "ExemplarStore",
    "RuntimeSampler",
    "SLOConfig",
    "SLOTracker",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
