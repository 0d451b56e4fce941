"""Serve: the read-path subsystem over completed AS-to-Org mappings.

The write side of the repo (pipeline → :class:`~repro.core.OrgMapping` →
release file) *produces* mappings; this package *answers queries* against
them, the way downstream tools consume CAIDA's AS2Org:

* :mod:`repro.serve.index` — :class:`MappingIndex`: the one read
  index — a mapping lowered into one flat blob, read in place for
  ASN→org / org→members lookups and tokenized org-name search;
* :mod:`repro.serve.diff` — :class:`GenerationDiff`: orgs merged/split
  and ASNs moved between two indexed generations (the ``/v1/diff``
  body, and the publish gate's churn input);
* :mod:`repro.serve.store` — :class:`SnapshotStore`: loads generations
  (pipeline results, mapping JSON, CAIDA-format release files, merge
  artifacts, compiled blob files) and hot-swaps them atomically;
* :mod:`repro.serve.service` — :class:`QueryService`: batched lookups,
  an LRU response cache, and per-endpoint sub-millisecond latency
  histograms in the shared metrics registry;
* :mod:`repro.serve.httpd` — :class:`QueryServer`: a thread-per-connection
  HTTP/1.1 JSON API (``/v1/asn``, ``/v1/org``, ``/v1/siblings``,
  ``/v1/search``, ``/healthz``, ``/metrics``) whose lean keep-alive
  request loop parses each request once and answers it in one write;
* :mod:`repro.serve.admission` — :class:`AdmissionController`: bounded
  concurrency with a finite wait queue and per-endpoint deadlines, so
  saturated load sheds fast (HTTP 429/503) instead of piling up;
* :mod:`repro.serve.loadgen` — seeded Zipfian traffic for benchmarks,
  including a multi-threaded overload mode with response-class
  accounting and per-request trace-context propagation;
* :mod:`repro.serve.top` — the ``borges top`` terminal dashboard,
  polling ``/metrics`` + ``/v1/admin/slo`` into a live view;
* :mod:`repro.serve.shm` — the multi-worker tier: the blob format,
  blob files mapped from shared memory, and the
  :class:`~repro.serve.shm.pool.WorkerPool` supervisor forking N query
  servers that each map the same index blob read-only (``borges serve
  --workers N``).

Observability rides through the whole stack: every HTTP response
carries ``x-borges-trace-id``, request outcomes feed the
:class:`~repro.obs.slo.SLOTracker`'s burn-rate alerts, and sampled
``http.access`` events land in the structured event log.

``borges serve``, ``borges query`` and ``borges top`` are the CLI entry
points.
"""

#: Public name → the submodule that defines it.  Each is imported on
#: first access (PEP 562), so importing this package runs none of
#: the load generator, dashboard or worker pool until a caller asks
#: for it.
_EXPORTS = {
    "AdmissionController": "admission",
    "AdmissionLimits": "admission",
    "AsnRecord": "index",
    "GenerationDiff": "diff",
    "diff_indexes": "diff",
    "MappingIndex": "index",
    "OrgRecord": "index",
    "org_handle": "index",
    "tokenize": "index",
    "LoadGenerator": "loadgen",
    "LoadReport": "loadgen",
    "RESPONSE_CLASSES": "loadgen",
    "ZipfianSampler": "loadgen",
    "percentile": "loadgen",
    "PoolTopView": "top",
    "TopView": "top",
    "run_top": "top",
    "ENDPOINTS": "service",
    "QueryService": "service",
    "Snapshot": "store",
    "SnapshotStore": "store",
    "MAX_BATCH_ASNS": "httpd",
    "MAX_CONTENT_LENGTH": "httpd",
    "QueryServer": "httpd",
    "HttpConnectionPool": "loadgen",
    "WorkerConfig": "shm.pool",
    "WorkerPool": "shm.pool",
    "map_blob_file": "shm.segment",
    "run_pipelined": "loadgen",
}

__all__ = [*_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    # ``__import__`` (``from .module import name``) takes the
    # interpreter's own import path, which ``-X importtime`` reports;
    # ``importlib.import_module`` would hide the import from it.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
