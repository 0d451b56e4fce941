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

from .admission import AdmissionController, AdmissionLimits
from .diff import GenerationDiff, diff_indexes
from .index import AsnRecord, MappingIndex, OrgRecord, org_handle, tokenize
from .loadgen import (
    RESPONSE_CLASSES,
    HttpConnectionPool,
    LoadGenerator,
    LoadReport,
    ZipfianSampler,
    percentile,
    run_pipelined,
)
from .service import ENDPOINTS, QueryService
from .store import Snapshot, SnapshotStore
from .httpd import MAX_BATCH_ASNS, MAX_CONTENT_LENGTH, QueryServer
from .top import PoolTopView, TopView, run_top
from .shm.pool import WorkerConfig, WorkerPool
from .shm.segment import map_blob_file

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "AsnRecord",
    "GenerationDiff",
    "diff_indexes",
    "MappingIndex",
    "OrgRecord",
    "org_handle",
    "tokenize",
    "LoadGenerator",
    "LoadReport",
    "RESPONSE_CLASSES",
    "ZipfianSampler",
    "percentile",
    "PoolTopView",
    "TopView",
    "run_top",
    "ENDPOINTS",
    "QueryService",
    "Snapshot",
    "SnapshotStore",
    "MAX_BATCH_ASNS",
    "MAX_CONTENT_LENGTH",
    "QueryServer",
    "HttpConnectionPool",
    "WorkerConfig",
    "WorkerPool",
    "map_blob_file",
    "run_pipelined",
]
