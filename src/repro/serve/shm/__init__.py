"""Shared-memory serve tier: snapshot blobs + a worker pool.

The single-process serve tier answers every lookup under one GIL.  This
package is the process-parallel read path that breaks that ceiling.
Every :class:`~repro.serve.index.MappingIndex` already *is* one flat
blob, so a worker serves a generation by mapping that blob read-only:

* :mod:`repro.serve.shm.blob` — the blob format: a linear-probing ASN
  slot table, org→members spans, a sorted token table with search
  postings and a deduplicated string arena behind a digest-stamped
  header (assembly, :func:`verify_blob`, :func:`read_header`);
* :mod:`repro.serve.shm.segment` — blob files mapped read-only
  (:func:`map_blob_file`), written under ``/dev/shm`` by the pool so N
  processes map one physical copy;
* :mod:`repro.serve.shm.pool` — :class:`WorkerPool`: writes one blob as
  a segment, forks N :class:`~repro.serve.httpd.QueryServer` workers
  behind ``SO_REUSEPORT`` that serve it until the pool stops, and
  respawns crashed workers onto the same segment.

``borges serve --workers N`` is the CLI entry point; ``borges top
--pool DIR`` watches a running pool per-worker.

The package namespace exports only the blob format, because
:mod:`repro.serve.index` is built on it; import the segment helpers
and the pool from their modules (or from :mod:`repro.serve`).
"""

from .blob import (
    BLOB_MAGIC,
    BLOB_SUFFIX,
    BLOB_VERSION,
    BlobFormatError,
    BlobHeader,
    read_header,
    verify_blob,
)

__all__ = [
    "BLOB_MAGIC",
    "BLOB_SUFFIX",
    "BLOB_VERSION",
    "BlobFormatError",
    "BlobHeader",
    "read_header",
    "verify_blob",
]
