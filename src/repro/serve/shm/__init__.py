"""Shared-memory serve tier: snapshot blobs + a worker pool.

The single-process serve tier answers every lookup under one GIL.  This
package is the process-parallel read path that breaks that ceiling.
Every :class:`~repro.serve.index.MappingIndex` already *is* one flat
blob, so a worker serves a generation by mapping that blob read-only:

* :mod:`repro.serve.shm.blob` — the blob format: a linear-probing ASN
  slot table, org→members spans, a sorted token table with search
  postings and a deduplicated string arena behind a digest-stamped
  header (assembly, :func:`verify_blob`, :func:`read_header`);
* :mod:`repro.serve.shm.segment` — blob segments as files under
  ``/dev/shm`` with an atomically-renamed generation pointer, so N
  processes map one physical copy read-only;
* :mod:`repro.serve.shm.pool` — :class:`WorkerPool`: forks N
  :class:`~repro.serve.httpd.QueryServer` workers behind
  ``SO_REUSEPORT``, hot-swaps generations through the pointer fence
  (publish → fence → workers remap+ack → old segment unlinked), and
  respawns crashed workers onto the current generation.

``borges serve --workers N`` is the CLI entry point; ``borges top
--pool DIR`` watches a running pool per-worker.

The package namespace exports only the blob format, because
:mod:`repro.serve.index` is built on it; import the segment store and
the pool from their modules (or from :mod:`repro.serve`).
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
