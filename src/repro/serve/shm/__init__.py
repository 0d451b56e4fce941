"""Shared-memory serve tier: compiled snapshot blobs + a worker pool.

The single-process serve tier answers every lookup under one GIL.  This
package is the process-parallel read path that breaks that ceiling:

* :mod:`repro.serve.shm.blob` — a snapshot *compiler* that lowers a
  :class:`~repro.serve.index.MappingIndex` into one flat,
  offset-indexed, digest-stamped binary blob: a CHD-style minimal
  perfect hash over ASNs, org→members spans, a sorted token table with
  search postings, and a deduplicated string arena;
* :mod:`repro.serve.shm.reader` — :class:`BlobIndex`, a zero-copy
  reader reconstructing the full :class:`MappingIndex` query semantics
  (byte-identical responses) straight off an ``mmap`` view, with lazy
  ``__slots__`` record views instead of per-snapshot object graphs;
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
"""

from .blob import (
    BLOB_MAGIC,
    BLOB_SUFFIX,
    BLOB_VERSION,
    BlobFormatError,
    BlobHeader,
    compile_index,
    read_header,
    verify_blob,
)
from .reader import BlobAsnRecord, BlobIndex, BlobOrgRecord
from .segment import (
    MappedBlob,
    SegmentStore,
    default_shm_root,
    map_blob_file,
)
from .pool import WorkerConfig, WorkerPool

__all__ = [
    "BLOB_MAGIC",
    "BLOB_SUFFIX",
    "BLOB_VERSION",
    "BlobAsnRecord",
    "BlobFormatError",
    "BlobHeader",
    "BlobIndex",
    "BlobOrgRecord",
    "MappedBlob",
    "SegmentStore",
    "WorkerConfig",
    "WorkerPool",
    "compile_index",
    "default_shm_root",
    "map_blob_file",
    "read_header",
    "verify_blob",
]
