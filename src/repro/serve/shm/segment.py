"""Blob files on a shared-memory filesystem, mapped read-only.

A *segment* is one compiled blob written as a file — under ``/dev/shm``
when the platform has one, so N worker processes mapping it share one
physical copy of the page cache.  File-backed ``mmap`` is deliberately
preferred over :mod:`multiprocessing.shared_memory`: there is no
resource tracker to fight over who unlinks what, and the mapping lives
exactly as long as the :class:`~repro.serve.index.MappingIndex` that
holds it.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from pathlib import Path
from typing import Union

from ..index import MappingIndex


def default_shm_root() -> Path:
    """``/dev/shm`` when present and writable, else the temp dir."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


def map_blob_file(path: Union[str, Path]) -> MappingIndex:
    """Map and verify a blob file; returns a ready :class:`MappingIndex`.

    The mapping object is parked on the returned index's ``_mapped``
    attribute so the memory stays valid for the index's lifetime; the
    garbage collector closes it with the index.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        index = MappingIndex(mapped, verify=True)
    except Exception:
        mapped.close()
        raise
    index._mapped = mapped
    return index
