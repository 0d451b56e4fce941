"""Blob segments on a shared-memory filesystem + the generation pointer.

A *segment* is one compiled blob written as a file — under ``/dev/shm``
when the platform has one, so N worker processes mapping it share one
physical copy of the page cache.  File-backed ``mmap`` is deliberately
preferred over :mod:`multiprocessing.shared_memory`: POSIX semantics
keep a mapping valid after the file is unlinked, which is exactly the
lifetime the swap fence needs (the supervisor unlinks a replaced
segment once every worker acked the new generation, while workers keep
their old mappings alive for per-worker rollback history), and there is
no resource tracker to fight over who unlinks what.

The *pointer* (``pointer.json``) names the current generation and its
segment file.  It is replaced by atomic rename, so a worker polling it
always reads a complete document — either the old generation or the new
one, never a torn write.  That rename **is** the swap fence: everything
before it (segment write + fsync) is invisible to workers, everything
after it is a complete, digest-verified blob.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..index import MappingIndex
from .blob import BLOB_SUFFIX, read_header

#: Segment filename pattern (zero-padded so ``sorted()`` is generation
#: order, mirroring the watch archive's entry naming).
SEGMENT_NAME = "gen-{generation:06d}" + BLOB_SUFFIX

_SEGMENT_RE = re.compile(r"^gen-(\d{6})\.blob$")

#: The atomically-renamed generation pointer file.
POINTER_NAME = "pointer.json"


def default_shm_root() -> Path:
    """``/dev/shm`` when present and writable, else the temp dir."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


def map_blob_file(path: Union[str, Path]) -> MappingIndex:
    """Map and verify a blob file; returns a ready :class:`MappingIndex`.

    The mapping object is parked on the returned index's ``_mapped``
    attribute so the memory stays valid for the index's lifetime; it is
    closed by the garbage collector with the index (or explicitly by a
    :class:`MappedBlob` owner).
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


class MappedBlob:
    """One open segment mapping with an explicit close.

    Workers hold one per generation they can still roll back to; the
    file may be unlinked underneath (the supervisor does, after the
    fence) without invalidating the mapping.
    """

    __slots__ = ("path", "generation", "index")

    def __init__(self, path: Path, generation: int) -> None:
        self.path = path
        self.generation = generation
        self.index = map_blob_file(path)

    def close(self) -> None:
        mapped = self.index._mapped
        self.index._mapped = None
        if mapped is not None:
            mapped.close()


class SegmentStore:
    """A directory of segments plus the generation pointer.

    One supervisor writes (``write_segment`` → ``set_pointer`` →
    ``unlink_segment`` once acked); many workers read (``pointer`` →
    ``map_generation``).  All writes are crash-ordered: segments are
    written to a temp name, fsynced and renamed before the pointer ever
    names them, so a crash can leave an orphan temp file or an unused
    segment but never a pointer at a torn blob.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- naming ------------------------------------------------------------

    def segment_path(self, generation: int) -> Path:
        return self.root / SEGMENT_NAME.format(generation=generation)

    @property
    def pointer_path(self) -> Path:
        return self.root / POINTER_NAME

    def generations(self) -> List[int]:
        """Generation numbers with a segment on disk, ascending."""
        out = []
        for path in self.root.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # -- writer side (supervisor) -----------------------------------------

    def _atomic_write(self, target: Path, data: bytes) -> None:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def write_segment(self, generation: int, blob: bytes) -> Path:
        """Publish *blob* as generation *generation* (not yet pointed at)."""
        path = self.segment_path(generation)
        self._atomic_write(path, blob)
        return path

    def set_pointer(self, generation: int, **extra: object) -> Dict[str, object]:
        """Atomically point readers at *generation* — the swap fence."""
        header = read_header(self.segment_path(generation).read_bytes())
        pointer: Dict[str, object] = {
            "generation": generation,
            "segment": SEGMENT_NAME.format(generation=generation),
            "index_digest": header.index_digest,
            "blob_bytes": header.blob_size,
            "published_unix": round(time.time(), 6),
        }
        pointer.update(extra)
        self._atomic_write(
            self.pointer_path,
            json.dumps(pointer, sort_keys=True).encode("utf-8"),
        )
        return pointer

    def unlink_segment(self, generation: int) -> bool:
        """Remove a replaced segment; existing mappings stay valid."""
        try:
            self.segment_path(generation).unlink()
            return True
        except OSError:
            return False

    def cleanup(self) -> None:
        """Remove every segment, the pointer, orphan temps and the dir."""
        for path in list(self.root.iterdir()):
            if (
                _SEGMENT_RE.match(path.name)
                or path.name == POINTER_NAME
                or path.name.endswith(".tmp")
                or path.name.startswith("worker-")
                or path.name == "pool.json"
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            self.root.rmdir()
        except OSError:
            pass  # non-empty (operator files) or already gone

    # -- reader side (workers) --------------------------------------------

    def pointer(self) -> Optional[Dict[str, object]]:
        """The current pointer, or ``None`` before the first publish.

        Tolerant of a concurrently-renaming writer: a missing or
        unreadable pointer is "try again next poll", never an error.
        """
        try:
            raw = self.pointer_path.read_text(encoding="utf-8")
            pointer = json.loads(raw)
        except (OSError, ValueError):
            return None
        if not isinstance(pointer, dict) or "generation" not in pointer:
            return None
        return pointer

    def map_generation(self, generation: int) -> MappedBlob:
        """Map one published generation (verified on open)."""
        return MappedBlob(self.segment_path(generation), generation)
