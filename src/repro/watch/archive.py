"""The versioned snapshot archive: every published mapping, forever-ish.

CAIDA ships AS2Org as dated, immutable releases; the archive is that
discipline on disk.  Each published generation is one JSON entry plus
the compiled read index it served live (names, websites and countries
included), as a blob sidecar::

    archive/
      gen-000001.json        {"archive_generation": 1, "created": ...,
      gen-000001.blob         "label": ..., "dataset_digest": ...,
      gen-000002.json         "mapping": <OrgMapping payload>,
      gen-000002.blob         "digest": <digest over everything else>}
      ...

Time travel and resume serve the blob; the entry is the commit point
and carries the provenance.

Three invariants, each enforced mechanically rather than by convention:

* **Never overwritten.**  Entries are created with ``open(path, "x")``
  (exclusive create) — a second write to the same generation raises
  :class:`~repro.errors.ArchiveImmutabilityError` before a byte lands.
  Generation numbers are never reused either: the next number is one
  past the highest ever seen, *including* quarantined entries and
  blobs left without an entry.
* **Digest-verified on read.**  Every read recomputes the entry digest
  and the embedded mapping digest; a mismatch quarantines the file
  (renamed aside, same pattern as the serve store) and raises
  :class:`~repro.errors.SnapshotIntegrityError` — a corrupt archive
  entry can fail a time-travel query, never poison the serving path.
* **Bounded.**  Retention keeps at most ``max_entries`` / ``max_bytes``
  of history, pruning oldest-first but never the newest entry; a
  free-disk floor turns a full disk into a typed, retryable
  :class:`~repro.errors.DiskPressureError` instead of a half-written
  file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.mapping import OrgMapping, verify_mapping_payload
from ..digest import stable_digest
from ..errors import (
    ArchiveImmutabilityError,
    DiskPressureError,
    SnapshotIntegrityError,
    UnknownGenerationError,
)
from ..obs import get_registry
from ..obs.log import get_event_log

#: Archive entry filename pattern; the zero-padding keeps ``sorted()``
#: equal to generation order up to 999999 generations.
ENTRY_NAME = "gen-{generation:06d}.json"

_ENTRY_RE = re.compile(r"^gen-(\d{6})\.json$")

#: Suffix for quarantined (digest-mismatched) entries.
QUARANTINE_SUFFIX = ".quarantined"

#: Default retention: entries kept before oldest-first pruning.
DEFAULT_MAX_ENTRIES = 64


class SnapshotArchive:
    """Immutable, digest-verified, bounded on-disk generation history."""

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = 0,
        free_bytes_floor: int = 0,
        registry=None,
        injector=None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max(1, max_entries)
        self.max_bytes = max(0, max_bytes)
        self.free_bytes_floor = max(0, free_bytes_floor)
        self._registry = registry or get_registry()
        self._injector = injector

    # -- enumeration -------------------------------------------------------

    def _entry_path(self, generation: int) -> Path:
        return self.root / ENTRY_NAME.format(generation=generation)

    def generations(self) -> List[int]:
        """Readable generation numbers, ascending (quarantined excluded)."""
        out = []
        for path in self.root.iterdir():
            match = _ENTRY_RE.match(path.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def _highest_ever(self) -> int:
        """Highest generation number ever assigned, quarantined entries
        and entry-less blobs included."""
        highest = 0
        for path in self.root.iterdir():
            match = re.match(r"^gen-(\d{6})\.(?:json|blob)", path.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest

    def next_generation(self) -> int:
        return self._highest_ever() + 1

    def __len__(self) -> int:
        return len(self.generations())

    def total_bytes(self) -> int:
        return sum(
            self._entry_path(g).stat().st_size for g in self.generations()
        )

    # -- writing -----------------------------------------------------------

    def _free_bytes(self) -> int:
        free = shutil.disk_usage(self.root).free
        if self._injector is not None:
            from ..resilience.faults import WATCH_SURFACE

            kind = self._injector.next_fault(WATCH_SURFACE, "archive:disk")
            if kind == "disk_pressure":
                return 0  # a full disk, as far as the guardrail can tell
        return free

    def publish(
        self,
        mapping: OrgMapping,
        index,
        label: str = "",
        dataset_digest: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Write *mapping* as the next generation; returns the entry header.

        *index* is the :class:`~repro.serve.index.MappingIndex` the
        generation serves; its blob is archived as the sidecar
        ``gen-NNNNNN.blob`` that time travel and resume answer from.

        The write path is crash-ordered: number the generation, prune
        (so retention can free the space this entry needs), check the
        disk floor, then exclusive-create and fsync the blob and only
        then the JSON entry.  The entry is the commit point, so every
        entry has its blob.  A crash between the two leaves a blob with
        no entry: its number is burned (never reassigned) and the next
        prune deletes the blob.  A crash mid-entry leaves a partial file
        whose digest check fails on read — it is quarantined there.
        """
        generation = self.next_generation()
        self.prune()
        if self.free_bytes_floor:
            free = self._free_bytes()
            if free < self.free_bytes_floor:
                # Emergency pruning: drop history (never the newest) to
                # get under the floor before giving up.
                self.prune(aggressive=True)
                free = self._free_bytes()
                if free < self.free_bytes_floor:
                    self._registry.counter(
                        "watch_archive_disk_pressure_total",
                        "Publishes refused by the free-disk floor",
                    ).inc()
                    raise DiskPressureError(free, self.free_bytes_floor)
        path = self._entry_path(generation)
        payload = mapping.to_json()
        payload["digest"] = stable_digest(
            {k: v for k, v in payload.items() if k != "digest"}
        )
        entry: Dict[str, object] = {
            "archive_generation": generation,
            "created": round(time.time(), 6),
            "label": label,
            "dataset_digest": dataset_digest,
            "meta": dict(meta or {}),
            "mapping": payload,
        }
        entry["digest"] = stable_digest(
            {k: v for k, v in entry.items() if k != "digest"}
        )
        self._write_blob(generation, index)
        try:
            with open(path, "x", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
        except FileExistsError:
            raise ArchiveImmutabilityError(generation, str(path)) from None
        self._registry.counter(
            "watch_archive_publishes_total", "Generations written to the archive"
        ).inc()
        self._registry.gauge(
            "watch_archive_entries", "Readable archive generations on disk"
        ).set(len(self))
        get_event_log().emit(
            "watch.archive_publish",
            archive_generation=generation,
            label=label,
            dataset_digest=dataset_digest,
            bytes=path.stat().st_size,
            blob_bytes=len(index.blob),
        )
        return {k: v for k, v in entry.items() if k != "mapping"}

    # -- compiled-blob sidecars --------------------------------------------

    def blob_path(self, generation: int) -> Path:
        return self.root / f"gen-{generation:06d}.blob"

    def has_blob(self, generation: int) -> bool:
        return self.blob_path(generation).exists()

    def _write_blob(self, generation: int, index) -> None:
        path = self.blob_path(generation)
        blob = index.blob
        try:
            with open(path, "xb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
        except FileExistsError:
            raise ArchiveImmutabilityError(generation, str(path)) from None
        self._registry.counter(
            "watch_archive_blob_publishes_total",
            "Compiled-blob sidecars written to the archive",
        ).inc()

    def read_blob(self, generation: int) -> bytes:
        """One generation's verified compiled blob.

        Raises :class:`~repro.errors.UnknownGenerationError` when the
        generation has no blob and
        :class:`~repro.errors.SnapshotIntegrityError` — after
        quarantining the file — when the blob fails verification.  The
        JSON entry stays readable either way; only serving that
        generation is lost.
        """
        from ..serve.shm.blob import BlobFormatError, verify_blob

        path = self.blob_path(generation)
        if not path.exists():
            raise UnknownGenerationError(
                generation, "no compiled blob in archive"
            )
        blob = path.read_bytes()
        try:
            verify_blob(blob)
        except BlobFormatError as exc:
            quarantined = self._quarantine(path, f"blob sidecar: {exc}")
            raise SnapshotIntegrityError(
                source="archive-blob",
                reason=f"blob sidecar for generation {generation}: {exc}",
                path=str(path),
                quarantined_to=quarantined,
            ) from exc
        return blob

    # -- reading -----------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> str:
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        quarantined_to = ""
        quarantine_error = ""
        try:
            path.replace(target)
            quarantined_to = str(target)
        except OSError as exc:  # best-effort, like the serve store
            quarantine_error = str(exc)
        self._registry.counter(
            "watch_archive_corrupt_total",
            "Archive entries that failed digest verification",
        ).inc()
        get_event_log().emit(
            "watch.archive_corrupt",
            severity="error",
            path=str(path),
            reason=reason,
            quarantined_to=quarantined_to,
            quarantine_error=quarantine_error,
        )
        return quarantined_to

    def read(self, generation: int) -> Dict[str, object]:
        """Load and verify one entry; returns the full entry dict.

        Raises :class:`~repro.errors.UnknownGenerationError` when the
        entry does not exist and
        :class:`~repro.errors.SnapshotIntegrityError` (after
        quarantining the file) when it fails verification.
        """
        path = self._entry_path(generation)
        if not path.exists():
            raise UnknownGenerationError(generation, "not in archive")
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            quarantined = self._quarantine(path, f"not valid JSON: {exc}")
            raise SnapshotIntegrityError(
                source="archive",
                reason=f"entry {generation} is not valid JSON: {exc}",
                path=str(path),
                quarantined_to=quarantined,
            ) from exc
        expected = str(entry.get("digest", "")) if isinstance(entry, dict) else ""
        actual = (
            stable_digest({k: v for k, v in entry.items() if k != "digest"})
            if isinstance(entry, dict)
            else ""
        )
        if not isinstance(entry, dict) or actual != expected:
            quarantined = self._quarantine(path, "entry digest mismatch")
            raise SnapshotIntegrityError(
                source="archive",
                reason=f"entry {generation} digest mismatch",
                path=str(path),
                expected_digest=expected,
                actual_digest=actual,
                quarantined_to=quarantined,
            )
        verify_mapping_payload(
            entry.get("mapping"), origin=f"archive gen {generation}"
        )
        return entry

    def header(self, generation: int) -> Dict[str, object]:
        """The entry minus its mapping payload (verified like a read)."""
        return {
            k: v for k, v in self.read(generation).items() if k != "mapping"
        }

    # -- retention ---------------------------------------------------------

    def prune(self, aggressive: bool = False) -> List[int]:
        """Oldest-first cleanup; returns the generations removed.

        Normal mode enforces ``max_entries`` and ``max_bytes``.
        Aggressive mode (disk pressure) keeps only the newest entry.
        The newest entry is never removed — the active generation's
        provenance must survive any cleanup.  Blobs whose entry is gone
        (pruned, quarantined, or never written) are deleted too.
        """
        generations = self.generations()
        removed: List[int] = []
        keep_floor = 1  # the newest entry is sacred
        budget = 1 if aggressive else self.max_entries
        while len(generations) > max(keep_floor, budget):
            removed.append(generations.pop(0))
        if self.max_bytes and not aggressive:
            total = sum(
                self._entry_path(g).stat().st_size for g in generations
            )
            while total > self.max_bytes and len(generations) > keep_floor:
                oldest = generations.pop(0)
                total -= self._entry_path(oldest).stat().st_size
                removed.append(oldest)
        errors: List[str] = []

        def unlink(path: Path) -> None:
            try:
                path.unlink()
            except OSError as exc:
                errors.append(f"{path.name}: {exc}")

        for generation in removed:
            unlink(self._entry_path(generation))
        for path in self.root.glob("gen-*.blob"):
            if not path.with_suffix(".json").exists():
                unlink(path)
        if removed:
            self._registry.counter(
                "watch_archive_pruned_total",
                "Archive generations removed by retention",
            ).inc(len(removed))
        if removed or errors:
            get_event_log().emit(
                "watch.archive_prune",
                severity="warning" if errors else "info",
                removed=removed,
                aggressive=aggressive,
                errors=errors,
            )
        return removed

    # -- accounting --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        generations = self.generations()
        return {
            "root": str(self.root),
            "entries": len(generations),
            "blob_sidecars": sum(
                1 for g in generations if self.has_blob(g)
            ),
            "oldest_generation": generations[0] if generations else 0,
            "newest_generation": generations[-1] if generations else 0,
            "total_bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "free_bytes_floor": self.free_bytes_floor,
        }
