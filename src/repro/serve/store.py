"""Snapshot lifecycle: load mapping generations and hot-swap atomically.

The store holds at most one *active* :class:`Snapshot` — an immutable
:class:`~repro.serve.index.MappingIndex` plus its generation number and
provenance.  Swapping installs a fully-built replacement with a single
reference assignment, so a reader either sees the old generation or the
new one, never a half-loaded index.  A reader that needs one generation
across several lookups pins it by holding the :class:`Snapshot`
:meth:`~SnapshotStore.current` returned; a replaced generation is freed
by the garbage collector once no reader holds it.

Generations can come from four sources: an in-memory pipeline result, an
``OrgMapping`` JSON file, a CAIDA-format release file (the round-trip
``borges release`` → ``borges serve``), or a compiled blob file.  Every
one of them, and every archive time-travel generation, ends in the same
:class:`MappingIndex` over one blob.

**Integrity before swap.**  Every source is verified before it can
become the active generation: release files check the digest header
``borges release`` writes, mapping files check their embedded digest and
schema, blobs verify their payload digest on map, and in-memory mappings
pass basic sanity checks.  A failed check raises a structured
:class:`~repro.errors.SnapshotIntegrityError`; corrupt *files* are
additionally quarantined (renamed aside) so a crash-looping supervisor
cannot keep re-feeding the same bad bytes.  The store also keeps a
bounded history of last-known-good generations, so an operator can
:meth:`rollback` past a bad-but-well-formed release (``borges serve
--rollback`` / ``POST /v1/admin/rollback``).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..core.mapping import OrgMapping, verify_mapping_payload
from ..errors import (
    DataError,
    NoSnapshotError,
    ReproError,
    RollbackUnavailableError,
    SnapshotIntegrityError,
)
from ..obs import get_registry
from ..obs.log import get_event_log
from .index import MappingIndex

#: Suffix appended to a corrupt input file when it is quarantined.
QUARANTINE_SUFFIX = ".quarantined"

#: Last-known-good generations retained for :meth:`SnapshotStore.rollback`.
DEFAULT_HISTORY_LIMIT = 3

#: Historical archive generations kept decoded in memory for time-travel
#: queries (each one is a full MappingIndex — keep this small).
DEFAULT_ARCHIVE_CACHE = 4


@dataclass
class Snapshot:
    """One loaded generation of the mapping."""

    index: MappingIndex
    generation: int
    source: str
    label: str
    #: The immutable archive entry this generation was published as by
    #: the watch daemon (0 when the generation never touched the
    #: archive — CLI one-shots, direct file loads).
    archive_generation: int = 0

    def describe(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "archive_generation": self.archive_generation,
            "source": self.source,
            "label": self.label,
            **self.index.stats(),
        }


class SnapshotStore:
    """Atomic holder of the active mapping generation.

    Readers call :meth:`current` (one attribute read — atomic under the
    GIL) and keep the returned snapshot when they need the same
    generation across several lookups.  Writers call one of the
    ``load_from_*`` methods; each verifies its input, builds the index
    *outside* the lock and installs it with :meth:`swap`.

    *quarantine* controls whether corrupt input files are renamed aside
    (default on); *history_limit* bounds the rollback stack; *injector*
    optionally threads a :class:`~repro.resilience.faults.FaultInjector`
    through the file loaders so chaos runs can corrupt snapshots
    deterministically.
    """

    def __init__(
        self,
        registry=None,
        quarantine: bool = True,
        history_limit: int = DEFAULT_HISTORY_LIMIT,
        injector=None,
    ) -> None:
        self._registry = registry or get_registry()
        self._lock = threading.Lock()
        self._active: Optional[Snapshot] = None
        self._history: List[Snapshot] = []
        self._history_limit = max(0, history_limit)
        self._next_generation = 1
        self._quarantine = quarantine
        self._injector = injector
        #: True when the last swap attempt failed and an older generation
        #: is still being served (the degraded/stale read path).
        self.stale = False
        #: Degradation accounting an operator reads off /healthz and
        #: ``borges top``: how many swaps failed, what the last failure
        #: said, and how many rollbacks this process has performed.
        self.swap_failures = 0
        self.last_swap_error = ""
        self.rollback_count = 0
        #: Optional time-travel source: an attached SnapshotArchive plus
        #: a small LRU of lazily-loaded historical generations.
        self._archive = None
        self._archive_cache: "OrderedDict[int, MappingIndex]" = OrderedDict()
        self._archive_cache_limit = DEFAULT_ARCHIVE_CACHE

    # -- reader side -------------------------------------------------------

    def current(self) -> Snapshot:
        snapshot = self._active
        if snapshot is None:
            raise NoSnapshotError()
        return snapshot

    def current_or_none(self) -> Optional[Snapshot]:
        return self._active

    # -- writer side -------------------------------------------------------

    def swap(
        self,
        index: MappingIndex,
        source: str,
        label: str,
        archive_generation: int = 0,
    ) -> Snapshot:
        """Install *index* as the active generation; returns the snapshot."""
        snapshot = self._install(
            index,
            source,
            label,
            remember_previous=True,
            archive_generation=archive_generation,
        )
        get_event_log().emit(
            "snapshot.swap",
            generation=snapshot.generation,
            source=source,
            label=label,
        )
        return snapshot

    def _install(
        self,
        index: MappingIndex,
        source: str,
        label: str,
        remember_previous: bool,
        archive_generation: int = 0,
    ) -> Snapshot:
        with self._lock:
            snapshot = Snapshot(
                index=index,
                generation=self._next_generation,
                source=source,
                label=label,
                archive_generation=archive_generation,
            )
            self._next_generation += 1
            previous = self._active
            self._active = snapshot
            if (
                previous is not None
                and remember_previous
                and self._history_limit
            ):
                self._history.append(previous)
                del self._history[: -self._history_limit]
            self.stale = False
        self._registry.counter(
            "serve_snapshot_swaps_total", "Snapshot generations installed"
        ).inc()
        self._registry.gauge(
            "serve_snapshot_generation", "Active snapshot generation"
        ).set(snapshot.generation)
        self._registry.gauge(
            "serve_snapshot_history_depth",
            "Last-known-good generations available for rollback",
        ).set(len(self._history))
        return snapshot

    def rollback(self) -> Snapshot:
        """Reinstall the most recent last-known-good generation.

        The restored index gets a *new* generation number (readers always
        see generations move forward); the generation being replaced is
        deliberately **not** pushed back onto the history stack, so
        repeated rollbacks walk further into the past instead of
        ping-ponging between two generations.
        """
        with self._lock:
            if not self._history:
                raise RollbackUnavailableError()
            restored = self._history.pop()
        snapshot = self._install(
            restored.index,
            source="rollback",
            label=(
                f"generation {restored.generation} "
                f"({restored.source}: {restored.label})"
            ),
            remember_previous=False,
            archive_generation=restored.archive_generation,
        )
        with self._lock:
            self.rollback_count += 1
        self._registry.counter(
            "serve_snapshot_rollbacks_total",
            "Generations restored from last-known-good history",
        ).inc()
        get_event_log().emit(
            "snapshot.rollback",
            severity="warning",
            restored_generation=restored.generation,
            new_generation=snapshot.generation,
        )
        return snapshot

    def try_swap(
        self, loader: Callable[[], Snapshot], label: str = ""
    ) -> Optional[Snapshot]:
        """Attempt a swap; on failure keep serving the old generation.

        This is the resilience boundary of the read path: a corrupt
        release file or unreadable blob must not take down a serving
        process that already holds a good generation.  The failure is
        counted, the store is marked ``stale``, and ``None`` is returned.
        A rejected input already reported its ``snapshot.integrity_failure``
        event; any other failure is reported as ``snapshot.swap_failed``.
        """
        try:
            return loader()
        except (ReproError, OSError, ValueError, KeyError) as exc:
            with self._lock:
                self.stale = self._active is not None
                self.swap_failures += 1
                self.last_swap_error = f"{type(exc).__name__}: {exc}"
            self._registry.counter(
                "serve_snapshot_swap_failures_total",
                "Snapshot loads that failed (old generation kept)",
            ).inc()
            if not isinstance(exc, SnapshotIntegrityError):
                get_event_log().emit(
                    "snapshot.swap_failed",
                    severity="warning",
                    label=label,
                    error=f"{type(exc).__name__}: {exc}",
                    stale=self.stale,
                )
            return None

    # -- integrity ---------------------------------------------------------

    def _integrity_failure(
        self,
        source: str,
        reason: str,
        path: Optional[Path] = None,
        expected_digest: str = "",
        actual_digest: str = "",
    ) -> SnapshotIntegrityError:
        """Count, quarantine (file sources) and build the structured error."""
        quarantined_to = ""
        quarantine_error = ""
        if path is not None and self._quarantine and path.exists():
            candidate = path.with_name(path.name + QUARANTINE_SUFFIX)
            try:
                path.replace(candidate)
                quarantined_to = str(candidate)
                self._registry.counter(
                    "serve_snapshots_quarantined_total",
                    "Corrupt snapshot files renamed aside",
                ).inc()
            except OSError as exc:  # quarantine is best-effort
                quarantine_error = str(exc)
        self._registry.counter(
            "serve_snapshot_integrity_failures_total",
            "Snapshot inputs rejected before swap",
            source=source,
        ).inc()
        error = SnapshotIntegrityError(
            source=source,
            reason=reason,
            path=str(path) if path is not None else "",
            expected_digest=expected_digest,
            actual_digest=actual_digest,
            quarantined_to=quarantined_to,
        )
        get_event_log().emit(
            "snapshot.integrity_failure",
            severity="error",
            source=source,
            reason=reason,
            path=str(path) if path is not None else "",
            quarantined_to=quarantined_to,
            quarantine_error=quarantine_error,
        )
        return error

    def _chaos_corrupt(self, text: str, key: str) -> str:
        """Let an attached fault injector corrupt snapshot bytes."""
        if self._injector is None:
            return text
        from ..resilience.faults import SERVE_SURFACE, corrupt_snapshot_text

        kind = self._injector.next_fault(SERVE_SURFACE, f"snapshot:{key}")
        if kind == "corrupt_snapshot":
            return corrupt_snapshot_text(text, seed=self._injector.seed)
        return text

    # -- loaders -----------------------------------------------------------

    def load_from_mapping(
        self,
        mapping: OrgMapping,
        whois=None,
        pdb=None,
        label: str = "in-memory",
    ) -> Snapshot:
        if len(mapping) == 0 or mapping.universe_size == 0:
            raise self._integrity_failure(
                "mapping", "refusing to serve an empty mapping"
            )
        index = MappingIndex.build(mapping, whois=whois, pdb=pdb)
        return self.swap(index, source="mapping", label=label)

    def load_from_mapping_file(self, path: Union[str, Path]) -> Snapshot:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read mapping file {path}: {exc}") from exc
        text = self._chaos_corrupt(text, path.name)
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise self._integrity_failure(
                "mapping-file", f"not valid JSON: {exc}", path
            ) from exc
        try:
            verify_mapping_payload(payload, origin=str(path))
        except SnapshotIntegrityError as exc:
            raise self._integrity_failure(
                "mapping-file",
                exc.reason,
                path,
                expected_digest=exc.expected_digest,
                actual_digest=exc.actual_digest,
            ) from exc
        index = MappingIndex.build(OrgMapping.from_json(payload))
        return self.swap(index, source="mapping-file", label=str(path))

    def load_from_release_file(self, path: Union[str, Path]) -> Snapshot:
        """Load a CAIDA-format as2org release file as a generation.

        This closes the publish/serve round trip: the file written by
        ``borges release`` (or CAIDA's own AS2Org file) groups ASNs by
        ``organizationId``; each group becomes one served organization.
        The digest header ``borges release`` writes is verified first;
        headerless files (CAIDA's own) skip straight to schema checks.
        """
        from ..errors import SnapshotError
        from ..whois.as2org_file import (
            read_as2org_file_text,
            scan_release,
            split_lines,
        )

        path = Path(path)
        text = self._chaos_corrupt(read_as2org_file_text(path), path.name)
        # One pass over the lines reads the header, the digest and the
        # records; no list of lines, record objects or mapping is built,
        # and the rows compile straight into the blob.
        try:
            release = scan_release(split_lines(text), origin=str(path))
        except SnapshotError as exc:
            raise self._integrity_failure("release-file", str(exc), path) from exc
        del text
        header = release.header
        if header is not None:
            expected = str(header.get("digest", ""))
            if release.digest != expected:
                raise self._integrity_failure(
                    "release-file",
                    "release digest mismatch (truncated or tampered file)",
                    path,
                    expected_digest=expected,
                    actual_digest=release.digest,
                )
        try:
            asn_count, rows = release.org_rows()
        except (SnapshotError, DataError, ValueError) as exc:
            raise self._integrity_failure("release-file", str(exc), path) from exc
        # From here only the rows hold the records, so they are freed
        # once the compile has read them, before the blob is assembled.
        del release
        if not asn_count:
            raise self._integrity_failure(
                "release-file", "release file contains no ASN records", path
            )
        index = MappingIndex.compile("release", asn_count, rows)
        return self.swap(index, source="release-file", label=str(path))

    def load_from_blob_file(self, path: Union[str, Path]) -> Snapshot:
        """Load a compiled snapshot blob as the active generation.

        The blob is mapped read-only and served *as the index* — a
        :class:`MappingIndex` reads its buffer in place, so the file's
        bytes are the whole generation.  Verification (magic, version,
        layout, slot table, payload SHA-256) happens on map; a corrupt
        or old-version blob is quarantined exactly like a corrupt
        release or mapping file.
        """
        from .shm.blob import BlobFormatError
        from .shm.segment import map_blob_file

        path = Path(path)
        try:
            index = map_blob_file(path)
        except OSError as exc:
            raise DataError(f"cannot read blob file {path}: {exc}") from exc
        except BlobFormatError as exc:
            raise self._integrity_failure("blob", str(exc), path) from exc
        return self.swap(index, source="blob", label=str(path))

    # -- time-travel -------------------------------------------------------

    def attach_archive(self, archive) -> None:
        """Attach a :class:`~repro.watch.archive.SnapshotArchive`.

        Enables :meth:`generation_index` — answering queries from
        historical generations (``/v1/asn?gen=N``) and generation diffs
        (``/v1/diff``).  The archive is read lazily; at most
        ``DEFAULT_ARCHIVE_CACHE`` decoded historical indexes stay in
        memory, LRU-evicted.
        """
        self._archive = archive

    @property
    def archive(self):
        return self._archive

    def generation_index(self, archive_generation: int) -> MappingIndex:
        """The index for one archive generation (active or historical).

        The active snapshot answers its own archive generation without
        touching disk; anything else is the generation's archived blob —
        digest-verified — cached in a bounded LRU.
        Raises :class:`~repro.errors.UnknownGenerationError` when no
        archive is attached or the generation is not in it.
        """
        from ..errors import UnknownGenerationError

        active = self._active
        if (
            active is not None
            and active.archive_generation == archive_generation
            and archive_generation > 0
        ):
            return active.index
        if self._archive is None:
            raise UnknownGenerationError(
                archive_generation, "no snapshot archive attached"
            )
        with self._lock:
            cached = self._archive_cache.get(archive_generation)
            if cached is not None:
                self._archive_cache.move_to_end(archive_generation)
                return cached
        # Read outside the lock — archive reads are milliseconds-scale
        # and must not stall the swap path.  The entry read verifies the
        # generation (a corrupt one is quarantined); the answers come
        # from the blob it served live, names and countries included.
        self._archive.read(archive_generation)
        index = MappingIndex(self._archive.read_blob(archive_generation))
        with self._lock:
            self._archive_cache[archive_generation] = index
            while len(self._archive_cache) > self._archive_cache_limit:
                self._archive_cache.popitem(last=False)
        self._registry.counter(
            "serve_timetravel_loads_total",
            "Historical generations decoded from the archive",
        ).inc()
        return index

    # -- accounting --------------------------------------------------------

    def history(self) -> List[Dict[str, object]]:
        """Rollback candidates, oldest first (never the active snapshot)."""
        with self._lock:
            return [snapshot.describe() for snapshot in self._history]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            active = self._active
            history = len(self._history)
            archive_cached = len(self._archive_cache)
        out: Dict[str, object] = {
            "stale": self.stale,
            "swap_failures": self.swap_failures,
            "last_swap_error": self.last_swap_error,
            "rollback_count": self.rollback_count,
            "history_depth": history,
            "timetravel_cached": archive_cached,
        }
        if active is not None:
            out["active"] = active.describe()
        return out
