"""Content-addressed artifact store for the stage DAG.

Every stage's output is an :class:`Artifact`: a JSON payload addressed
by a *fingerprint* — a SHA-256 over the stage name, the config slice the
stage declares, the digests of the datasets it reads, and the
fingerprints of its upstream artifacts.  Two runs that would compute the
same thing therefore share the same address, so re-runs and ablation
sweeps (Table 6's 16 feature combinations) reuse unchanged stages
instead of recomputing them.

The store keeps artifacts in memory and, when given a ``root``
directory, mirrors them to disk as canonical JSON — one file per
artifact, byte-identical across identical runs — so a later process
(CI's warm-cache job, a repeated CLI run with ``--artifact-cache``) is
served from cache.

A computed artifact's bytes are produced on its first read: a ``put``
into a store with a root, a memory hit, or :meth:`ArtifactStore.manifest`.
Until then the store holds the stage's value and a thunk that encodes
it, so a run on a store nothing reads never pays for the codec.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..digest import canonical_json, stable_digest
from ..obs.log import get_event_log

#: Bump when the artifact payload encoding changes incompatibly; the
#: version participates in every fingerprint, so stale caches miss
#: instead of decoding garbage.
ARTIFACT_SCHEMA_VERSION = 1


class Artifact:
    """One stage output: a JSON payload plus its addresses.

    ``fingerprint`` is the *input* address (what produced it);
    ``content_digest`` is the hash of the payload itself, used by the
    determinism property tests ("same inputs ⇒ byte-identical output").

    An artifact read from disk starts with both set.  A computed one
    starts with ``materialize`` only: a thunk that builds the artifact
    from the stage's value (see :class:`~repro.core.executor.StageExecutor`).
    The first read of ``payload`` or ``content_digest`` runs it, keeps
    both fields and drops the thunk, and with it the value.  That is
    sound because stage values are immutable after ``produce``; it also
    means an encode error surfaces at the first read.
    """

    __slots__ = (
        "stage", "fingerprint", "_content_digest", "_payload", "_materialize"
    )

    def __init__(
        self,
        stage: str,
        fingerprint: str,
        content_digest: Optional[str] = None,
        payload: object = None,
        materialize: Optional[Callable[[], "Artifact"]] = None,
    ) -> None:
        self.stage = stage
        self.fingerprint = fingerprint
        self._content_digest = content_digest
        self._payload = payload
        self._materialize = materialize

    def _read(self) -> None:
        materialize = self._materialize
        if materialize is not None:
            # Thread-mode shards share a store, so two readers may both
            # get here; each builds the same bytes, so either one wins.
            built = materialize()
            self._payload = built.payload
            self._content_digest = built.content_digest
            self._materialize = None

    @property
    def payload(self) -> object:
        self._read()
        return self._payload

    @property
    def content_digest(self) -> str:
        self._read()
        return self._content_digest  # type: ignore[return-value]

    def to_json(self) -> Dict[str, object]:
        return {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "stage": self.stage,
            "fingerprint": self.fingerprint,
            "content_digest": self.content_digest,
            "payload": self.payload,
        }


def compute_fingerprint(
    stage: str,
    config_slice: object,
    dataset_digests: Dict[str, str],
    upstream: Dict[str, str],
    salt: Optional[object] = None,
) -> str:
    """The content address of a stage execution (before it runs)."""
    material: Dict[str, object] = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "stage": stage,
        "config": config_slice,
        "datasets": dict(dataset_digests),
        "upstream": dict(upstream),
    }
    if salt is not None:
        material["salt"] = salt
    return stable_digest(material)


def make_artifact(stage: str, fingerprint: str, payload: object) -> Artifact:
    """Wrap an encoded payload, computing its content digest."""
    return Artifact(
        stage=stage,
        fingerprint=fingerprint,
        content_digest=stable_digest(payload),
        payload=payload,
    )


class ArtifactStore:
    """In-memory artifact cache with an optional on-disk JSON mirror.

    Thread-safe: a single run executes its stages on the calling thread,
    but the shards of a thread-mode sharded run share one store.
    Per-stage counters (computed / memory_hits / disk_hits / misses) are
    the ground truth the sweep tests and the warm-cache CI job assert on.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Artifact] = {}
        self._lock = threading.Lock()
        #: stage name → {"computed": n, "memory_hits": n, "disk_hits": n,
        #:               "misses": n}
        self.counters: Dict[str, Dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._memory)

    def _count(self, stage: str, event: str) -> None:
        with self._lock:
            per_stage = self.counters.setdefault(
                stage,
                {"computed": 0, "memory_hits": 0, "disk_hits": 0, "misses": 0},
            )
            per_stage[event] += 1

    def _path_for(self, stage: str, fingerprint: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{stage}.{fingerprint[:32]}.json"

    # -- lookups ----------------------------------------------------------

    def peek(self, stage: str, fingerprint: str) -> Optional[str]:
        """Where a hit would come from (``memory``/``disk``), sans counters."""
        if fingerprint in self._memory:
            return "memory"
        path = self._path_for(stage, fingerprint)
        if path is not None and path.exists():
            return "disk"
        return None

    def get(self, stage: str, fingerprint: str) -> Optional[Artifact]:
        """Fetch an artifact by address, updating hit/miss counters."""
        artifact = self._memory.get(fingerprint)
        if artifact is not None:
            self._count(stage, "memory_hits")
            return artifact
        path = self._path_for(stage, fingerprint)
        if path is not None and path.exists():
            try:
                import json

                document = json.loads(path.read_text(encoding="utf-8"))
                if (
                    document.get("schema_version") == ARTIFACT_SCHEMA_VERSION
                    and document.get("fingerprint") == fingerprint
                ):
                    artifact = Artifact(
                        stage=str(document["stage"]),
                        fingerprint=fingerprint,
                        content_digest=str(document["content_digest"]),
                        payload=document["payload"],
                    )
                    with self._lock:
                        self._memory[fingerprint] = artifact
                    self._count(stage, "disk_hits")
                    return artifact
            except (OSError, ValueError, KeyError) as exc:
                get_event_log().emit(
                    "artifact.unreadable",
                    severity="warning",
                    path=str(path),
                    error=str(exc),
                )
        self._count(stage, "misses")
        return None

    # -- writes -----------------------------------------------------------

    def put(self, artifact: Artifact, computed: bool = True) -> Artifact:
        """Record an artifact; persists to disk when a root is set.

        Persisting reads the artifact, so with a root its bytes are
        built here, and an encode error raises before anything is
        recorded.
        """
        path = self._path_for(artifact.stage, artifact.fingerprint)
        text = None if path is None else canonical_json(artifact.to_json()) + "\n"
        with self._lock:
            self._memory[artifact.fingerprint] = artifact
        if computed:
            self._count(artifact.stage, "computed")
        if text is not None:
            try:
                path.write_text(text, encoding="utf-8")
            except OSError as exc:
                get_event_log().emit(
                    "artifact.persist_failed",
                    severity="warning",
                    path=str(path),
                    error=str(exc),
                )
        return artifact

    # -- accounting -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Aggregate and per-stage cache accounting for diagnostics."""
        with self._lock:
            per_stage = {k: dict(v) for k, v in sorted(self.counters.items())}
        totals = {"computed": 0, "memory_hits": 0, "disk_hits": 0, "misses": 0}
        for counts in per_stage.values():
            for key in totals:
                totals[key] += counts.get(key, 0)
        hits = totals["memory_hits"] + totals["disk_hits"]
        lookups = hits + totals["misses"]
        return {
            "entries": len(self._memory),
            "hits": hits,
            "misses": totals["misses"],
            "computed": totals["computed"],
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "persistent": self.root is not None,
            "stages": per_stage,
        }

    def manifest(self) -> Dict[str, Dict[str, str]]:
        """Deterministic fingerprint→content map (no timestamps).

        Two identical runs must produce byte-identical manifests; this is
        the object the determinism property compares.  It reads every
        artifact, so it builds the bytes of any not read yet.
        """
        with self._lock:
            artifacts = list(self._memory.values())
        return {
            a.fingerprint: {"stage": a.stage, "content_digest": a.content_digest}
            for a in sorted(artifacts, key=lambda a: (a.stage, a.fingerprint))
        }
