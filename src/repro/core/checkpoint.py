"""Crash-safe sharded-run checkpoint: resume from completed shards.

A million-ASN sharded run is the longest wall-clock path in the repo;
dying at shard 7 of 8 and redoing everything is the difference between a
non-event and an incident.  :class:`RunCheckpoint` journals every
completed shard's cluster lists into a digest-chained, append-only JSONL
log (:class:`repro.runtime.journal.ChainedJournal` — tamper-evident
chain, fsync per entry, self-healing partial tail), keyed by a run
*identity*.  ``borges run --shards N --resume`` (and every
sharded watch refresh) replays the file, re-runs only missing or failed
shards, and reduces journaled + fresh clusters into a mapping
byte-identical to the uninterrupted run.

The identity is the digest of everything that determines the *result*:
dataset content digests, the result-relevant config fingerprint, the
stage set and the shard count.  It deliberately excludes the resilience
config — fault profiles, retry budgets and deadlines change how a run
*executes*, never what it computes — so a checkpoint written under chaos
is resumable by the clean re-run.  A ``begin`` under a different
identity resets the file: stale shards from another universe are never
reduced into the wrong mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..digest import stable_digest
from ..obs.log import get_event_log
from ..runtime.journal import ChainedJournal
from ..types import Cluster

Pathish = Union[str, "Path"]  # noqa: F821 — typing nicety only


def run_identity(
    dataset_digests: Dict[str, str],
    config_fingerprint: str,
    n_shards: int,
    stages: Sequence[str],
) -> str:
    """Digest of everything that determines a sharded run's result."""
    return stable_digest(
        {
            "datasets": dict(dataset_digests),
            "config": config_fingerprint,
            "n_shards": int(n_shards),
            "stages": sorted(str(s) for s in stages),
        }
    )


def _clusters_to_json(clusters: Sequence[Cluster]) -> List[List[int]]:
    return sorted(sorted(int(a) for a in cluster) for cluster in clusters)


def _clusters_from_json(payload: object) -> List[Cluster]:
    return [frozenset(int(a) for a in cluster) for cluster in payload or []]


class RunCheckpoint:
    """Digest-chained journal of completed shards for one run identity.

    Entry kinds:

    ``begin``  opens a run (``identity``, ``n_shards``); everything after
               it belongs to that identity.  Only the *latest* begin's
               shards are live — an identity change resets the file.
    ``shard``  one completed shard: its merged cluster list plus its
               per-feature cluster lists, both as sorted ASN arrays so
               the entry digest is canonical.
    """

    def __init__(self, path: Pathish) -> None:
        self._journal = ChainedJournal(path)

    @property
    def path(self):
        return self._journal.path

    @property
    def dropped_tail(self) -> int:
        return self._journal.dropped_tail

    # -- replay ------------------------------------------------------------

    def identity(self) -> Optional[str]:
        """Identity of the latest ``begin``, or ``None`` for a fresh file."""
        begins = self._journal.entries("begin")
        if not begins:
            return None
        return str(begins[-1]["fields"].get("identity", ""))

    def completed_shards(
        self, identity: Optional[str] = None
    ) -> Dict[int, Dict[str, object]]:
        """Shard index → recorded fields, for the latest ``begin``.

        With *identity* given, an identity mismatch returns ``{}`` — a
        checkpoint from a different universe/config resumes nothing.
        """
        completed: Dict[int, Dict[str, object]] = {}
        current: Optional[str] = None
        for entry in self._journal.entries():
            kind = entry.get("kind")
            fields = dict(entry.get("fields", {}))
            if kind == "begin":
                current = str(fields.get("identity", ""))
                completed = {}
            elif kind == "shard":
                completed[int(fields.get("shard", -1))] = fields
        if identity is not None and current != identity:
            return {}
        return completed

    # -- writing -----------------------------------------------------------

    def begin(self, identity: str, n_shards: int) -> Dict[int, Dict[str, object]]:
        """Open a run; returns the shards already completed for *identity*.

        Same identity → the journal is extended (resume).  Different
        identity → the file is reset and nothing resumes.
        """
        completed = self.completed_shards(identity)
        if self.identity() != identity:
            if self.identity() is not None:
                get_event_log().emit("checkpoint.reset", path=str(self.path))
            self.reset()
            self._journal.append(
                "begin", identity=identity, n_shards=int(n_shards)
            )
        return completed

    def record_shard(
        self,
        shard_index: int,
        merged: Sequence[Cluster],
        features: Dict[str, Sequence[Cluster]],
        duration_seconds: float = 0.0,
    ) -> None:
        """Durably journal one completed shard's cluster lists."""
        self._journal.append(
            "shard",
            shard=int(shard_index),
            merged=_clusters_to_json(merged),
            features={
                str(name): _clusters_to_json(clusters)
                for name, clusters in sorted(features.items())
            },
            duration_seconds=round(float(duration_seconds), 6),
        )

    def reset(self) -> None:
        """Discard every entry (the file is recreated on the next append)."""
        path = self._journal.path
        try:
            path.unlink()
        except OSError:
            pass
        self._journal = ChainedJournal(path)

    # -- decoding ----------------------------------------------------------

    @staticmethod
    def shard_clusters(fields: Dict[str, object]) -> List[Cluster]:
        """A recorded shard's merged clusters, as frozensets."""
        return _clusters_from_json(fields.get("merged"))

    @staticmethod
    def shard_feature_clusters(
        fields: Dict[str, object]
    ) -> Dict[str, List[Cluster]]:
        """A recorded shard's per-feature clusters, as frozensets."""
        features = fields.get("features")
        if not isinstance(features, dict):
            return {}
        return {
            str(name): _clusters_from_json(clusters)
            for name, clusters in features.items()
        }

    def stats(self) -> Dict[str, object]:
        completed = self.completed_shards()
        return {
            "path": str(self.path),
            "identity": self.identity(),
            "entries": len(self._journal),
            "completed_shards": sorted(completed),
            "dropped_tail": self.dropped_tail,
        }
