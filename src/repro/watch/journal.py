"""Crash-safe run journal: the daemon's append-only memory.

The watch loop must survive ``kill -9`` at any instruction.  Everything
it needs to resume — which dataset digests were already published, which
ones crashed the process and how often — lives in one append-only JSONL
file, in the digest-chained, fsync-per-entry, self-healing format of
:class:`repro.runtime.journal.ChainedJournal`.

Entry kinds (the ``fields`` payload varies by kind):

=============  ==============================================================
``start``      a refresh cycle began working on ``dataset_digest``
``publish``    the candidate was archived as ``generation`` (pre-swap!)
``swap``       the archived generation became the active serving snapshot
``fail``       the cycle failed with a recorded error (clean failure)
``skip``       the cycle was skipped (unchanged digest, quarantined, …)
``gate``       the publish gate blocked the candidate
``quarantine`` a dataset digest was quarantined after repeated crashes
=============  ==============================================================

A ``start`` with no terminal entry (``publish``/``swap``/``fail``/
``skip``/``gate``) is an *orphan*: the process died mid-cycle.  Two
orphan starts for the same dataset digest quarantine it — a reproducible
process-killer must not be retried forever.

``publish`` is deliberately written *after* the archive write and
*before* the swap: a crash between the two leaves a journal that knows
the generation exists, so the restarted daemon re-installs it from the
archive instead of re-running the pipeline or double-publishing.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..runtime.journal import ChainedJournal

#: Entry kinds that terminate a ``start`` (see module docstring).
TERMINAL_KINDS = frozenset({"publish", "swap", "fail", "skip", "gate"})

#: Orphan ``start`` entries for one digest before it is quarantined.
QUARANTINE_CRASHES = 2


class RunJournal(ChainedJournal):
    """The watch daemon's run journal: a :class:`ChainedJournal` plus the
    derived state the daemon resumes from.

    Opening the journal replays it, so published digests, orphan-crash
    counts and the quarantine set are rebuilt and the daemon resumes
    exactly where the dead process stopped.
    """

    def published_digests(self) -> Set[str]:
        """Dataset digests with a ``publish`` entry (safe to skip)."""
        return {
            str(e["fields"].get("dataset_digest", ""))
            for e in self.entries("publish")
        } - {""}

    def last_published(self) -> Optional[Dict[str, object]]:
        """The most recent ``publish`` entry's fields, if any."""
        published = self.entries("publish")
        return dict(published[-1]["fields"]) if published else None

    def last_swapped_generation(self) -> int:
        """Archive generation of the most recent ``swap`` entry (0 if none)."""
        swaps = self.entries("swap")
        if not swaps:
            return 0
        return int(swaps[-1]["fields"].get("archive_generation", 0))

    def orphan_crash_counts(self) -> Dict[str, int]:
        """Per-digest count of ``start`` entries the process never closed.

        The *currently open* start (the live cycle of a running daemon)
        is indistinguishable from a crash until the next entry lands, so
        callers must compute this at startup, before appending.
        """
        counts: Dict[str, int] = {}
        open_digest: Optional[str] = None
        for entry in self.entries():
            kind = entry.get("kind")
            fields = dict(entry.get("fields", {}))
            if kind == "start":
                if open_digest is not None:
                    counts[open_digest] = counts.get(open_digest, 0) + 1
                open_digest = str(fields.get("dataset_digest", ""))
            elif kind in TERMINAL_KINDS:
                open_digest = None
        if open_digest is not None:
            counts[open_digest] = counts.get(open_digest, 0) + 1
        return counts

    def quarantined_digests(self) -> Set[str]:
        """Digests barred from further runs (crashed the process twice)."""
        explicit = {
            str(e["fields"].get("dataset_digest", ""))
            for e in self.entries("quarantine")
        } - {""}
        crashed = {
            digest
            for digest, crashes in self.orphan_crash_counts().items()
            if crashes >= QUARANTINE_CRASHES and digest
        }
        return explicit | crashed

    def stats(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for entry in self.entries():
            kind = str(entry.get("kind"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "path": str(self._path),
            "entries": len(self),
            "by_kind": by_kind,
            "dropped_tail": self.dropped_tail,
            "published_digests": len(self.published_digests()),
            "quarantined_digests": sorted(self.quarantined_digests()),
        }
