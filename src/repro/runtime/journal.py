"""Digest-chained, append-only JSONL journal.

Two crash-safe logs share this format: the watch daemon's run journal
(:class:`repro.watch.journal.RunJournal`) and the sharded-run checkpoint
(:class:`repro.core.checkpoint.RunCheckpoint`).  Each entry is
digest-chained to its predecessor::

    {"seq": 3, "ts": ..., "kind": "publish", "prev": "<digest of seq 2>",
     "fields": {...}, "digest": "<digest of this entry sans itself>"}

The chain makes the file tamper-evident: replay recomputes every link
and a mid-file mismatch raises
:class:`~repro.errors.JournalIntegrityError`.  The *final* line is the
one place corruption is expected — a crash mid-append leaves a partial
line — so replay drops a trailing line that does not parse or whose
digest does not close the chain, rewrites the file from the verified
entries, and the next append extends a clean chain.  Every append is
fsynced before it returns.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..digest import stable_digest
from ..errors import JournalIntegrityError
from ..obs.log import get_event_log

#: ``prev`` of the first entry — a fixed sentinel, not an empty string,
#: so an attacker cannot splice a forged "first" entry mid-file.
GENESIS = "genesis"


def _entry_digest(seq: int, kind: str, prev: str, fields: Dict[str, object]) -> str:
    return stable_digest({"seq": seq, "kind": kind, "prev": prev, "fields": fields})


class ChainedJournal:
    """Append-only, digest-chained JSONL log with a self-healing tail.

    Opening the journal replays it: the digest chain is verified and a
    corrupt trailing line (the crash artifact) is dropped.  What the
    entries *mean* is up to the owner; subclasses add derived queries.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._lock = threading.Lock()
        self._entries: List[Dict[str, object]] = []
        self.dropped_tail = 0
        self._replay()

    @property
    def path(self) -> Path:
        return self._path

    # -- replay ------------------------------------------------------------

    def _drop_tail(self, reason: str) -> None:
        """Count and report a dropped final line (the kill -9 artifact)."""
        self.dropped_tail += 1
        get_event_log().emit(
            "journal.dropped_tail",
            severity="warning",
            path=str(self._path),
            reason=reason,
        )

    def _replay(self) -> None:
        if not self._path.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
            return
        raw_lines = self._path.read_text(encoding="utf-8").splitlines()
        entries: List[Dict[str, object]] = []
        prev = GENESIS
        for position, line in enumerate(raw_lines):
            last = position == len(raw_lines) - 1
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                if last:
                    # The expected kill -9 artifact: a partial final line.
                    self._drop_tail(f"unparseable final line ({exc})")
                    break
                raise JournalIntegrityError(
                    str(self._path), position, f"unparseable mid-file line: {exc}"
                ) from exc
            ok = (
                isinstance(entry, dict)
                and entry.get("prev") == prev
                and entry.get("digest")
                == _entry_digest(
                    int(entry.get("seq", -1)),
                    str(entry.get("kind", "")),
                    str(entry.get("prev", "")),
                    dict(entry.get("fields", {})),
                )
                and int(entry.get("seq", -1)) == len(entries)
            )
            if not ok:
                if last:
                    self._drop_tail("final line with broken chain")
                    break
                raise JournalIntegrityError(
                    str(self._path),
                    position,
                    "digest chain broken (edited or corrupted journal)",
                )
            entries.append(entry)
            prev = str(entry["digest"])
        self._entries = entries
        if self.dropped_tail:
            # Self-heal: rewrite the file from the verified entries so
            # the next append extends a clean chain instead of
            # concatenating onto the partial line the dead process left.
            with open(self._path, "w", encoding="utf-8") as fh:
                for entry in entries:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    # -- writing -----------------------------------------------------------

    def append(self, kind: str, **fields: object) -> Dict[str, object]:
        """Durably append one entry; returns the written entry."""
        with self._lock:
            seq = len(self._entries)
            prev = (
                str(self._entries[-1]["digest"]) if self._entries else GENESIS
            )
            entry: Dict[str, object] = {
                "seq": seq,
                "ts": round(time.time(), 6),
                "kind": kind,
                "prev": prev,
                "fields": dict(fields),
                "digest": _entry_digest(seq, kind, prev, dict(fields)),
            }
            line = json.dumps(entry, sort_keys=True) + "\n"
            # Open-append-fsync per entry: both owners write rarely (once
            # per refresh cycle or per finished shard), so durability
            # wins over keeping a file handle hot.
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            self._entries.append(entry)
            return entry

    # -- reading -----------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        with self._lock:
            return [
                dict(e)
                for e in self._entries
                if kind is None or e.get("kind") == kind
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
