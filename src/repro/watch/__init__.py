"""Watch: the continuous-operation subsystem (``borges watch``).

The paper's mapping is a living artifact — WHOIS records churn, M&A
events land, web evidence drifts — so a production Borges re-derives
and re-publishes continuously.  This package is the fault-tolerant loop
that does it without ever taking the serve tier down:

* :mod:`repro.watch.journal` — :class:`RunJournal`: an append-only,
  digest-chained JSONL record of every cycle; a ``kill -9``'d daemon
  replays it and resumes, skipping already-published dataset digests
  and quarantining digests that crashed the process twice;
* :mod:`repro.watch.archive` — :class:`SnapshotArchive`: every
  published generation as an immutable, digest-verified on-disk entry
  (never overwritten, bounded retention, oldest-first cleanup, free-disk
  guardrail), the CAIDA-style versioned-release discipline;
* :mod:`repro.watch.gate` — :class:`PublishGate`: candidate generations
  are diffed against the active one and refused when org count, ASN
  coverage, churn or ground-truth precision regress past thresholds;
* :mod:`repro.watch.daemon` — :class:`WatchDaemon`: the supervised loop
  tying it together, with seeded-jitter backoff after failures and a
  restart budget that halts a wedged loop while serving continues.

The serve tier consumes the archive for time-travel queries
(``/v1/asn?gen=N``, ``/v1/diff?from=&to=``) and exposes the daemon via
``/v1/admin/watch``; ``scripts/watch_soak.py`` is the chaos soak that
holds the whole loop to zero 5xx.
"""

from .archive import DEFAULT_MAX_ENTRIES, SnapshotArchive
from .daemon import (
    OUTCOMES,
    SimulatedProcessKill,
    WatchConfig,
    WatchDaemon,
    WatchRunResult,
)
from .gate import GateDecision, GateThresholds, PublishGate
from .journal import QUARANTINE_CRASHES, RunJournal

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "SnapshotArchive",
    "OUTCOMES",
    "SimulatedProcessKill",
    "WatchConfig",
    "WatchDaemon",
    "WatchRunResult",
    "GateDecision",
    "GateThresholds",
    "PublishGate",
    "QUARANTINE_CRASHES",
    "RunJournal",
]
