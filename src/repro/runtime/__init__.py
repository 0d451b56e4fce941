"""Runtime: execution machinery shared by the pipeline, serve and watch.

This package sits below :mod:`repro.core` so that every layer above can
use it without importing sideways or upwards:

* :mod:`repro.runtime.supervise` — :func:`run_supervised`, the one
  supervised fan-out (process or thread attempts, deadlines, retries
  with seeded backoff, heartbeats) behind sharded runs;
* :mod:`repro.runtime.journal` — :class:`ChainedJournal`, the
  digest-chained, fsync-per-entry, self-healing JSONL log behind the
  sharded-run checkpoint and the watch daemon's run journal.
"""

from .journal import ChainedJournal
from .supervise import ForkedOutcome, run_supervised

__all__ = ["ChainedJournal", "ForkedOutcome", "run_supervised"]
