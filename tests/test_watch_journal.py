"""Crash-safety tests for the watch daemon's digest-chained run journal.

The journal is the daemon's only memory across ``kill -9``: these tests
pin the chain invariants (tamper-evidence mid-file, tolerance for a
partial final line), the self-heal on replay, and every piece of derived
state the daemon's :meth:`recover` consumes — published digests, orphan
crash counts, and the quarantine set.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalIntegrityError
from repro.runtime.journal import GENESIS
from repro.watch import QUARANTINE_CRASHES, RunJournal


@pytest.fixture()
def journal(tmp_path):
    return RunJournal(tmp_path / "journal.jsonl")


class TestChain:
    def test_entries_are_digest_chained(self, journal):
        first = journal.append("start", dataset_digest="d1", cycle=1)
        second = journal.append(
            "publish", dataset_digest="d1", archive_generation=1
        )
        assert first["prev"] == GENESIS
        assert second["prev"] == first["digest"]
        assert [e["seq"] for e in journal.entries()] == [0, 1]

    def test_replay_reproduces_entries_and_extends_the_chain(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        journal.append("publish", dataset_digest="d1", archive_generation=1)
        journal.append("swap", dataset_digest="d1", archive_generation=1)
        replayed = RunJournal(journal.path)
        assert replayed.entries() == journal.entries()
        assert replayed.dropped_tail == 0
        appended = replayed.append("start", dataset_digest="d2", cycle=2)
        assert appended["prev"] == journal.entries()[-1]["digest"]
        assert len(RunJournal(journal.path)) == 4

    def test_missing_file_starts_an_empty_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "nested" / "dir" / "journal.jsonl")
        assert len(journal) == 0
        assert journal.published_digests() == set()
        assert journal.last_published() is None
        assert journal.last_swapped_generation() == 0


class TestCrashArtifacts:
    def test_partial_final_line_is_dropped_not_fatal(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        journal.append("fail", dataset_digest="d1", error="boom")
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "ts"')  # kill -9 mid-append
        replayed = RunJournal(journal.path)
        assert replayed.dropped_tail == 1
        assert len(replayed) == 2

    def test_dropped_tail_is_truncated_so_appends_stay_clean(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"partial')  # no trailing newline, like a real crash
        replayed = RunJournal(journal.path)
        assert replayed.dropped_tail == 1
        replayed.append("fail", dataset_digest="d1", error="boom")
        # The partial line must not have swallowed the new entry: a
        # third replay sees both good entries and a clean chain.
        final = RunJournal(journal.path)
        assert final.dropped_tail == 0
        assert [e["kind"] for e in final.entries()] == ["start", "fail"]

    def test_final_line_with_broken_chain_is_dropped(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        forged = {
            "seq": 1,
            "ts": 0.0,
            "kind": "publish",
            "prev": "not-the-real-digest",
            "fields": {"dataset_digest": "d1"},
            "digest": "forged",
        }
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(forged) + "\n")
        replayed = RunJournal(journal.path)
        assert replayed.dropped_tail == 1
        assert [e["kind"] for e in replayed.entries()] == ["start"]

    def test_mid_file_garbage_raises_integrity_error(self, journal):
        for n in range(3):
            journal.append("start", dataset_digest=f"d{n}", cycle=n)
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        lines[1] = "not json at all"
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalIntegrityError):
            RunJournal(journal.path)

    def test_mid_file_tampered_fields_break_the_chain(self, journal):
        journal.append("publish", dataset_digest="d1", archive_generation=1)
        journal.append("swap", dataset_digest="d1", archive_generation=1)
        journal.append("start", dataset_digest="d2", cycle=2)
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[0])
        entry["fields"]["dataset_digest"] = "dX"  # rewrite history
        lines[0] = json.dumps(entry, sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalIntegrityError):
            RunJournal(journal.path)


class TestDerivedState:
    def test_published_digests_and_last_published(self, journal):
        journal.append("publish", dataset_digest="d1", archive_generation=1)
        journal.append("publish", dataset_digest="d2", archive_generation=2)
        assert journal.published_digests() == {"d1", "d2"}
        last = journal.last_published()
        assert last["dataset_digest"] == "d2"
        assert last["archive_generation"] == 2

    def test_last_swapped_generation_tracks_the_newest_swap(self, journal):
        assert journal.last_swapped_generation() == 0
        journal.append("swap", dataset_digest="d1", archive_generation=3)
        journal.append("swap", dataset_digest="d2", archive_generation=7)
        assert journal.last_swapped_generation() == 7

    def test_orphan_starts_are_counted_per_digest(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        journal.append("fail", dataset_digest="d1", error="clean failure")
        journal.append("start", dataset_digest="d2", cycle=2)  # orphan
        journal.append("start", dataset_digest="d2", cycle=3)  # orphan again
        counts = journal.orphan_crash_counts()
        assert "d1" not in counts  # terminated cleanly
        assert counts["d2"] == QUARANTINE_CRASHES
        assert journal.quarantined_digests() == {"d2"}

    def test_explicit_quarantine_entries_count(self, journal):
        journal.append("quarantine", dataset_digest="d9", crashes=2)
        assert journal.quarantined_digests() == {"d9"}

    def test_stats_rolls_up_kinds_and_quarantine(self, journal):
        journal.append("start", dataset_digest="d1", cycle=1)
        journal.append("publish", dataset_digest="d1", archive_generation=1)
        journal.append("swap", dataset_digest="d1", archive_generation=1)
        journal.append("quarantine", dataset_digest="bad", crashes=2)
        stats = journal.stats()
        assert stats["entries"] == 4
        assert stats["by_kind"] == {
            "start": 1, "publish": 1, "swap": 1, "quarantine": 1,
        }
        assert stats["dropped_tail"] == 0
        assert stats["published_digests"] == 1
        assert stats["quarantined_digests"] == ["bad"]
