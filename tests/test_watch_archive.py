"""Invariant tests for the versioned snapshot archive.

Three mechanical guarantees under test: entries are never overwritten
and generation numbers never reused (immutability), every read is
digest-verified with corrupt entries quarantined aside (integrity), and
retention prunes oldest-first but never the newest entry, with disk
pressure surfacing as a typed retryable error (boundedness).
"""

from __future__ import annotations

import pytest

from repro.core.mapping import OrgMapping
from repro.errors import (
    ArchiveImmutabilityError,
    DiskPressureError,
    SnapshotIntegrityError,
    UnknownGenerationError,
)
from repro.obs import use_registry
from repro.resilience import PROFILES, FaultInjector
from repro.serve import MappingIndex
from repro.watch import SnapshotArchive
from repro.watch import archive as archive_mod
from repro.watch.archive import QUARANTINE_SUFFIX


def make_mapping(groups, method="archive-test"):
    universe = sorted(asn for group in groups for asn in group)
    return OrgMapping(
        universe=universe,
        clusters=[frozenset(group) for group in groups],
        method=method,
    )


def publish(archive, groups, **kwargs):
    mapping = make_mapping(groups)
    return archive.publish(mapping, MappingIndex.build(mapping), **kwargs)


@pytest.fixture()
def registry():
    with use_registry() as reg:
        yield reg


@pytest.fixture()
def archive(tmp_path, registry):
    return SnapshotArchive(tmp_path / "archive", registry=registry)


class TestPublishRead:
    def test_generations_are_sequential_and_round_trip(self, archive):
        entry = publish(
            archive, [{1, 2}, {3}], label="first", dataset_digest="d1"
        )
        assert entry["archive_generation"] == 1
        publish(archive, [{1, 2, 3}], label="second")
        assert archive.generations() == [1, 2]
        assert len(archive) == 2
        restored = OrgMapping.from_json(archive.read(1)["mapping"])
        assert {frozenset(c) for c in restored.clusters()} == {
            frozenset({1, 2}), frozenset({3}),
        }
        assert MappingIndex(archive.read_blob(1)).org_of(1).members == (1, 2)

    def test_header_carries_provenance_without_the_payload(self, archive):
        publish(
            archive,
            [{1, 2}],
            label="nightly",
            dataset_digest="abc",
            meta={"gate": {"churn_fraction": 0.0}},
        )
        header = archive.header(1)
        assert header["label"] == "nightly"
        assert header["dataset_digest"] == "abc"
        assert header["meta"] == {"gate": {"churn_fraction": 0.0}}
        assert "mapping" not in header

    def test_unknown_generation_is_a_typed_error(self, archive):
        with pytest.raises(UnknownGenerationError):
            archive.read(42)


class TestImmutability:
    def test_existing_entry_is_never_overwritten(self, archive, monkeypatch):
        publish(archive, [{1, 2}], label="first")
        before = archive._entry_path(1).read_bytes()
        monkeypatch.setattr(archive, "next_generation", lambda: 1)
        with pytest.raises(ArchiveImmutabilityError):
            publish(archive, [{9, 10}], label="imposter")
        assert archive._entry_path(1).read_bytes() == before

    def test_quarantined_generation_numbers_are_burned(self, archive):
        publish(archive, [{1, 2}], label="gen1")
        publish(archive, [{1, 2}, {3}], label="gen2")
        path = archive._entry_path(2)
        path.write_text(path.read_text(encoding="utf-8")[:-20], "utf-8")
        with pytest.raises(SnapshotIntegrityError):
            archive.read(2)
        # The number stays burned: the next publish skips over it.
        entry = publish(archive, [{1}, {2}, {3}], label="gen3")
        assert entry["archive_generation"] == 3
        assert archive.generations() == [1, 3]

    def test_blob_lands_first_and_an_orphan_burns_its_number(
        self, archive, monkeypatch
    ):
        publish(archive, [{1, 2}], label="gen1")

        def killed_before_entry(path, mode="r", *args, **kwargs):
            if mode == "x":
                raise OSError("killed before the entry landed")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(
            archive_mod, "open", killed_before_entry, raising=False
        )
        with pytest.raises(OSError):
            publish(archive, [{1, 2}, {3}], label="gen2")
        monkeypatch.undo()
        # The blob landed before the entry; with no entry (the commit
        # point) generation 2 does not exist, but its number is burned...
        assert archive.has_blob(2) and archive.generations() == [1]
        entry = publish(archive, [{1}, {2}, {3}], label="gen3")
        assert entry["archive_generation"] == 3
        # ...and that publish's prune deleted the orphan blob.
        assert not archive.has_blob(2)
        assert archive.generations() == [1, 3]


class TestReadIntegrity:
    def test_corrupt_entry_is_quarantined_and_typed(self, archive):
        publish(archive, [{1, 2}], label="gen1", dataset_digest="d")
        path = archive._entry_path(1)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"label"', '"lebal"', 1), "utf-8")
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            archive.read(1)
        assert excinfo.value.source == "archive"
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
        assert not path.exists()
        with pytest.raises(UnknownGenerationError):
            archive.read(1)

    def test_non_json_entry_is_quarantined(self, archive):
        publish(archive, [{1, 2}], label="gen1")
        path = archive._entry_path(1)
        path.write_text("]]]garbage", encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError):
            archive.read(1)
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestRetention:
    def test_prunes_oldest_first_past_max_entries(self, tmp_path, registry):
        archive = SnapshotArchive(
            tmp_path / "archive", max_entries=2, registry=registry
        )
        for n in range(4):
            publish(archive, [{1, 2}, {n + 10}], label=f"g{n}")
        # Pruning runs before each write, so the freshly published entry
        # may sit one past the budget until the next cycle's prune.
        assert archive.generations() == [2, 3, 4]
        assert archive.prune() == [2]
        assert archive.generations() == [3, 4]

    def test_aggressive_prune_keeps_only_the_newest(self, archive):
        for n in range(3):
            publish(archive, [{1, 2}, {n + 10}], label=f"g{n}")
        removed = archive.prune(aggressive=True)
        assert removed == [1, 2]
        assert archive.generations() == [3]

    def test_max_bytes_prunes_but_spares_the_newest(self, tmp_path, registry):
        archive = SnapshotArchive(
            tmp_path / "archive", max_bytes=1, registry=registry
        )
        for n in range(3):
            publish(archive, [{1, 2}, {n + 10}], label=f"g{n}")
        # Every entry is far over 1 byte; pruning-before-publish removes
        # history but the newest entry is sacred, so exactly the last
        # publish plus its predecessor-at-write-time survive each round.
        assert archive.generations() == [2, 3]

    def test_disk_pressure_is_typed_and_retryable(self, tmp_path, registry):
        injector = FaultInjector(PROFILES["disk-pressure"], seed=7)
        archive = SnapshotArchive(
            tmp_path / "archive",
            free_bytes_floor=1,
            registry=registry,
            injector=injector,
        )
        with pytest.raises(DiskPressureError) as excinfo:
            publish(archive, [{1, 2}], label="g0")
        assert excinfo.value.retryable
        assert len(archive) == 0  # nothing half-written

    def test_floor_without_injector_uses_real_free_space(self, tmp_path, registry):
        huge_floor = 1 << 62  # no filesystem has this much headroom
        archive = SnapshotArchive(
            tmp_path / "archive", free_bytes_floor=huge_floor, registry=registry
        )
        with pytest.raises(DiskPressureError):
            publish(archive, [{1, 2}], label="g0")

    def test_stats_report_bounds_and_extent(self, archive):
        publish(archive, [{1, 2}], label="g0")
        publish(archive, [{1}, {2}], label="g1")
        stats = archive.stats()
        assert stats["entries"] == 2
        assert stats["oldest_generation"] == 1
        assert stats["newest_generation"] == 2
        assert stats["total_bytes"] == archive.total_bytes() > 0
