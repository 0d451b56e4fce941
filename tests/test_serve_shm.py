"""Tests for the multi-worker serve tier: blob, reader, segments, pool.

The compiler/reader tests assert *byte identity*: every endpoint answer
a :class:`BlobIndex` produces must serialize to exactly the JSON the
in-memory :class:`MappingIndex` produces, over a seeded corpus of hits,
misses, sibling pairs, and search queries.  The pool tests run real
forked workers behind one SO_REUSEPORT socket and exercise hot swap,
``kill -9`` churn mid-swap, and shared-memory hygiene (no leaked
segments after stop).
"""

from __future__ import annotations

import json
import random
import signal
import socket
import struct
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import (
    SnapshotIntegrityError,
    UnknownASNError,
    UnknownGenerationError,
    UnknownOrgError,
)
from repro.obs import use_registry
from repro.serve import (
    HttpConnectionPool,
    MappingIndex,
    QueryService,
    SnapshotStore,
    WorkerConfig,
    WorkerPool,
    compile_index,
    map_blob_file,
    run_pipelined,
)
from repro.serve.loadgen import LoadGenerator
from repro.serve.shm import (
    BLOB_MAGIC,
    BlobFormatError,
    BlobIndex,
    SegmentStore,
    read_header,
    verify_blob,
)
from repro.serve.shm.blob import blob_stats
from repro.serve.top import PoolTopView
from repro.watch.archive import SnapshotArchive


@pytest.fixture()
def registry():
    with use_registry() as reg:
        yield reg


@pytest.fixture(scope="module")
def index(borges_mapping, universe):
    return MappingIndex.build(
        borges_mapping, whois=universe.whois, pdb=universe.pdb
    )


@pytest.fixture(scope="module")
def blob(index):
    return compile_index(index)


@pytest.fixture(scope="module")
def blob_index(blob):
    return BlobIndex(blob)


# -- compiler + header -------------------------------------------------------


class TestBlobFormat:
    def test_header_round_trip(self, blob, index):
        assert blob.startswith(BLOB_MAGIC)
        header = read_header(blob)
        assert header.blob_size == len(blob)
        assert header.asn_count == index.asn_count
        assert header.org_count == len(index)
        assert header.index_digest == index.digest

    def test_verify_accepts_a_good_blob(self, blob):
        verify_blob(blob)

    def test_compile_is_deterministic(self, index):
        assert compile_index(index) == compile_index(index)

    def test_truncated_blob_is_rejected(self, blob):
        with pytest.raises(BlobFormatError):
            verify_blob(blob[: len(blob) // 2])
        with pytest.raises(BlobFormatError):
            verify_blob(blob[:7])

    def test_bad_magic_is_rejected(self, blob):
        bad = b"NOTBLOB!" + blob[8:]
        with pytest.raises(BlobFormatError, match="magic"):
            read_header(bad)

    def test_payload_corruption_fails_the_digest(self, blob):
        mutated = bytearray(blob)
        mutated[-10] ^= 0xFF
        with pytest.raises(BlobFormatError, match="digest"):
            verify_blob(bytes(mutated))

    def test_blob_stats_shape(self, blob, index):
        stats = blob_stats(blob)
        assert stats["asns"] == index.asn_count
        assert stats["bytes"] == len(blob)
        assert set(stats["sections"]) >= {"arena", "slots", "postings"}


# -- reader: byte identity against MappingIndex ------------------------------


class TestBlobIndexEquivalence:
    def test_every_asn_answer_is_byte_identical(self, blob_index, index):
        for asn in index.asns():
            expected = json.dumps(index.lookup_asn(asn).to_json())
            actual = json.dumps(blob_index.lookup_asn(asn).to_json())
            assert actual == expected, f"asn {asn} diverged"

    def test_every_org_answer_is_byte_identical(self, blob_index, index):
        for asn in index.asns():
            org_id = index.org_of(asn).org_id
            expected = json.dumps(index.org(org_id).to_json())
            actual = json.dumps(blob_index.org(org_id).to_json())
            assert actual == expected, f"org {org_id} diverged"

    def test_misses_raise_the_same_typed_errors(self, blob_index, index):
        rng = random.Random(13)
        present = set(index.asns())
        misses = 0
        while misses < 50:
            asn = rng.randrange(1, 4_000_000_000)
            if asn in present:
                continue
            misses += 1
            assert asn not in blob_index
            with pytest.raises(UnknownASNError):
                blob_index.lookup_asn(asn)
        for bad in ("BORGES-0", "BORGES-007", "bogus", "BORGES-", "ORG-9"):
            with pytest.raises(UnknownOrgError):
                blob_index.org(bad)

    def test_sibling_verdicts_match(self, blob_index, index):
        rng = random.Random(17)
        asns = index.asns()
        for _ in range(300):
            a, b = rng.choice(asns), rng.choice(asns)
            assert blob_index.are_siblings(a, b) == index.are_siblings(a, b)

    def test_search_is_byte_identical(self, blob_index, index):
        rng = random.Random(19)
        queries = set()
        for asn in rng.sample(index.asns(), 60):
            name = index.lookup_asn(asn).org.name
            words = name.split()
            queries.add(words[0])
            queries.add(words[0][:3])  # prefix expansion path
            if len(words) > 1:
                queries.add(" ".join(words[:2]))
        queries.update(["zz-no-such-org", "a", ""])
        for query in sorted(queries):
            for limit in (1, 5, 25):
                expected = json.dumps(
                    [r.to_json() for r in index.search(query, limit=limit)]
                )
                actual = json.dumps(
                    [r.to_json() for r in blob_index.search(query, limit=limit)]
                )
                assert actual == expected, f"search({query!r}, {limit})"

    def test_stats_and_len_match(self, blob_index, index):
        assert blob_index.stats() == index.stats()
        assert blob_index.method == index.method
        assert len(blob_index) == len(index)
        assert blob_index.asns() == index.asns()

    def test_query_service_accepts_a_blob_snapshot(
        self, blob, index, registry, tmp_path
    ):
        path = tmp_path / "snap.blob"
        path.write_bytes(blob)
        service = QueryService(registry=registry)
        service.store.load_from_blob_file(path)
        asn = index.asns()[0]
        assert service.lookup_asn(asn)["asn"] == asn
        assert service.store.current().index.digest == index.digest


# -- segment store -----------------------------------------------------------


class TestSegmentStore:
    def test_write_pointer_map_round_trip(self, blob, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        store.write_segment(1, blob)
        pointer = store.set_pointer(1)
        assert pointer["generation"] == 1
        assert store.pointer()["segment"] == "gen-000001.blob"
        mapped = store.map_generation(1)
        assert mapped.generation == 1
        assert len(mapped.index) > 0
        mapped.close()

    def test_reads_survive_unlink_while_mapped(self, blob, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        store.write_segment(1, blob)
        mapped = store.map_generation(1)
        asns = mapped.index.asns()
        assert store.unlink_segment(1)
        assert not store.segment_path(1).exists()
        # POSIX keeps the mapping valid after unlink: old generations
        # stay queryable in workers that still hold them.
        record = mapped.index.lookup_asn(asns[0])
        assert record.org.size >= 1
        mapped.close()

    def test_pointer_is_tolerant_of_garbage(self, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        assert store.pointer() is None
        store.pointer_path.write_text("not json", encoding="utf-8")
        assert store.pointer() is None

    def test_cleanup_removes_everything(self, blob, tmp_path):
        root = tmp_path / "seg"
        store = SegmentStore(root)
        store.write_segment(1, blob)
        store.write_segment(2, blob)
        store.set_pointer(2)
        (root / "worker-0.json").write_text("{}", encoding="utf-8")
        store.cleanup()
        assert not root.exists()

    def test_generations_are_sorted(self, blob, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        for generation in (3, 1, 2):
            store.write_segment(generation, blob)
        assert store.generations() == [1, 2, 3]


# -- store integration: blob load + quarantine -------------------------------


class TestStoreBlobLoad:
    def test_corrupt_blob_file_is_quarantined(self, blob, registry, tmp_path):
        path = tmp_path / "snap.blob"
        mutated = bytearray(blob)
        mutated[-1] ^= 0xFF
        path.write_bytes(bytes(mutated))
        store = SnapshotStore(registry=registry)
        with pytest.raises(SnapshotIntegrityError):
            store.load_from_blob_file(path)
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".quarantined").exists()


# -- sharded pipeline: process workers ---------------------------------------


class TestShardProcessWorkers:
    def test_process_mode_is_byte_identical_to_thread_mode(self, universe):
        from repro.config import BorgesConfig
        from repro.core.pipeline import run_sharded
        from repro.digest import stable_digest

        results = {}
        for mode in ("thread", "process"):
            result = run_sharded(
                universe.whois,
                universe.pdb,
                universe.web,
                BorgesConfig(),
                n_shards=2,
                shard_workers=mode,
            )
            results[mode] = stable_digest(result.mapping.to_json())
        assert results["process"] == results["thread"]

    def test_invalid_mode_is_rejected(self, universe):
        from repro.config import BorgesConfig
        from repro.core.pipeline import run_sharded

        with pytest.raises(ValueError, match="shard_workers"):
            run_sharded(
                universe.whois,
                universe.pdb,
                universe.web,
                BorgesConfig(),
                n_shards=2,
                shard_workers="greenlet",
            )


# -- archive blob sidecar ----------------------------------------------------


class TestArchiveBlobSidecar:
    def test_publish_with_index_writes_a_readable_sidecar(
        self, borges_mapping, index, registry, tmp_path
    ):
        archive = SnapshotArchive(tmp_path / "archive", registry=registry)
        entry = archive.publish(borges_mapping, index=index)
        generation = entry["archive_generation"]
        assert archive.has_blob(generation)
        raw = archive.read_blob(generation)
        assert BlobIndex(raw).digest == index.digest

    def test_publish_without_index_has_no_sidecar(
        self, borges_mapping, registry, tmp_path
    ):
        archive = SnapshotArchive(tmp_path / "archive", registry=registry)
        entry = archive.publish(borges_mapping)
        generation = entry["archive_generation"]
        assert not archive.has_blob(generation)
        with pytest.raises(UnknownGenerationError):
            archive.read_blob(generation)

    def test_corrupt_sidecar_is_quarantined_without_killing_the_entry(
        self, borges_mapping, index, registry, tmp_path
    ):
        archive = SnapshotArchive(tmp_path / "archive", registry=registry)
        generation = archive.publish(borges_mapping, index=index)[
            "archive_generation"
        ]
        path = archive.blob_path(generation)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotIntegrityError):
            archive.read_blob(generation)
        assert not path.exists()
        # The JSON entry is the source of truth; losing the derived
        # sidecar must not burn the generation.
        assert generation in archive.generations()
        archive.read(generation)

    def test_prune_removes_sidecars_with_entries(
        self, borges_mapping, index, registry, tmp_path
    ):
        archive = SnapshotArchive(
            tmp_path / "archive", max_entries=2, registry=registry
        )
        generations = [
            archive.publish(borges_mapping, index=index)["archive_generation"]
            for _ in range(4)
        ]
        kept = archive.generations()
        for generation in generations:
            assert archive.has_blob(generation) == (generation in kept)

    def test_stats_count_sidecars(
        self, borges_mapping, index, registry, tmp_path
    ):
        archive = SnapshotArchive(tmp_path / "archive", registry=registry)
        archive.publish(borges_mapping, index=index)
        archive.publish(borges_mapping)
        assert archive.stats()["blob_sidecars"] == 1


# -- worker pool: live HTTP --------------------------------------------------


def _shm_entries() -> set:
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {p.name for p in root.iterdir()}


def _get_json(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def pool(blob, tmp_path):
    config = WorkerConfig(workers=2, swap_timeout=30.0, respawn_backoff=0.05)
    worker_pool = WorkerPool(config, state_dir=tmp_path / "pool")
    before = _shm_entries()
    worker_pool.start(blob)
    try:
        yield worker_pool
    finally:
        worker_pool.stop()
        leaked = _shm_entries() - before
        assert not leaked, f"leaked shm segments: {leaked}"


class TestWorkerPool:
    def test_workers_share_one_generation(self, pool, index):
        asn = index.asns()[0]
        expected = json.dumps(index.lookup_asn(asn).to_json(), sort_keys=True)
        for _ in range(20):
            status, body = _get_json(f"{pool.url}/v1/asn/{asn}")
            assert status == 200
            assert body.pop("generation") == 1
            assert body.pop("stale", False) is False
            assert json.dumps(body, sort_keys=True) == expected
        states = pool.worker_states()
        assert len(states) == 2
        assert all(s and s["generation"] == 1 for s in states)

    def test_hot_swap_reaches_every_worker(self, pool, blob, index):
        asn = index.asns()[0]
        assert pool.publish(blob) == 2
        assert pool.publish(blob) == 3
        seen = set()
        for _ in range(40):
            status, body = _get_json(f"{pool.url}/v1/asn/{asn}")
            assert status == 200
            seen.add(body["generation"])
        assert seen == {3}
        # old segments are unlinked after every worker acks
        assert pool.segments.generations() == [3]

    def test_kill9_churn_mid_swap_zero_5xx(self, pool, blob, index):
        """SIGKILL a worker, publish while it is down, assert recovery.

        The respawned worker must come back *on the new generation*
        (pointer-driven catch-up, not supervisor replay), traffic must
        see zero 5xx throughout, and no shm segments may leak.
        """
        asn = index.asns()[0]
        dead_pid = pool.kill_worker(0, sig=signal.SIGKILL)
        generation = pool.publish(blob)  # blocks until both workers ack
        assert generation == 2
        states = pool.worker_states()
        assert states[0]["pid"] != dead_pid
        assert all(s["generation"] == generation for s in states)
        failures = []
        for _ in range(60):
            try:
                status, body = _get_json(f"{pool.url}/v1/asn/{asn}")
            except (urllib.error.URLError, OSError) as exc:  # pragma: no cover
                failures.append(repr(exc))
                continue
            if status >= 500:
                failures.append(status)
            assert body["generation"] == generation
        assert not failures
        assert pool.respawns >= 1

    def test_per_worker_admin_metrics_and_top_view(self, pool, index):
        asn = index.asns()[0]
        for _ in range(10):
            _get_json(f"{pool.url}/v1/asn/{asn}")
        view = PoolTopView(pool.state_dir)
        first = view.render(view.poll())
        time.sleep(0.3)
        second = view.render(view.poll())
        for rendered in (first, second):
            assert "supervisor pid" in rendered
            assert "worker" in rendered
            assert "(machine)" in rendered
        # one row per worker plus the machine-total line
        rows = [
            line for line in second.splitlines()
            if line.strip().startswith(("0 ", "1 "))
        ]
        assert len(rows) == 2

    def test_stale_port_is_reused_across_churn(self, pool):
        port = pool.port
        pool.kill_worker(1, sig=signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            states = pool.worker_states()
            if all(s is not None for s in states) and pool.respawns >= 1:
                break
            time.sleep(0.05)
        assert pool.port == port
        status, _ = _get_json(f"{pool.url}/healthz", timeout=10.0)
        assert status == 200


# -- loadgen: HTTP mode + connection pool ------------------------------------


class TestHttpLoadgen:
    def test_connection_pool_round_trips_and_reuses(self, pool, index):
        http_pool = HttpConnectionPool.for_target(pool.url, size=2)
        try:
            asn = index.asns()[0]
            for _ in range(12):
                status, body = http_pool.request("GET", f"/v1/asn/{asn}")
                assert status == 200
                assert json.loads(body)["asn"] == asn
            assert http_pool.created <= 2
            assert http_pool.conn_errors == 0
        finally:
            http_pool.close()

    def test_overload_against_pool_reports_per_worker(self, pool, index):
        generator = LoadGenerator(None, index.asns(), seed=5)
        report = generator.run_overload(
            240,
            workers=3,
            target=pool.url,
        )
        assert report.requests > 0
        assert report.classes.get("5xx", 0) == 0
        assert len(report.per_worker) == 3
        payload = report.to_json()
        assert payload["aggregate_qps"] == round(report.qps, 1)
        assert all(row["qps"] > 0 for row in report.per_worker)
        assert sum(r["requests"] for r in report.per_worker) == report.requests

    def test_pipelined_client_counts_statuses(self, pool, index):
        paths = [f"/v1/asn/{asn}" for asn in index.asns()[:50]]
        paths.append("/v1/asn/999999999")  # a 404 must not count as ok
        result = run_pipelined(pool.url, paths, repeat=2)
        assert result["requests"] == len(paths) * 2
        assert result["ok"] == (len(paths) - 1) * 2
        assert result["errors"] == 0
        assert result["qps"] > 0
