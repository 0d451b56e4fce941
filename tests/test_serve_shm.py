"""Tests for the blob-backed read index and the multi-worker serve tier.

The index tests check every answer a :class:`MappingIndex` gives against
a *reference* derived straight from the inputs in this file
(:class:`OrgMapping` + :class:`WhoisDataset` + :class:`PDBSnapshot`):
every ASN and org answer, sibling verdicts, typed misses, a brute-force
search ranking, ``stats()``, and a brute-force generation diff.  The
pool tests run real forked workers behind one SO_REUSEPORT socket and
exercise hot swap, ``kill -9`` churn mid-swap, and shared-memory
hygiene (no leaked segments after stop).
"""

from __future__ import annotations

import dataclasses
import json
import random
import signal
import struct
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.baselines import build_as2org_mapping
from repro.config import TEST_UNIVERSE
from repro.core.mapping import OrgMapping
from repro.digest import stable_digest
from repro.errors import (
    SnapshotIntegrityError,
    UnknownASNError,
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
    diff_indexes,
    run_pipelined,
    tokenize,
)
from repro.serve.diff import EXAMPLE_LIMIT
from repro.serve.loadgen import LoadGenerator
from repro.serve.shm import (
    BLOB_MAGIC,
    BlobFormatError,
    read_header,
    verify_blob,
)
from repro.serve.shm.blob import EMPTY_KEY, blob_stats
from repro.serve.top import PoolTopView
from repro.universe import generate_universe
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
    return index.blob


@pytest.fixture(scope="module")
def sentinel_index():
    """Seed 40, 200 orgs: a universe where a probe for ``EMPTY_KEY``
    lands on an empty slot."""
    universe = generate_universe(
        dataclasses.replace(TEST_UNIVERSE, seed=40, n_organizations=200)
    )
    return MappingIndex.build(
        build_as2org_mapping(universe.whois),
        whois=universe.whois,
        pdb=universe.pdb,
    )


# -- the reference: answers derived from the inputs alone --------------------


def handle(members) -> str:
    return f"BORGES-{min(members)}"


def reference(mapping, whois, pdb):
    """(ASN → /v1/asn body, handle → /v1/org body) from the inputs."""
    asns, orgs = {}, {}
    for cluster in mapping.clusters():
        members = sorted(cluster)
        lowest = members[0]
        org = {
            "org_id": handle(members),
            "name": mapping.org_name_of(lowest),
            "country": whois.org_of(lowest).country if lowest in whois else "",
            "size": len(members),
            "members": members,
        }
        orgs[org["org_id"]] = org
        for asn in members:
            name = whois.delegations[asn].name if asn in whois else ""
            website = ""
            if asn in pdb:
                website = pdb.nets[asn].website
                name = name or pdb.nets[asn].name
            asns[asn] = {
                "asn": asn, "name": name, "website": website, "org": org,
            }
    return asns, orgs


def reference_search(orgs, query, limit):
    """Brute force: exact tokens, plus a prefix match on the final token
    when it has ≥ 2 characters, ordered by ``(-score, -size, handle)``."""
    tokens = tokenize(query)
    if not tokens or limit <= 0:
        return []
    ranked = []
    for org in orgs.values():
        words = set(tokenize(org["name"]))
        score = 0
        for position, token in enumerate(tokens):
            prefix = position == len(tokens) - 1 and len(token) >= 2
            if token in words or (
                prefix and any(w.startswith(token) for w in words)
            ):
                score += 1
        if score:
            ranked.append((-score, -org["size"], org["org_id"], org))
    ranked.sort(key=lambda item: item[:3])
    return [item[3] for item in ranked[:limit]]


def reference_diff(old: OrgMapping, new: OrgMapping) -> dict:
    """The /v1/diff body, by brute force over both partitions."""
    old_of = {a: frozenset(c) for c in old.clusters() for a in c}
    new_of = {a: frozenset(c) for c in new.clusters() for a in c}
    common = old_of.keys() & new_of.keys()
    merged = sorted({
        handle(c) for c in new_of.values()
        if len({old_of[a] for a in c if a in common}) > 1
    })
    split = sorted({
        handle(c) for c in old_of.values()
        if len({new_of[a] for a in c if a in common}) > 1
    })
    moved = sum(1 for a in common if old_of[a] != new_of[a])
    return {
        "from_orgs": len(old),
        "to_orgs": len(new),
        "common_asns": len(common),
        "asns_added": len(new_of.keys() - common),
        "asns_removed": len(old_of.keys() - common),
        "asns_moved": moved,
        "orgs_merged": len(merged),
        "orgs_split": len(split),
        "churn_fraction": round(moved / len(common), 6) if common else 0.0,
        "merged_examples": merged[:EXAMPLE_LIMIT],
        "split_examples": split[:EXAMPLE_LIMIT],
    }


@pytest.fixture(scope="module")
def expected(borges_mapping, universe):
    return reference(borges_mapping, universe.whois, universe.pdb)


# -- blob format -------------------------------------------------------------


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

    def test_compile_is_deterministic(self, borges_mapping, universe, blob):
        rebuilt = MappingIndex.build(
            borges_mapping, whois=universe.whois, pdb=universe.pdb
        )
        assert rebuilt.blob == blob

    def test_truncated_blob_is_rejected(self, blob):
        with pytest.raises(BlobFormatError):
            verify_blob(blob[: len(blob) // 2])
        with pytest.raises(BlobFormatError):
            verify_blob(blob[:7])

    def test_bad_magic_is_rejected(self, blob):
        bad = b"NOTBLOB!" + blob[8:]
        with pytest.raises(BlobFormatError, match="magic"):
            read_header(bad)

    def test_version_1_blob_is_rejected(self, blob):
        old = blob[:8] + struct.pack("<I", 1) + blob[12:]
        with pytest.raises(BlobFormatError, match="version 1"):
            verify_blob(old)

    def test_shrunken_slot_table_is_rejected(self, blob):
        # The header is outside the payload digest; a slot count that
        # no longer fits the ASN count must still fail before serving.
        header = read_header(blob)
        field = struct.calcsize("<8sIIQ32s64sQQQ")  # offset of the slot count
        assert struct.unpack_from("<Q", blob, field)[0] == header.slot_count
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, field, header.slot_count // 2)
        with pytest.raises(BlobFormatError, match="slot table"):
            verify_blob(bytes(bad))

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
        assert "garray" not in stats["sections"]

    def test_slot_table_is_at_most_half_full(self, blob, index):
        slots = read_header(blob).slot_count
        assert slots & (slots - 1) == 0
        assert 2 * index.asn_count <= slots

    def test_build_refuses_unstorable_asns(self):
        for bad in (EMPTY_KEY, 2**64, -1):
            mapping = OrgMapping(universe=[1, bad], clusters=[], method="t")
            with pytest.raises(BlobFormatError, match="storable"):
                MappingIndex.build(mapping)

    def test_empty_mapping_builds_an_empty_index(self):
        index = MappingIndex.build(OrgMapping(universe=[], clusters=[]))
        assert len(index) == 0 and index.asns() == []
        assert 1 not in index
        assert index.search("anything") == []
        assert MappingIndex(index.blob).digest == index.digest


# -- the index against the reference -----------------------------------------


class TestBlobIndexEquivalence:
    def test_every_asn_answer_is_byte_identical(self, index, expected):
        asns, _ = expected
        assert index.asns() == sorted(asns)
        for asn, body in asns.items():
            actual = json.dumps(index.lookup_asn(asn).to_json())
            assert actual == json.dumps(body), f"asn {asn} diverged"
            assert asn in index

    def test_every_org_answer_is_byte_identical(self, index, expected):
        _, orgs = expected
        for org_id, body in orgs.items():
            actual = json.dumps(index.org(org_id).to_json())
            assert actual == json.dumps(body), f"org {org_id} diverged"
            assert index.org_of(body["members"][-1]).org_id == org_id

    def test_misses_raise_the_same_typed_errors(self, index, sentinel_index):
        rng = random.Random(13)
        for idx in (index, sentinel_index):
            present = set(idx.asns())
            known = next(iter(present))
            misses = [-1, 2**32, EMPTY_KEY, 2**64]
            while len(misses) < 54:
                asn = rng.randrange(1, 4_000_000_000)
                if asn not in present:
                    misses.append(asn)
            for asn in misses:
                assert asn not in idx
                with pytest.raises(UnknownASNError):
                    idx.lookup_asn(asn)
                assert not idx.are_siblings(asn, asn)
                assert not idx.are_siblings(asn, known)
                assert not idx.are_siblings(known, asn)
            for bad in ("BORGES-0", "BORGES-007", "bogus", "BORGES-", "ORG-9"):
                with pytest.raises(UnknownOrgError):
                    idx.org(bad)

    def test_sibling_verdicts_match(self, index, expected):
        asns, _ = expected
        rng = random.Random(17)
        population = sorted(asns)
        pairs = [
            (rng.choice(population), rng.choice(population))
            for _ in range(300)
        ]
        for body in list(asns.values())[:50]:
            members = body["org"]["members"]
            pairs.append((members[0], members[-1]))
        for a, b in pairs:
            truth = asns[a]["org"]["org_id"] == asns[b]["org"]["org_id"]
            assert index.are_siblings(a, b) == truth, (a, b)

    def test_search_is_byte_identical(self, index, expected):
        asns, orgs = expected
        rng = random.Random(19)
        queries = set()
        for asn in rng.sample(sorted(asns), 60):
            words = asns[asn]["org"]["name"].split()
            queries.add(words[0])
            queries.add(words[0][:3])  # prefix expansion path
            if len(words) > 1:
                queries.add(" ".join(words[:2]))
        queries.update(["zz-no-such-org", "a", ""])
        for query in sorted(queries):
            for limit in (1, 5, 25):
                want = json.dumps(reference_search(orgs, query, limit))
                got = json.dumps(
                    [r.to_json() for r in index.search(query, limit=limit)]
                )
                assert got == want, f"search({query!r}, {limit})"

    def test_stats_and_len_match(self, index, borges_mapping, expected):
        _, orgs = expected
        tokens = set()
        for org in orgs.values():
            tokens.update(tokenize(org["name"]))
        assert index.stats() == {
            "method": borges_mapping.method,
            "digest": stable_digest(
                {
                    "method": borges_mapping.method,
                    "clusters": [
                        sorted(c) for c in borges_mapping.clusters()
                    ],
                }
            ),
            "orgs": len(borges_mapping),
            "asns": borges_mapping.universe_size,
            "search_tokens": len(tokens),
        }
        assert len(index) == len(orgs)
        assert index.asn_count == len(index.asns())

    def test_diff_matches_a_brute_force_diff(
        self, borges_mapping, as2org_mapping, universe
    ):
        # Hand-built: a merge, a split, a moved ASN, one added, one removed.
        old = OrgMapping(
            universe=range(1, 11),
            clusters=[{1, 2}, {3, 4}, {5, 6, 7}, {9, 10}],
            method="old",
        )
        new = OrgMapping(
            universe=[*range(1, 10), 11],
            clusters=[{1, 2, 3, 4}, {6, 7}, {8, 11}],
            method="new",
        )
        cases = [
            (old, new),
            (new, old),
            (as2org_mapping, borges_mapping),
            (borges_mapping, as2org_mapping),
        ]
        for before, after in cases:
            got = diff_indexes(
                MappingIndex.build(before, whois=universe.whois),
                MappingIndex.build(after, whois=universe.whois),
            ).to_json()
            assert got == reference_diff(before, after)

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
        assert MappingIndex(raw).digest == index.digest

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
        generation = archive.publish(borges_mapping, index=index)[
            "archive_generation"
        ]
        path = archive.blob_path(generation)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SnapshotIntegrityError):
            archive.read_blob(generation)
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
    config = WorkerConfig(workers=2, start_timeout=30.0, respawn_backoff=0.05)
    worker_pool = WorkerPool(config, state_dir=tmp_path / "pool")
    before = _shm_entries()
    worker_pool.start(blob)
    try:
        yield worker_pool
    finally:
        worker_pool.stop()
        assert not worker_pool.state_dir.exists()
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
        assert {s["pid"] for s in states} == set(pool.worker_pids())

    def test_kill9_churn_zero_5xx(self, pool, index):
        """SIGKILL a worker, assert it is respawned onto the same segment.

        The respawned worker must serve the generation its sibling
        serves, traffic must see zero 5xx afterwards, and no shm
        segments may leak.
        """
        asn = index.asns()[0]
        dead_pid = pool.kill_worker(0, sig=signal.SIGKILL)
        pool.wait_ready()
        states = pool.worker_states()
        assert states[0]["pid"] != dead_pid
        assert pool.respawns >= 1
        failures = []
        for _ in range(60):
            try:
                status, body = _get_json(f"{pool.url}/v1/asn/{asn}")
            except (urllib.error.URLError, OSError) as exc:  # pragma: no cover
                failures.append(repr(exc))
                continue
            if status >= 500:
                failures.append(status)
            assert body["generation"] == 1
        assert not failures

    def test_stop_removes_state_dir(self, blob, tmp_path):
        root = tmp_path / "pool"
        worker_pool = WorkerPool(WorkerConfig(workers=1), state_dir=root)
        (root / "snapshot.blob").write_bytes(blob)
        (root / "worker-0.json").write_text("{}", encoding="utf-8")
        (root / ".pool.json.123.tmp").write_text("", encoding="utf-8")
        worker_pool.stop()
        assert not root.exists()

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
