"""Tests for the serve subsystem: index, snapshot store, service, HTTP.

The index-correctness tests cross-check every answer against the raw
:class:`OrgMapping`; the hot-swap test hammers the service from reader
threads while generations are swapped underneath them and asserts zero
failed requests; the HTTP tests exercise every endpoint contract
including the 400/404/503 paths and parse the ``/metrics`` exposition.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict

import pytest

from repro.core.mapping import OrgMapping
from repro.core.release import save_mapping_as2org
from repro.errors import (
    NoSnapshotError,
    UnknownASNError,
    UnknownOrgError,
)
from repro.obs import use_event_log, use_registry
from repro.serve import (
    MappingIndex,
    QueryServer,
    QueryService,
    SnapshotStore,
    ZipfianSampler,
    org_handle,
    tokenize,
)


@pytest.fixture()
def registry():
    with use_registry() as reg:
        yield reg


@pytest.fixture(scope="module")
def index(borges_mapping, universe):
    return MappingIndex.build(
        borges_mapping, whois=universe.whois, pdb=universe.pdb
    )


def make_service(mapping, registry, whois=None, pdb=None) -> QueryService:
    service = QueryService(registry=registry)
    service.store.load_from_mapping(mapping, whois=whois, pdb=pdb)
    return service


# -- MappingIndex ----------------------------------------------------------


class TestMappingIndex:
    def test_every_asn_resolves_to_its_mapping_cluster(
        self, index, borges_mapping
    ):
        for asn in index.asns():
            record = index.lookup_asn(asn)
            assert set(record.org.members) == set(
                borges_mapping.cluster_of(asn)
            )
            assert record.org.name == borges_mapping.org_name_of(asn)

    def test_org_handles_follow_release_scheme(self, index, borges_mapping):
        for cluster in borges_mapping.clusters():
            handle = org_handle(min(cluster))
            assert tuple(sorted(cluster)) == index.org(handle).members

    def test_org_records_partition_the_universe(self, index, borges_mapping):
        seen = set()
        total = 0
        for asn in index.asns():
            org = index.org_of(asn)
            seen.add(org.org_id)
            total += 1
        assert total == borges_mapping.universe_size
        sizes = sum(index.org(o).size for o in seen)
        assert sizes == borges_mapping.universe_size

    def test_sibling_verdicts_match_mapping(self, index, borges_mapping):
        multi = borges_mapping.multi_asn_clusters()[0]
        a, b = sorted(multi)[:2]
        assert index.are_siblings(a, b)
        assert not index.are_siblings(a, -1)
        lonely = [
            c for c in borges_mapping.clusters() if len(c) == 1
        ][0]
        assert not index.are_siblings(a, next(iter(lonely)))

    def test_unknown_lookups_raise(self, index):
        with pytest.raises(UnknownASNError):
            index.lookup_asn(-42)
        with pytest.raises(UnknownOrgError):
            index.org("BORGES-NOPE")

    def test_search_finds_org_by_name_token(self, index):
        some_org = index.org_of(index.asns()[0])
        token = tokenize(some_org.name)[0]
        results = index.search(token, limit=50)
        assert any(r.org_id == some_org.org_id for r in results)

    def test_search_prefix_and_ranking(self, index):
        some_org = index.org_of(index.asns()[0])
        token = tokenize(some_org.name)[0]
        prefix = token[: max(2, len(token) - 1)]
        results = index.search(prefix, limit=200)
        assert any(r.org_id == some_org.org_id for r in results)
        assert index.search("", limit=5) == []
        assert index.search(token, limit=0) == []

    def test_metadata_enrichment(self, index, universe):
        asn = index.asns()[0]
        record = index.lookup_asn(asn)
        assert record.name == universe.whois.delegations[asn].name
        assert record.org.country == universe.whois.org_of(
            min(record.org.members)
        ).country


def test_first_asn_is_the_lowest_without_the_table(index, monkeypatch):
    lowest = index.asns()[0]
    monkeypatch.setattr(
        MappingIndex, "asns", lambda self: pytest.fail("unpacked the table")
    )
    assert index.first_asn() == lowest
    assert MappingIndex.compile("empty", 0, []).first_asn() is None


# -- SnapshotStore ---------------------------------------------------------


class TestSnapshotStore:
    def test_empty_store_raises(self, registry):
        store = SnapshotStore(registry=registry)
        with pytest.raises(NoSnapshotError):
            store.current()

    def test_swap_bumps_generation_and_gauge(self, borges_mapping, registry):
        store = SnapshotStore(registry=registry)
        first = store.load_from_mapping(borges_mapping)
        second = store.load_from_mapping(borges_mapping)
        assert (first.generation, second.generation) == (1, 2)
        assert store.current() is second
        assert registry.value("serve_snapshot_swaps_total") == 2.0
        assert registry.value("serve_snapshot_generation") == 2.0

    def test_try_swap_keeps_old_generation_and_marks_stale(
        self, borges_mapping, registry, tmp_path
    ):
        store = SnapshotStore(registry=registry)
        good = store.load_from_mapping(borges_mapping)
        result = store.try_swap(
            lambda: store.load_from_release_file(tmp_path / "missing.jsonl"),
            label="missing file",
        )
        assert result is None
        assert store.current() is good
        assert store.stale
        assert registry.value("serve_snapshot_swap_failures_total") == 1.0
        # a successful swap clears the stale flag
        store.load_from_mapping(borges_mapping)
        assert not store.stale

    def test_release_file_round_trip(
        self, borges_mapping, universe, registry, tmp_path
    ):
        path = tmp_path / "release.jsonl"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        store = SnapshotStore(registry=registry)
        snapshot = store.load_from_release_file(path)
        index = snapshot.index
        assert index.asn_count == borges_mapping.universe_size
        for cluster in borges_mapping.multi_asn_clusters()[:10]:
            members = sorted(cluster)
            assert index.are_siblings(members[0], members[-1])
            assert index.org_of(members[0]).members == tuple(members)

    def test_mapping_file_round_trip(self, borges_mapping, registry, tmp_path):
        path = tmp_path / "mapping.json"
        borges_mapping.save(path)
        store = SnapshotStore(registry=registry)
        index = store.load_from_mapping_file(path).index
        asn = index.asns()[0]
        assert set(index.org_of(asn).members) == set(
            borges_mapping.cluster_of(asn)
        )


# -- QueryService ----------------------------------------------------------


class TestQueryService:
    def test_lookup_matches_index_and_caches(self, borges_mapping, registry):
        service = make_service(borges_mapping, registry)
        asn = service.store.current().index.asns()[0]
        first = service.lookup_asn(asn)
        second = service.lookup_asn(asn)
        assert first == second
        assert service._cache.stats()["hits"] == 1
        assert registry.value(
            "serve_requests_total", endpoint="asn", status="ok"
        ) == 2.0

    def test_cache_hit_survives_a_concurrent_eviction(
        self, borges_mapping, registry
    ):
        """An eviction between the LRU's read and its reorder is a hit."""

        class EvictedAfterRead(OrderedDict):
            def get(self, key, default=None):
                # Another thread's put evicts the key right after this read.
                return self.pop(key, default)

        service = make_service(borges_mapping, registry)
        asn = service.store.current().index.asns()[0]
        first = service.lookup_asn(asn)
        service._cache._entries = EvictedAfterRead(service._cache._entries)
        assert service.lookup_asn(asn) == first
        assert service._cache.stats()["hits"] == 1

    def test_batch_lookup_tolerates_unknowns(self, borges_mapping, registry):
        service = make_service(borges_mapping, registry)
        asns = service.store.current().index.asns()[:3]
        out = service.batch_lookup(asns + [-5])
        assert [r.get("asn") for r in out] == asns + [-5]
        assert out[-1]["error"] == "unknown_asn"

    def test_batch_answers_from_one_generation(self, borges_mapping, registry):
        """A swap landing mid-batch changes no entry of that batch."""
        service = make_service(borges_mapping, registry)
        asns = service.store.current().index.asns()[:5]

        def swap_after_first():
            yield asns[0]
            service.store.load_from_mapping(borges_mapping)
            yield from asns[1:]

        out = service.batch_lookup(swap_after_first())
        assert [entry["generation"] for entry in out] == [1] * len(asns)
        assert service.store.current().generation == 2

    def test_unavailable_before_first_snapshot(self, registry):
        service = QueryService(registry=registry)
        with pytest.raises(NoSnapshotError):
            service.lookup_asn(1)
        ready, body = service.health()
        assert not ready and body["status"] == "unavailable"

    def test_swap_invalidates_cache_via_generation(
        self, borges_mapping, registry
    ):
        service = make_service(borges_mapping, registry)
        asn = service.store.current().index.asns()[0]
        assert service.lookup_asn(asn)["generation"] == 1
        service.store.load_from_mapping(borges_mapping)
        assert service.lookup_asn(asn)["generation"] == 2

    def test_latency_histogram_uses_submillisecond_buckets(
        self, borges_mapping, registry
    ):
        service = make_service(borges_mapping, registry)
        service.lookup_asn(service.store.current().index.asns()[0])
        hist = service._latency["asn"]
        assert hist.buckets[0] < 0.001
        assert hist.count == 1
        # an in-memory lookup must land below the 1 ms bound, not in the
        # pipeline-scale tail the old default buckets started at
        sub_ms = sum(
            count
            for bound, count in zip(hist.buckets, hist.bucket_counts)
            if bound <= 0.001
        )
        assert sub_ms == 1

    def test_hot_swap_under_concurrent_readers(self, borges_mapping, registry):
        """Readers never see a half-loaded snapshot or a failed request."""
        service = make_service(borges_mapping, registry)
        asns = service.store.current().index.asns()[:64]
        errors: list = []
        generations = set()
        stop = threading.Event()

        def reader() -> None:
            i = 0
            while not stop.is_set():
                try:
                    response = service.lookup_asn(asns[i % len(asns)])
                    generations.add(response["generation"])
                    if i % 7 == 0:
                        service.siblings(asns[0], asns[1])
                except Exception as exc:  # noqa: BLE001 — test collects all
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(10):
            service.store.load_from_mapping(borges_mapping)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert errors == []
        assert len(generations) >= 2  # readers observed the swap happening

    def test_stats_shape(self, borges_mapping, registry):
        service = make_service(borges_mapping, registry)
        service.lookup_asn(service.store.current().index.asns()[0])
        stats = service.stats()
        assert stats["requests"]["asn.ok"] == 1.0
        assert stats["snapshot"]["active"]["generation"] == 1


# -- load generator --------------------------------------------------------


class TestLoadGen:
    def test_zipf_sampler_is_seeded_and_skewed(self):
        items = list(range(1, 101))
        a = list(ZipfianSampler(items, seed=9).stream(500))
        b = list(ZipfianSampler(items, seed=9).stream(500))
        assert a == b
        top = max(set(a), key=a.count)
        assert a.count(top) > 500 / 100  # far above uniform share


# -- HTTP API --------------------------------------------------------------


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


def _get_error(url: str):
    try:
        urllib.request.urlopen(url, timeout=5)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"expected an HTTP error from {url}")


class TestHTTPAPI:
    @pytest.fixture()
    def server(self, borges_mapping, universe, registry):
        service = make_service(
            borges_mapping, registry, whois=universe.whois, pdb=universe.pdb
        )
        with QueryServer(service) as srv:
            yield srv

    def test_asn_endpoint_contract(self, server, borges_mapping):
        asn = server.service.store.current().index.asns()[0]
        status, body = _get(f"{server.url}/v1/asn/{asn}")
        assert status == 200
        assert body["asn"] == asn
        assert set(body["org"]["members"]) == set(
            borges_mapping.cluster_of(asn)
        )
        assert _get_error(f"{server.url}/v1/asn/999999999")[0] == 404
        assert _get_error(f"{server.url}/v1/asn/banana")[0] == 400

    def test_org_endpoint_contract(self, server):
        index = server.service.store.current().index
        handle = index.org_of(index.asns()[0]).org_id
        status, body = _get(f"{server.url}/v1/org/{handle}")
        assert status == 200 and body["org_id"] == handle
        assert _get_error(f"{server.url}/v1/org/BORGES-NOPE")[0] == 404

    def test_siblings_endpoint_contract(self, server, borges_mapping):
        a, b = sorted(borges_mapping.multi_asn_clusters()[0])[:2]
        status, body = _get(f"{server.url}/v1/siblings?a={a}&b={b}")
        assert status == 200 and body["siblings"] is True
        status, body = _get(f"{server.url}/v1/siblings?asn={a}")
        assert status == 200 and b in body["siblings"]
        assert _get_error(f"{server.url}/v1/siblings")[0] == 400
        assert _get_error(f"{server.url}/v1/siblings?a=1")[0] == 400
        assert _get_error(f"{server.url}/v1/siblings?a=x&b=2")[0] == 400

    def test_search_endpoint_contract(self, server):
        index = server.service.store.current().index
        token = tokenize(index.org_of(index.asns()[0]).name)[0]
        status, body = _get(f"{server.url}/v1/search?q={token}&limit=5")
        assert status == 200
        assert len(body["results"]) <= 5
        assert _get_error(f"{server.url}/v1/search")[0] == 400

    def test_batch_endpoint(self, server):
        asns = server.service.store.current().index.asns()[:4]
        request = urllib.request.Request(
            f"{server.url}/v1/batch",
            data=json.dumps({"asns": asns}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            body = json.loads(response.read())
        assert [r["asn"] for r in body["results"]] == asns

    def test_unknown_route_404(self, server):
        assert _get_error(f"{server.url}/v2/nope")[0] == 404

    def test_healthz_and_metrics(self, server, registry):
        status, body = _get(f"{server.url}/healthz")
        assert status == 200 and body["status"] == "ok"
        asn = server.service.store.current().index.asns()[0]
        _get(f"{server.url}/v1/asn/{asn}")
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
            text = r.read().decode()
        # parse the exposition: every serve_requests_total sample must
        # carry endpoint/status labels and an integer value
        samples = {}
        for line in text.splitlines():
            if line.startswith("serve_requests_total{"):
                labels, value = line.rsplit(" ", 1)
                samples[labels] = float(value)
        assert (
            samples['serve_requests_total{endpoint="asn",status="ok"}'] >= 1
        )
        assert "serve_request_seconds_bucket" in text
        assert "serve_http_requests_total" in text

    def test_healthz_503_when_empty(self, registry):
        service = QueryService(registry=registry)
        with QueryServer(service) as srv:
            assert _get_error(f"{srv.url}/healthz")[0] == 503
            assert _get_error(f"{srv.url}/v1/asn/1")[0] == 503

    def test_admin_endpoints_404_without_slo(self, server):
        assert _get_error(f"{server.url}/v1/admin/slo")[0] == 404
        assert _get_error(f"{server.url}/v1/admin/exemplars")[0] == 404


# -- response bodies -------------------------------------------------------


def _raw(url: str, data: bytes = None) -> bytes:
    with urllib.request.urlopen(url, data=data, timeout=5) as response:
        return response.read()


def _dumped(response: dict) -> bytes:
    return json.dumps(response).encode("utf-8")


class TestResponseBodies:
    """The cache holds encoded bodies: every answer, hit or miss, over
    HTTP or in process, is ``json.dumps`` of the dict the index gives."""

    @pytest.fixture()
    def server(self, borges_mapping, universe, registry):
        service = make_service(
            borges_mapping, registry, whois=universe.whois, pdb=universe.pdb
        )
        with QueryServer(service) as srv:
            yield srv

    @staticmethod
    def _expected(index, generation: int, response: dict) -> dict:
        return dict(response, generation=generation)

    def test_every_endpoint_hit_equals_miss_equals_dumps(self, server):
        service = server.service
        index = service.store.current().index
        multi = next(
            index.org_of(asn) for asn in index.asns()
            if index.org_of(asn).size > 1
        )
        a, b = multi.members[:2]
        query = multi.name.split()[0]
        cases = [
            (
                f"/v1/asn/{a}",
                lambda: service.lookup_asn(a),
                self._expected(index, 1, index.lookup_asn(a).to_json()),
            ),
            (
                f"/v1/org/{multi.org_id}",
                lambda: service.lookup_org(multi.org_id),
                self._expected(index, 1, index.org(multi.org_id).to_json()),
            ),
            (
                f"/v1/siblings?a={a}&b={b}",
                lambda: service.siblings(a, b),
                {"a": a, "b": b, "siblings": True, "generation": 1},
            ),
            (
                f"/v1/siblings?asn={a}",
                lambda: service.siblings(a),
                {
                    "asn": a,
                    "org_id": multi.org_id,
                    "siblings": [m for m in multi.members if m != a],
                    "generation": 1,
                },
            ),
            (
                f"/v1/search?q={query}&limit=3",
                lambda: service.search(query, limit=3),
                {
                    "query": query,
                    "results": [
                        r.to_json() for r in index.search(query, limit=3)
                    ],
                    "generation": 1,
                },
            ),
        ]
        for path, in_process, expected in cases:
            miss = _raw(server.url + path)
            hit = _raw(server.url + path)
            assert miss == hit == _dumped(expected), path
            assert in_process() == expected, path

    def test_batch_joins_hits_and_misses_into_the_dumps_body(self, server):
        service = server.service
        index = service.store.current().index
        asns = index.asns()[:4]
        service.lookup_asn(asns[1])  # one hit, the rest misses
        batch = [asns[0], asns[1], -5, asns[2], asns[1]]
        expected = {
            "results": [
                {"asn": -5, "error": "unknown_asn"} if asn == -5
                else self._expected(index, 1, index.lookup_asn(asn).to_json())
                for asn in batch
            ]
        }
        payload = json.dumps({"asns": batch}).encode()
        first = _raw(f"{server.url}/v1/batch", payload)
        again = _raw(f"{server.url}/v1/batch", payload)
        assert first == again == _dumped(expected)
        assert service.batch_lookup(batch) == expected["results"]
        empty = _raw(f"{server.url}/v1/batch", b'{"asns": []}')
        assert empty == _dumped({"results": []})

    def test_a_swap_never_serves_the_old_generations_bytes(
        self, borges_mapping, universe, registry
    ):
        service = make_service(borges_mapping, registry, whois=universe.whois)
        asn = service.store.current().index.asns()[0]
        old = service.lookup_asn_body(asn)
        old_batch = service.batch_lookup_body([asn])
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        new = service.lookup_asn_body(asn)
        assert json.loads(old)["generation"] == 1
        assert new == _dumped(dict(json.loads(old), generation=2))
        assert service.batch_lookup_body([asn]) == _dumped(
            {"results": [json.loads(new)]}
        )
        assert old_batch != service.batch_lookup_body([asn])

    def test_mutating_a_returned_dict_changes_no_later_answer(
        self, borges_mapping, registry
    ):
        service = make_service(borges_mapping, registry)
        index = service.store.current().index
        asn = index.asns()[0]
        org_id = index.org_of(asn).org_id
        for call in (
            lambda: service.lookup_asn(asn),
            lambda: service.lookup_org(org_id),
            lambda: service.search("a"),
            lambda: service.batch_lookup([asn])[0],
        ):
            first = call()
            pristine = json.loads(json.dumps(first))
            first["generation"] = 99
            for value in first.values():
                if isinstance(value, (list, dict)):
                    value.clear()
            again = call()
            assert again == pristine and again is not first

    def test_a_failed_swap_marks_cached_and_fresh_answers_stale(
        self, borges_mapping, registry
    ):
        """Stale is part of the cache key: an answer cached before the
        failed swap is not served without ``stale`` after it."""
        service = make_service(borges_mapping, registry)
        a, b = service.store.current().index.asns()[:2]
        assert "stale" not in service.lookup_asn(a)

        def failing_loader():
            raise OSError("disk gone")

        assert service.store.try_swap(failing_loader) is None
        hit, miss = service.lookup_asn(a), service.lookup_asn(b)
        assert hit["stale"] is True and miss["stale"] is True
        assert service.batch_lookup([a, b])[0]["stale"] is True
        org_id = hit["org"]["org_id"]
        assert service.lookup_org(org_id)["stale"] is True
        assert service.search("a")["stale"] is True
        # A successful swap clears it again, under a new generation.
        service.store.load_from_mapping(borges_mapping)
        assert "stale" not in service.lookup_asn(a)


# -- request-scoped observability over HTTP --------------------------------


def _get_traced(url: str, traceparent: str = ""):
    """GET returning (status, body, response-headers)."""
    request = urllib.request.Request(url)
    if traceparent:
        request.add_header("traceparent", traceparent)
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read()), response.headers


class TestObservabilityHTTP:
    @pytest.fixture()
    def events(self):
        with use_event_log() as log:
            yield log

    @pytest.fixture()
    def server(self, borges_mapping, registry, events):
        from repro.obs import ExemplarStore, SLOTracker

        slo = SLOTracker(registry=registry)
        service = QueryService(
            registry=registry,
            slo=slo,
            # threshold 0: every request becomes an exemplar
            exemplars=ExemplarStore(threshold=0.0, capacity=16),
        )
        service.store.load_from_mapping(borges_mapping)
        with QueryServer(service) as srv:
            yield srv

    def test_traceparent_round_trips_to_response_header(self, server):
        asn = server.service.store.current().index.asns()[0]
        trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
        header = f"00-{trace_id}-00f067aa0ba902b7-01"
        status, _, headers = _get_traced(
            f"{server.url}/v1/asn/{asn}", traceparent=header
        )
        assert status == 200
        assert headers["x-borges-trace-id"] == trace_id

    def test_fresh_trace_id_minted_when_absent(self, server):
        status, _, headers = _get_traced(f"{server.url}/healthz")
        assert status == 200
        minted = headers["x-borges-trace-id"]
        assert len(minted) == 32
        assert minted != "0" * 32
        assert minted == minted.lower()

    def test_access_log_carries_the_trace_id(self, server, events):
        asn = server.service.store.current().index.asns()[0]
        trace_id = "aaaabbbbccccddddeeeeffff00001111"
        _get_traced(
            f"{server.url}/v1/asn/{asn}",
            traceparent=f"00-{trace_id}-00f067aa0ba902b7-01",
        )
        # The access event lands after the response is written; wait out
        # the handler thread's finally block.
        mine: list = []
        deadline = time.monotonic() + 5.0
        while not mine and time.monotonic() < deadline:
            mine = [
                e
                for e in events.events("http.access")
                if e.get("trace_id") == trace_id
            ]
            if not mine:
                time.sleep(0.01)
        assert len(mine) == 1
        assert mine[0]["endpoint"] == "asn"
        assert mine[0]["status"] == 200
        assert mine[0]["admission"] == "admitted"

    def test_admin_slo_endpoint(self, server):
        asn = server.service.store.current().index.asns()[0]
        _get_traced(f"{server.url}/v1/asn/{asn}")
        status, body, _ = _get_traced(f"{server.url}/v1/admin/slo")
        assert status == 200
        assert body["availability"]["alert"]["state"] == "clear"
        assert body["availability"]["windows"]["fast"]["total"] >= 1
        # healthy traffic: /healthz carries the alert summary too
        _, health, _ = _get_traced(f"{server.url}/healthz")
        assert health["slo"] == {
            "availability": "clear",
            "latency": "clear",
        }

    def test_admin_exemplars_capture_span_trees(self, server):
        asn = server.service.store.current().index.asns()[0]
        trace_id = "1234567890abcdef1234567890abcdef"
        _get_traced(
            f"{server.url}/v1/asn/{asn}",
            traceparent=f"00-{trace_id}-00f067aa0ba902b7-01",
        )
        status, body, _ = _get_traced(f"{server.url}/v1/admin/exemplars")
        assert status == 200
        mine = [e for e in body["exemplars"] if e["trace_id"] == trace_id]
        assert len(mine) == 1
        spans = mine[0]["spans"]
        assert spans[0]["name"] == "http.asn"
        assert spans[0]["trace_id"] == trace_id
        assert body["stats"]["retained"] >= 1

    def test_metrics_counts_its_own_scrapes(self, server, registry):
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
            first = r.read().decode()
            assert r.headers["Content-Type"] == "text/plain; version=0.0.4"
            assert r.headers["x-borges-trace-id"]
        # the scrape counter is bumped before rendering, so the first
        # exposition already reports itself
        assert "serve_metrics_scrapes_total 1" in first
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
            second = r.read().decode()
        assert "serve_metrics_scrapes_total 2" in second
        assert "serve_metrics_render_seconds" in second

    def test_stats_include_latency_summary_and_slo(self, server):
        asn = server.service.store.current().index.asns()[0]
        _get_traced(f"{server.url}/v1/asn/{asn}")
        stats = server.service.stats()
        assert "slo" in stats and "exemplars" in stats
        summary = stats["latency_summary"]["asn"]
        assert summary["count"] >= 1
        assert summary["p50_us"] >= 0

    def test_top_renders_against_live_server(self, server):
        import io

        from repro.serve import run_top

        asn = server.service.store.current().index.asns()[0]
        _get_traced(f"{server.url}/v1/asn/{asn}")
        buffer = io.StringIO()
        host, port = server.url.removeprefix("http://").split(":")
        code = run_top(
            host=host,
            port=int(port),
            interval=0.01,
            iterations=2,
            clear=False,
            stream=buffer,
        )
        assert code == 0
        rendered = buffer.getvalue()
        assert "borges top" in rendered
        assert "availability" in rendered
        assert "rss" in rendered or "process" in rendered


# -- CLI surface -----------------------------------------------------------


class TestServeCLI:
    def test_release_then_query_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rel.jsonl"
        with use_registry():
            assert main(["--orgs", "40", "release", "--out", str(out)]) == 0
        released = capsys.readouterr().out
        assert "released" in released and out.exists()
        with use_registry():
            assert (
                main(["query", "--snapshot", str(out), "--search", "a"]) == 0
            )
        queried = capsys.readouterr().out
        assert '"results"' in queried

    def test_query_unknown_asn_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rel.jsonl"
        with use_registry():
            main(["--orgs", "40", "release", "--out", str(out)])
            assert main(["query", "--snapshot", str(out), "-1"]) == 1
        assert "unknown_asn" in capsys.readouterr().out

    def test_query_without_arguments_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["query"]) == 2
        assert "nothing to query" in capsys.readouterr().out


# -- perf-fix satellites ---------------------------------------------------


class TestMappingCaches:
    def test_org_name_cache_matches_uncached_semantics(self):
        mapping = OrgMapping(
            universe=[1, 2, 3, 4],
            clusters=[[1, 2], [3]],
            org_names={2: "Two Corp"},
        )
        # cluster {1,2}: lowest member with a name wins; {3},{4} fall back
        assert mapping.org_name_of(1) == "Two Corp"
        assert mapping.org_name_of(2) == "Two Corp"
        assert mapping.org_name_of(3) == "AS3"
        assert mapping.org_name_of(4) == "AS4"
        # repeated calls are served from the cached per-cluster list
        assert mapping._display_names is not None

    def test_sizes_cached_and_fresh_copies(self, borges_mapping):
        first = borges_mapping.sizes()
        second = borges_mapping.sizes()
        assert first == second
        first.append(-1)  # caller mutation must not poison the cache
        assert borges_mapping.sizes() == second

    def test_whois_siblings_index(self, universe):
        whois = universe.whois
        asn = whois.asns()[0]
        expected = {
            a
            for a, d in whois.delegations.items()
            if d.org_id == whois.org_id_of(asn)
        }
        assert whois.siblings_of(asn) == expected
        # members() hands out the cached index, whose member tuples
        # cannot be changed in place
        members = whois.members()
        org_id = whois.org_id_of(asn)
        assert members is whois.members()
        assert isinstance(members[org_id], tuple)
