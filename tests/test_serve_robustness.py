"""Overload-protection and snapshot-integrity tests for the serve tier.

Three layers under test:

* the :class:`~repro.serve.admission.AdmissionController` — bounded
  concurrency, queue-depth shedding, deadlines, and the no-barging
  fairness guarantee;
* snapshot integrity — every ``load_from_*`` source rejects truncated,
  schema-broken, or digest-mismatched input *before* swap, quarantines
  corrupt files, keeps serving the old generation (``stale``), and can
  roll back to last-known-good;
* the HTTP hardening satellites — malformed query params and hostile
  ``Content-Length`` values answer 400/413/429, never 500 and never a
  hung handler thread — and the request loop's wire framing, driven
  over raw sockets: pipelining, connection close rules,
  ``Expect: 100-continue``, protocol-error answers, one write per
  response.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.mapping import OrgMapping
from repro.core.release import save_mapping_as2org
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    RollbackUnavailableError,
    SnapshotIntegrityError,
)
from repro.obs import use_registry
from repro.resilience import PROFILES, FaultInjector, corrupt_snapshot_text
from repro.serve import (
    AdmissionController,
    AdmissionLimits,
    LoadGenerator,
    QueryServer,
    QueryService,
    SnapshotStore,
    percentile,
)
from repro.serve.httpd import MAX_SEARCH_LIMIT, _make_handler
from repro.serve.store import QUARANTINE_SUFFIX
from repro.whois.as2org_file import (
    RELEASE_HEADER_PREFIX,
    parse_release_header,
    record_lines,
    release_digest,
)


@pytest.fixture()
def registry():
    with use_registry() as reg:
        yield reg


@pytest.fixture()
def store(registry):
    return SnapshotStore(registry=registry)


@pytest.fixture()
def loaded_store(store, borges_mapping, universe):
    store.load_from_mapping(borges_mapping, whois=universe.whois, label="gen1")
    return store


# -- admission gate --------------------------------------------------------


class TestAdmissionLimits:
    def test_rejects_nonsense_sizing(self):
        with pytest.raises(ConfigError):
            AdmissionLimits(max_inflight=0).validate()
        with pytest.raises(ConfigError):
            AdmissionLimits(max_queue=-1).validate()
        with pytest.raises(ConfigError):
            AdmissionLimits(default_deadline=0.0).validate()
        with pytest.raises(ConfigError):
            AdmissionLimits(deadlines={"batch": -1.0}).validate()

    def test_per_endpoint_deadline_override(self):
        limits = AdmissionLimits(
            default_deadline=1.0, deadlines={"batch": 5.0}
        ).validate()
        assert limits.deadline_for("batch") == 5.0
        assert limits.deadline_for("asn") == 1.0


class TestAdmissionController:
    def test_admits_up_to_max_inflight(self, registry):
        gate = AdmissionController(
            AdmissionLimits(max_inflight=3, max_queue=0), registry=registry
        )
        tickets = [gate.admit("asn") for _ in range(3)]
        assert gate.occupancy()["inflight"] == 3
        with pytest.raises(OverloadedError):
            gate.admit("asn")
        for ticket in tickets:
            ticket.__exit__(None, None, None)
        assert gate.occupancy()["inflight"] == 0

    def test_shed_carries_retry_after_and_occupancy(self, registry):
        gate = AdmissionController(
            AdmissionLimits(max_inflight=1, max_queue=0, default_deadline=2.5),
            registry=registry,
        )
        with gate.admit("asn"):
            with pytest.raises(OverloadedError) as excinfo:
                gate.admit("asn")
        assert excinfo.value.retry_after == 2.5
        assert excinfo.value.retryable
        assert excinfo.value.inflight == 1

    def test_deadline_expires_while_queued(self, registry):
        gate = AdmissionController(
            AdmissionLimits(
                max_inflight=1, max_queue=4, default_deadline=0.05
            ),
            registry=registry,
        )
        with gate.admit("asn"):
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                gate.admit("asn")
            waited = time.monotonic() - started
        assert 0.04 <= waited < 1.0
        assert gate.occupancy()["deadline_exceeded"] == 1

    def test_release_wakes_queued_waiter(self, registry):
        gate = AdmissionController(
            AdmissionLimits(max_inflight=1, max_queue=1, default_deadline=5.0),
            registry=registry,
        )
        ticket = gate.admit("asn")
        admitted = threading.Event()

        def waiter() -> None:
            with gate.admit("asn") as queued_ticket:
                assert queued_ticket.queued_for > 0.0
                admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while gate.occupancy()["queued"] < 1:
            assert time.monotonic() < deadline, "waiter never queued"
            time.sleep(0.001)
        assert not admitted.is_set()
        # With the queue full a newcomer is shed at once, not after the
        # 5 s deadline it would have waited out in the queue.
        started = time.monotonic()
        with pytest.raises(OverloadedError):
            gate.admit("asn")
        assert time.monotonic() - started < 1.0
        ticket.__exit__(None, None, None)
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)

    def test_newcomers_cannot_barge_past_the_queue(self, registry):
        """With a waiter queued, a freed slot goes to the queue first."""
        gate = AdmissionController(
            AdmissionLimits(max_inflight=1, max_queue=2, default_deadline=5.0),
            registry=registry,
        )
        ticket = gate.admit("asn")
        order = []

        def queued() -> None:
            with gate.admit("asn"):
                order.append("queued")

        thread = threading.Thread(target=queued)
        thread.start()
        deadline = time.monotonic() + 5.0
        while gate.occupancy()["queued"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        # A newcomer arriving now must queue behind (or shed), never
        # steal the slot the release below frees for the waiter.
        ticket.__exit__(None, None, None)
        thread.join(timeout=5.0)
        with gate.admit("asn"):
            order.append("newcomer")
        assert order == ["queued", "newcomer"]

    def test_ticket_budget_accounting(self, registry):
        gate = AdmissionController(
            AdmissionLimits(max_inflight=1, max_queue=0, default_deadline=0.2),
            registry=registry,
        )
        with gate.admit("asn") as ticket:
            assert 0.0 < ticket.remaining() <= 0.2
            assert not ticket.expired
        expired = gate.admit("asn")
        expired.deadline_at = time.monotonic() - 1.0
        assert expired.expired and expired.remaining() == 0.0
        expired.__exit__(None, None, None)


class TestServiceAdmission:
    def test_service_counts_shed_per_endpoint(
        self, registry, borges_mapping, universe
    ):
        service = QueryService(
            registry=registry,
            admission=AdmissionController(
                AdmissionLimits(max_inflight=1, max_queue=0), registry=registry
            ),
        )
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        asn = service.store.current().index.asns()[0]
        with service.admission.admit("other"):
            with pytest.raises(OverloadedError):
                service.lookup_asn(asn)
        assert service.stats()["requests"]["asn.shed"] == 1
        assert "admission" in service.stats()

    def test_ungated_service_still_answers(
        self, registry, borges_mapping, universe
    ):
        service = QueryService(registry=registry)
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        asn = service.store.current().index.asns()[0]
        assert service.lookup_asn(asn)["asn"] == asn

    def test_healthz_exposes_gate_occupancy(
        self, registry, borges_mapping, universe
    ):
        service = QueryService(
            registry=registry,
            admission=AdmissionController(registry=registry),
        )
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        ready, body = service.health()
        assert ready
        assert body["admission"]["max_inflight"] == 64
        assert body["rollback_generations"] == 0


# -- snapshot integrity: the four loaders ----------------------------------


class TestMappingFileIntegrity:
    def _saved(self, mapping, tmp_path):
        path = tmp_path / "mapping.json"
        mapping.save(path)
        return path

    def test_round_trip_with_embedded_digest(self, borges_mapping, tmp_path):
        path = self._saved(borges_mapping, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["digest"]
        loaded = OrgMapping.load(path)
        assert loaded.to_json()["clusters"] == borges_mapping.to_json()["clusters"]

    def test_truncated_json_fails_closed_and_quarantines(
        self, loaded_store, borges_mapping, tmp_path
    ):
        path = self._saved(borges_mapping, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            loaded_store.load_from_mapping_file(path)
        assert "JSON" in excinfo.value.reason
        assert not path.exists()
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
        # the old generation is untouched
        assert loaded_store.current().generation == 1

    def test_digest_mismatch_detected(
        self, loaded_store, borges_mapping, tmp_path
    ):
        path = self._saved(borges_mapping, tmp_path)
        payload = json.loads(path.read_text())
        payload["clusters"] = payload["clusters"][:-1]  # tamper
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            loaded_store.load_from_mapping_file(path)
        assert "digest" in excinfo.value.reason
        assert excinfo.value.expected_digest != excinfo.value.actual_digest

    def test_wrong_schema_rejected(self, loaded_store, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"universe": "not-a-list", "clusters": []}))
        with pytest.raises(SnapshotIntegrityError):
            loaded_store.load_from_mapping_file(path)

    def test_quarantine_can_be_disabled(
        self, registry, borges_mapping, tmp_path
    ):
        store = SnapshotStore(registry=registry, quarantine=False)
        path = self._saved(borges_mapping, tmp_path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(SnapshotIntegrityError):
            store.load_from_mapping_file(path)
        assert path.exists()


class TestReleaseFileIntegrity:
    def _released(self, mapping, whois, tmp_path):
        path = tmp_path / "release.jsonl"
        save_mapping_as2org(mapping, whois, path)
        return path

    def test_release_carries_verifiable_header(
        self, borges_mapping, universe, tmp_path
    ):
        path = self._released(borges_mapping, universe.whois, tmp_path)
        text = path.read_text()
        assert text.startswith(RELEASE_HEADER_PREFIX)
        lines = text.splitlines()
        header = parse_release_header(lines)
        assert header["schema"] == 1
        assert header["digest"] == release_digest(record_lines(lines))

    def test_tampered_release_fails_closed(
        self, loaded_store, borges_mapping, universe, tmp_path
    ):
        path = self._released(borges_mapping, universe.whois, tmp_path)
        text = path.read_text()
        path.write_text(corrupt_snapshot_text(text, seed=5))
        with pytest.raises(SnapshotIntegrityError):
            loaded_store.load_from_release_file(path)
        assert loaded_store.current().generation == 1
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()

    def test_headerless_caida_file_still_loads(
        self, loaded_store, borges_mapping, universe, tmp_path
    ):
        """CAIDA's own files carry no digest header — back-compat path."""
        path = self._released(borges_mapping, universe.whois, tmp_path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        path.write_text("\n".join(lines) + "\n")
        snapshot = loaded_store.load_from_release_file(path)
        assert snapshot.generation == 2

    def test_empty_release_rejected(self, loaded_store, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SnapshotIntegrityError):
            loaded_store.load_from_release_file(path)

    def test_malformed_header_rejected(
        self, loaded_store, borges_mapping, universe, tmp_path
    ):
        path = self._released(borges_mapping, universe.whois, tmp_path)
        body = "\n".join(
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        )
        path.write_text(RELEASE_HEADER_PREFIX + "{not json\n" + body + "\n")
        with pytest.raises(SnapshotIntegrityError):
            loaded_store.load_from_release_file(path)


class TestEmptyMappingRejected:
    def test_empty_mapping_never_swaps_in(self, store):
        empty = OrgMapping(universe=[], clusters=[], method="test")
        with pytest.raises(SnapshotIntegrityError):
            store.load_from_mapping(empty)
        assert store.current_or_none() is None


# -- stale serving + rollback ----------------------------------------------


class TestStaleAndRollback:
    def test_failed_swap_marks_stale_and_keeps_serving(
        self, registry, loaded_store, borges_mapping, universe, tmp_path
    ):
        service = QueryService(store=loaded_store, registry=registry)
        path = tmp_path / "release.jsonl"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        path.write_text(corrupt_snapshot_text(path.read_text(), seed=3))
        assert loaded_store.try_swap(
            lambda: loaded_store.load_from_release_file(path)
        ) is None
        assert loaded_store.stale
        asn = loaded_store.current().index.asns()[0]
        response = service.lookup_asn(asn)
        assert response["stale"] is True
        ready, body = service.health()
        assert ready and body["status"] == "degraded"

    def test_rollback_restores_previous_content(
        self, loaded_store, borges_mapping, universe
    ):
        gen1_digest = loaded_store.current().index.digest
        singletons = OrgMapping(
            universe=sorted(borges_mapping.to_json()["universe"]),
            clusters=[
                frozenset([asn])
                for asn in borges_mapping.to_json()["universe"]
            ],
            method="singletons",
        )
        loaded_store.load_from_mapping(singletons, label="gen2")
        assert loaded_store.current().index.digest != gen1_digest
        restored = loaded_store.rollback()
        assert restored.generation == 3
        assert restored.index.digest == gen1_digest
        assert restored.source == "rollback"

    def test_rollback_clears_stale(self, loaded_store, borges_mapping, universe):
        loaded_store.load_from_mapping(borges_mapping, whois=universe.whois)
        loaded_store.stale = True
        loaded_store.rollback()
        assert not loaded_store.stale

    def test_history_is_bounded_and_walks_backwards(
        self, registry, borges_mapping, universe
    ):
        store = SnapshotStore(registry=registry, history_limit=2)
        for label in ("gen1", "gen2", "gen3", "gen4"):
            store.load_from_mapping(
                borges_mapping, whois=universe.whois, label=label
            )
        history = store.history()
        assert [entry["label"] for entry in history] == ["gen2", "gen3"]
        assert store.rollback().label.endswith("gen3)")
        assert store.rollback().label.endswith("gen2)")
        with pytest.raises(RollbackUnavailableError):
            store.rollback()

    def test_rollback_without_history_raises(self, loaded_store):
        with pytest.raises(RollbackUnavailableError):
            loaded_store.rollback()

    def test_service_rollback_summary(
        self, registry, loaded_store, borges_mapping, universe
    ):
        service = QueryService(store=loaded_store, registry=registry)
        loaded_store.load_from_mapping(borges_mapping, whois=universe.whois)
        summary = service.rollback()
        assert summary["generation"] == 3
        assert summary["orgs"] == len(loaded_store.current().index)


# -- chaos profiles --------------------------------------------------------


class TestServeChaos:
    def test_corrupt_snapshot_text_is_deterministic_and_destructive(self):
        text = "x" * 400
        once = corrupt_snapshot_text(text, seed=9)
        again = corrupt_snapshot_text(text, seed=9)
        assert once == again
        assert once != text and len(once) < len(text)
        assert corrupt_snapshot_text(text, seed=10) != once

    def test_corrupt_snapshot_profile_defeats_file_loads(
        self, registry, borges_mapping, universe, tmp_path
    ):
        injector = FaultInjector(
            PROFILES["corrupt-snapshot"], seed=13, registry=registry
        )
        store = SnapshotStore(registry=registry, injector=injector)
        store.load_from_mapping(borges_mapping, whois=universe.whois)
        path = tmp_path / "release.jsonl"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        with pytest.raises(SnapshotIntegrityError):
            store.load_from_release_file(path)
        assert store.current().generation == 1

    def test_slow_reader_profile_stalls_requests(
        self, registry, borges_mapping, universe
    ):
        injector = FaultInjector(
            PROFILES["slow-reader"], seed=13, registry=registry
        )
        service = QueryService(registry=registry, injector=injector)
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        asn = service.store.current().index.asns()[0]
        started = time.perf_counter()
        service.lookup_asn(asn)
        assert time.perf_counter() - started >= (
            PROFILES["slow-reader"].slow_read_seconds
        )


# -- loadgen overload mode -------------------------------------------------


class TestOverloadLoadgen:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([1.0], 0.5) == 1.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.5) == 51.0
        assert percentile(samples, 0.99) == 100.0

    def test_overload_run_classifies_and_never_5xx(
        self, registry, borges_mapping, universe
    ):
        injector = FaultInjector(
            PROFILES["slow-reader"], seed=13, registry=registry
        )
        service = QueryService(
            registry=registry,
            admission=AdmissionController(
                AdmissionLimits(
                    max_inflight=2, max_queue=2, default_deadline=2.0
                ),
                registry=registry,
            ),
            injector=injector,
        )
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        generator = LoadGenerator(
            service, service.store.current().index.asns(), seed=3
        )
        unloaded = generator.run_overload(40, workers=1, herd_size=0)
        assert unloaded.classes["429"] == 0, "one client must not be shed"
        report = generator.run_overload(
            240, workers=8, herd_size=10, backoff_seconds=0.002
        )
        assert report.classes["5xx"] == 0
        assert report.classes["429"] > 0
        # Surplus load is shed on arrival, never left to expire queued.
        assert report.classes["deadline"] == 0
        assert report.classes["2xx"] == report.ok
        assert sum(report.classes.values()) == report.requests
        assert report.admitted_p99 >= report.admitted_p50 > 0.0
        assert report.to_json()["classes"] == report.classes


# -- HTTP hardening --------------------------------------------------------


def _raw_post(server, path, content_length, body=b""):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.putrequest("POST", path)
        if content_length is not None:
            conn.putheader("Content-Length", content_length)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _wire(server, payload):
    """Send raw bytes on one connection; all it answers until it closes."""
    with socket.create_connection(
        (server.host, server.port), timeout=5
    ) as sock:
        sock.sendall(payload)
        return _read_to_eof(sock)


def _split_responses(data):
    """Raw response bytes as ``[(status, lower-cased headers, body)]``."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


def _with_headers(count):
    """A /healthz request carrying *count* headers, the last one close."""
    extra = b"".join(b"X-Filler-%d: v\r\n" % i for i in range(count - 1))
    return b"GET /healthz HTTP/1.1\r\n" + extra + b"Connection: close\r\n\r\n"


class TestHTTPHardening:
    @pytest.fixture()
    def server(self, registry, borges_mapping, universe):
        service = QueryService(registry=registry)
        service.store.load_from_mapping(
            borges_mapping, whois=universe.whois, pdb=universe.pdb
        )
        with QueryServer(service) as srv:
            yield srv

    def test_missing_content_length_is_400(self, server):
        status, body = _raw_post(server, "/v1/batch", None)
        assert status == 400 and "Content-Length" in body["error"]

    def test_negative_content_length_is_400(self, server):
        status, body = _raw_post(server, "/v1/batch", "-1")
        assert status == 400 and "negative" in body["error"]

    def test_non_integer_content_length_is_400(self, server):
        status, body = _raw_post(server, "/v1/batch", "banana")
        assert status == 400 and "integer" in body["error"]

    def test_oversized_content_length_is_413_without_reading(self, server):
        status, body = _raw_post(server, "/v1/batch", str(1 << 30))
        assert status == 413 and "exceeds" in body["error"]

    def test_oversized_batch_list_is_413(self, server):
        payload = json.dumps({"asns": list(range(2000))}).encode()
        status, body = _raw_post(
            server, "/v1/batch", str(len(payload)), payload
        )
        assert status == 413 and "2000" in body["error"]

    def test_non_json_body_is_400(self, server):
        status, body = _raw_post(server, "/v1/batch", "9", b"not-json!")
        assert status == 400 and "JSON" in body["error"]

    def test_non_integer_asns_in_batch_are_400(self, server):
        payload = json.dumps({"asns": ["banana"]}).encode()
        status, body = _raw_post(
            server, "/v1/batch", str(len(payload)), payload
        )
        assert status == 400

    def test_malformed_params_name_the_field(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5
        )
        try:
            for url, field in (
                ("/v1/siblings?a=notanint&b=2", "a"),
                ("/v1/siblings?a=1&b=no", "b"),
                ("/v1/siblings?asn=no", "asn"),
                ("/v1/search?q=net&limit=no", "limit"),
            ):
                conn.request("GET", url)
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, url
                assert f"'{field}'" in body["error"], url
        finally:
            conn.close()

    def test_search_limit_is_bounded(self, server):
        def cached():
            return server.service.stats()["response_cache"]["entries"]

        before = cached()
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5
        )
        try:
            conn.request(
                "GET", f"/v1/search?q=net&limit={MAX_SEARCH_LIMIT + 1}"
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400 and "'limit'" in body["error"]
            assert cached() == before
            conn.request("GET", "/v1/search?q=net&limit=0")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200 and body["results"] == []
        finally:
            conn.close()

    # -- wire framing, over raw sockets --------------------------------

    def test_pipelined_requests_answer_in_order(self, server):
        a, b = server.service.store.current().index.asns()[:2]
        responses = _split_responses(_wire(server, (
            f"GET /v1/asn/{a} HTTP/1.1\r\nHost: x\r\n\r\n"
            f"GET /v1/asn/{b} HTTP/1.1\r\nHost: x\r\n"
            "Connection: close\r\n\r\n"
        ).encode()))
        assert [status for status, _, _ in responses] == [200, 200]
        assert [json.loads(body)["asn"] for _, _, body in responses] == [a, b]
        assert "connection" not in responses[0][1]
        assert responses[1][1]["connection"] == "close"

    @pytest.mark.parametrize(
        "head, answers",
        [
            ("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 1),
            ("GET /healthz HTTP/1.0\r\n\r\n", 1),
            (
                "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                "GET /healthz HTTP/1.0\r\n\r\n",
                2,
            ),
        ],
        ids=["close", "http10", "http10-keep-alive"],
    )
    def test_connection_close_rules(self, server, head, answers):
        # _wire reads to EOF: a server that kept the connection open
        # would time the read out instead.
        responses = _split_responses(_wire(server, head.encode()))
        assert [status for status, _, _ in responses] == [200] * answers

    def test_expect_100_continue_batch(self, server):
        asns = server.service.store.current().index.asns()[:3]
        body = json.dumps({"asns": asns}).encode()
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as sock:
            sock.sendall(
                f"POST /v1/batch HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\nConnection: close\r\n\r\n".encode()
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, "closed before 100 Continue"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            ((status, _, payload),) = _split_responses(_read_to_eof(sock))
        assert status == 200
        assert [r["asn"] for r in json.loads(payload)["results"]] == asns

    @pytest.mark.parametrize(
        "payload, expected",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (_with_headers(100), 200),
            (_with_headers(101), 431),
            (b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"PUT /v1/batch HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
        ],
        ids=[
            "long-line-414", "100-headers", "101-headers-431",
            "no-colon-400", "http09-400", "http2-505", "put-501",
        ],
    )
    def test_request_framing_limits(self, server, payload, expected):
        ((status, headers, body),) = _split_responses(_wire(server, payload))
        assert status == expected
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert json.loads(body)["error" if expected != 200 else "status"]

    @pytest.mark.parametrize(
        "head, expected",
        [
            ("POST /v1/admin/rollback HTTP/1.1\r\nContent-Length: 2", 409),
            ("POST /v1/nowhere HTTP/1.1\r\nContent-Length: 2", 404),
            ("GET /healthz HTTP/1.1\r\nContent-Length: 2", 200),
        ],
        ids=["rollback", "unknown-post-route", "get-with-body"],
    )
    def test_unread_body_closes_the_connection(self, server, head, expected):
        # The handler never reads "{}"; kept on the connection it would
        # prefix the pipelined GET and answer "501 unsupported method
        # '{}GET'".  One answer, then close.
        payload = head + "\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n"
        responses = _split_responses(_wire(server, payload.encode()))
        assert [status for status, _, _ in responses] == [expected]
        assert responses[0][1]["connection"] == "close"

    def test_lower_case_traceparent_round_trips(self, server):
        trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
        ((status, headers, _),) = _split_responses(_wire(server, (
            f"GET /healthz HTTP/1.1\r\n"
            f"traceparent: 00-{trace_id}-00f067aa0ba902b7-01\r\n"
            "connection: close\r\n\r\n"
        ).encode()))
        assert status == 200 and headers["x-borges-trace-id"] == trace_id

    def test_each_response_is_one_write(self, server):
        writes = []

        class Recording(_make_handler(server.service)):
            def setup(self):
                super().setup()
                send = self.wfile.write

                def write(data):
                    writes.append(bytes(data))
                    return send(data)

                self.wfile.write = write

        asns = server.service.store.current().index.asns()[:2]
        batch = json.dumps({"asns": asns}).encode()
        payload = (
            f"GET /v1/asn/{asns[0]} HTTP/1.1\r\n\r\n"
            "GET /metrics HTTP/1.1\r\n\r\n"
            "GET /v1/asn/1 HTTP/1.1\r\n\r\n"
            f"POST /v1/batch HTTP/1.1\r\nContent-Length: {len(batch)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + batch
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with socket.create_connection(
                listener.getsockname(), timeout=5
            ) as client:
                conn, address = listener.accept()
                handler = threading.Thread(
                    target=Recording, args=(conn, address, None)
                )
                handler.start()
                client.sendall(payload)
                handler.join(timeout=5)
                assert not handler.is_alive()
                conn.close()
                data = _read_to_eof(client)
        responses = _split_responses(data)
        assert [status for status, _, _ in responses] == [200, 200, 404, 200]
        assert len(writes) == 4 and b"".join(writes) == data


class TestHTTPOverloadSurface:
    def test_saturated_gate_answers_429_with_retry_after(
        self, registry, borges_mapping, universe
    ):
        service = QueryService(
            registry=registry,
            admission=AdmissionController(
                AdmissionLimits(
                    max_inflight=1, max_queue=0, default_deadline=1.5
                ),
                registry=registry,
            ),
        )
        service.store.load_from_mapping(borges_mapping, whois=universe.whois)
        asn = service.store.current().index.asns()[0]
        with QueryServer(service) as server:
            ticket = service.admission.admit("other")
            try:
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=5
                )
                conn.request("GET", f"/v1/asn/{asn}")
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 429
                assert int(response.getheader("Retry-After")) >= 1
                assert payload["retry_after"] == 1.5
                conn.close()
            finally:
                ticket.__exit__(None, None, None)
            status, _ = _raw_post(server, "/v1/admin/rollback", "2", b"{}")
            assert status == 409  # no history yet — structured, not a 500


class TestHTTPRollbackEndpoint:
    def test_rollback_round_trip(self, registry, borges_mapping, universe):
        service = QueryService(registry=registry)
        service.store.load_from_mapping(
            borges_mapping, whois=universe.whois, label="gen1"
        )
        service.store.load_from_mapping(
            borges_mapping, whois=universe.whois, label="gen2"
        )
        with QueryServer(service) as server:
            status, body = _raw_post(server, "/v1/admin/rollback", "2", b"{}")
            assert status == 200
            assert body["generation"] == 3
            assert "gen1" in body["restored"]


# -- CLI surface -----------------------------------------------------------


class TestRobustnessCLI:
    def test_sniff_recognizes_headered_release_with_odd_suffix(
        self, tmp_path, borges_mapping, universe
    ):
        from repro.cli import _sniff_snapshot_kind

        path = tmp_path / "release.dat"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        assert _sniff_snapshot_kind(path) == "release"

    def test_sniff_still_recognizes_mapping_files(
        self, tmp_path, borges_mapping
    ):
        from repro.cli import _sniff_snapshot_kind

        path = tmp_path / "mapping.json"
        borges_mapping.save(path)
        assert _sniff_snapshot_kind(path) == "mapping"

    def test_serve_rollback_client_reports_unreachable_server(self, capsys):
        from repro.cli import main

        status = main(
            ["serve", "--rollback", "--host", "127.0.0.1", "--port", "1"]
        )
        assert status == 1
        assert "cannot reach" in capsys.readouterr().out

    def test_serve_pool_rejects_history(self, capsys, monkeypatch):
        # A pool worker installs one generation: it has no history.
        from repro import cli

        started = []
        monkeypatch.setattr(cli, "_cmd_serve_pool", started.append)
        status = cli.main(["serve", "--workers", "2", "--history", "5"])
        assert status == 2
        assert not started
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --history") and "\n" not in err
        cli.main(["serve", "--workers", "2"])
        assert len(started) == 1

    def test_release_files_round_trip_through_serve(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "rel.jsonl"
        with use_registry():
            assert main(["--orgs", "40", "release", "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["query", "--snapshot", str(out), "--search", "a"]) == 0
        assert '"results"' in capsys.readouterr().out


# -- rollback depth (continuous-operation satellites) ----------------------


class TestRollbackWalksPastQuarantinedGenerations:
    def test_repeated_rollbacks_walk_deeper_not_ping_pong(
        self, store, tmp_path, borges_mapping, universe
    ):
        for label in ("gen1", "gen2", "gen3"):
            store.load_from_mapping(
                borges_mapping, whois=universe.whois, label=label
            )
        # Two corrupt refreshes in a row: each fails closed, quarantines
        # its input file, and leaves the store serving-but-stale.
        for n in range(2):
            bad = tmp_path / f"bad{n}.json"
            bad.write_text("{definitely not json", encoding="utf-8")
            assert (
                store.try_swap(
                    lambda path=bad: store.load_from_mapping_file(path)
                )
                is None
            )
            assert bad.with_name(bad.name + QUARANTINE_SUFFIX).exists()
        assert store.stale
        assert store.swap_failures == 2

        first = store.rollback()
        assert "gen2" in first.label
        assert store.stale is False  # a successful install clears staleness
        second = store.rollback()
        assert "gen1" in second.label  # deeper, not back to gen3
        assert store.rollback_count == 2
        with pytest.raises(RollbackUnavailableError):
            store.rollback()

    def test_health_reports_rollback_depth_and_count(
        self, registry, borges_mapping, universe
    ):
        service = QueryService(registry=registry)
        for label in ("gen1", "gen2"):
            service.store.load_from_mapping(
                borges_mapping, whois=universe.whois, label=label
            )
        ready, body = service.health()
        assert ready
        assert body["rollback_generations"] == 1
        assert body["rollback_count"] == 0
        service.rollback()
        ready, body = service.health()
        assert body["rollback_count"] == 1
        assert body["rollback_generations"] == 0


# -- unreachable-server UX (query / top) -----------------------------------


class TestUnreachableServerUX:
    def test_remote_query_prints_one_line_not_a_traceback(self, capsys):
        from repro.cli import main

        status = main(
            ["query", "64500", "--host", "127.0.0.1", "--port", "1"]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "server unreachable at 127.0.0.1:1" in out
        assert "Traceback" not in out

    def test_query_gen_requires_host(self, capsys):
        from repro.cli import main

        status = main(["query", "64500", "--gen", "2"])
        assert status == 2
        assert "--gen needs --host" in capsys.readouterr().out

    def test_top_exits_nonzero_with_one_line_diagnosis(self):
        import io

        from repro.serve.top import run_top

        buffer = io.StringIO()
        status = run_top(
            host="127.0.0.1", port=1, iterations=1, clear=False, stream=buffer
        )
        assert status == 1
        assert buffer.getvalue() == "server unreachable at 127.0.0.1:1\n"

    def test_top_renders_watch_and_swap_posture(
        self, registry, borges_mapping, universe
    ):
        from repro.serve.top import TopView

        service = QueryService(registry=registry)
        service.store.load_from_mapping(
            borges_mapping, whois=universe.whois, label="gen1"
        )
        with QueryServer(service) as server:
            view = TopView(f"http://{server.host}:{server.port}")
            rendered = view.render(view.poll())
        assert "swaps" in rendered
        assert "rollback-depth 0" in rendered
