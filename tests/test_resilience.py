"""The resilience layer: retries, breakers, seeded chaos, degradation.

Covers the contracts ISSUE's robustness work promises: backoff schedules
are deterministic and bounded; breakers open/half-open/close exactly as
the state machine says; fault injection is a pure function of
(seed, profile); the client masks transient faults; the scraper no
longer caches transient failures forever nor blesses 404 landing pages;
and the pipeline completes degraded — with accounting — when a feature's
backend dies mid-run.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.config import TEST_UNIVERSE, BorgesConfig, ResilienceConfig
from repro.core import BorgesPipeline
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    FetchError,
    LLMBackendError,
    LLMInvalidRequestError,
    LLMRateLimitError,
    LLMTimeoutError,
)
from repro.llm.client import ChatClient, ChatMessage
from repro.llm.simulated import SimulatedChatBackend, make_default_client
from repro.obs import build_manifest
from repro.obs.registry import MetricsRegistry
from repro.resilience import (
    PROFILES,
    BreakerRegistry,
    CircuitBreaker,
    FaultInjector,
    FaultyChatBackend,
    RetryPolicy,
    resolve_fault_profile,
    stable_unit,
)
from repro.universe import generate_universe
from repro.web.faults import FaultyWeb
from repro.web.http import HTTPResponse
from repro.web.scraper import HeadlessScraper
from repro.web.simweb import SimulatedWeb

NO_SLEEP = RetryPolicy(sleep=lambda _s: None)

#: Zero-delay resilience so chaos tests never actually sleep.
FAST_RESILIENCE = ResilienceConfig(
    llm_base_delay=0.0, llm_max_delay=0.0, web_base_delay=0.0, web_max_delay=0.0
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.01, max_delay=0.05, multiplier=2.0,
            jitter=0.0,
        )
        assert policy.schedule() == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_stays_within_fraction_and_is_deterministic(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=10.0, multiplier=1.0,
            jitter=0.25, seed=3,
        )
        for attempt in range(1, 5):
            delay = policy.delay_for(attempt, key="example.com")
            assert 0.075 <= delay <= 0.125
            assert delay == policy.delay_for(attempt, key="example.com")
        # A different key draws a different (but still bounded) jitter.
        assert policy.schedule("a.com") != policy.schedule("b.com")

    def test_execute_retries_transient_then_succeeds(self):
        slept = []
        policy = RetryPolicy(attempts=3, jitter=0.0, sleep=slept.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise LLMTimeoutError("transient")
            return "ok"

        assert policy.execute(flaky) == "ok"
        assert calls["n"] == 3
        assert slept == [0.01, 0.02]

    def test_fatal_error_is_not_retried(self):
        policy = NO_SLEEP
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise LLMInvalidRequestError("malformed request")

        with pytest.raises(LLMInvalidRequestError):
            policy.execute(fatal)
        assert calls["n"] == 1

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(attempts=2, sleep=lambda _s: None)
        with pytest.raises(LLMRateLimitError):
            policy.execute(lambda: (_ for _ in ()).throw(
                LLMRateLimitError("still limited")
            ))

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            RetryPolicy(attempts=0).validate()
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5).validate()
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5).validate()


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="test", failure_threshold=3, recovery_seconds=10.0,
            clock=clock, registry=MetricsRegistry(), **kwargs,
        )
        return breaker, clock

    def test_opens_at_threshold_and_rejects(self):
        breaker, _clock = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False
        assert breaker.rejections == 1

    def test_success_resets_failure_count(self):
        breaker, _clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_recovery_then_closes_on_success(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.allow() is False
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow() is True       # the probe
        assert breaker.allow() is False      # probes are bounded
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() is True

    def test_half_open_reopens_on_probe_failure(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow() is True
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False

    def test_call_raises_circuit_open(self):
        breaker, _clock = self.make()
        for _ in range(3):
            with pytest.raises(LLMTimeoutError):
                breaker.call(lambda: (_ for _ in ()).throw(
                    LLMTimeoutError("down")
                ))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_registry_isolates_keys(self):
        registry = BreakerRegistry(
            failure_threshold=1, registry=MetricsRegistry(), prefix="web"
        )
        registry.breaker("a.com").record_failure()
        assert registry.breaker("a.com").state == "open"
        assert registry.breaker("b.com").state == "closed"
        assert registry.open_count() == 1
        assert registry.states() == {"a.com": "open", "b.com": "closed"}
        assert registry.breaker("a.com").name == "web:a.com"


# ---------------------------------------------------------------------------
# Fault injection


class TestFaultInjector:
    def sequence(self, seed, calls=60, profile="flaky"):
        injector = FaultInjector(
            PROFILES[profile], seed=seed, registry=MetricsRegistry()
        )
        return [
            injector.next_fault("llm", f"key{i % 7}") for i in range(calls)
        ]

    def test_same_seed_same_sequence(self):
        assert self.sequence(1) == self.sequence(1)

    def test_different_seed_different_sequence(self):
        assert self.sequence(1) != self.sequence(2)

    def test_none_profile_injects_nothing(self):
        assert all(k is None for k in self.sequence(5, profile="none"))

    def test_flaky_caps_consecutive_faults(self):
        injector = FaultInjector(
            PROFILES["flaky"], seed=9, registry=MetricsRegistry()
        )
        streak = 0
        for i in range(400):
            kind = injector.next_fault("llm", "same-call-site")
            streak = streak + 1 if kind else 0
            assert streak <= PROFILES["flaky"].max_consecutive

    def test_burst_profile_repeats_the_fault(self):
        injector = FaultInjector(
            PROFILES["burst"], seed=1, registry=MetricsRegistry()
        )
        kinds = [injector.next_fault("llm", f"k{i}") for i in range(500)]
        first = next(i for i, k in enumerate(kinds) if k is not None)
        burst = kinds[first:first + PROFILES["burst"].burst_length]
        assert len(set(burst)) == 1 and burst[0] is not None

    def test_resolve_profile_env_and_unknown(self, monkeypatch):
        monkeypatch.delenv("BORGES_FAULT_PROFILE", raising=False)
        assert resolve_fault_profile("").name == "none"
        monkeypatch.setenv("BORGES_FAULT_PROFILE", "flaky")
        assert resolve_fault_profile(None).name == "flaky"
        assert resolve_fault_profile("storm").name == "storm"
        with pytest.raises(ConfigError):
            resolve_fault_profile("hurricane")

    def test_stable_unit_is_uniformish(self):
        draws = [stable_unit(0, "x", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.35 < sum(draws) / len(draws) < 0.65


# ---------------------------------------------------------------------------
# Client-level resilience


def _extraction_messages(asn=65550, notes="AS65551 is our sibling."):
    # Borrow the real prompt renderer so the simulated backend accepts it.
    from repro.llm.prompts import render_extraction_prompt

    return [
        ChatMessage(role="user", content=render_extraction_prompt(asn, notes, ""))
    ]


class DyingBackend(SimulatedChatBackend):
    """Delegates to the simulator until ``die_after`` calls, then times out."""

    def __init__(self, die_after):
        super().__init__()
        self.calls = 0
        self.die_after = die_after

    def complete(self, messages, config):
        self.calls += 1
        if self.calls > self.die_after:
            raise LLMTimeoutError("backend died mid-run")
        return super().complete(messages, config)


class TestClientResilience:
    def test_flaky_faults_are_masked(self):
        """max_consecutive < attempts ⇒ chaos is invisible in the output."""
        clean = make_default_client()
        messages = _extraction_messages()
        expected = clean.chat(messages).content

        backend = FaultyChatBackend(
            SimulatedChatBackend(),
            FaultInjector(PROFILES["storm"], seed=6, registry=MetricsRegistry()),
        )
        # Storm has no consecutive cap, so give the policy a big budget.
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=30, sleep=lambda _s: None),
            breaker=CircuitBreaker(
                name="llm:test", failure_threshold=1000,
                registry=MetricsRegistry(),
            ),
            registry=MetricsRegistry(),
        )
        assert client.chat(messages).content == expected

    def test_retry_exhaustion_wraps_with_attempt_count(self):
        backend = DyingBackend(die_after=0)
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=3, sleep=lambda _s: None),
            registry=MetricsRegistry(),
        )
        with pytest.raises(LLMBackendError, match="after 3 attempts"):
            client.chat(_extraction_messages())
        assert backend.calls == 3

    def test_breaker_opens_then_fails_fast(self):
        backend = DyingBackend(die_after=0)
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="llm:test", failure_threshold=4, recovery_seconds=30.0,
            clock=clock, registry=MetricsRegistry(),
        )
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=2, sleep=lambda _s: None),
            breaker=breaker,
            registry=MetricsRegistry(),
        )
        with pytest.raises(LLMBackendError):
            client.chat(_extraction_messages(notes="first request"))
        with pytest.raises(LLMBackendError):
            client.chat(_extraction_messages(notes="second request"))
        assert breaker.state == "open"
        calls_before = backend.calls
        with pytest.raises(CircuitOpenError):
            client.chat(_extraction_messages(notes="third request"))
        assert backend.calls == calls_before  # rejected without touching it

        # After recovery the half-open probe reaches the backend again; it
        # fails, the breaker re-opens, and the retry is rejected outright.
        clock.advance(30.0)
        with pytest.raises(CircuitOpenError):
            client.chat(_extraction_messages(notes="fourth request"))
        assert backend.calls == calls_before + 1
        assert breaker.state == "open"

    def test_invalid_request_is_fatal_not_retried(self):
        backend = SimulatedChatBackend()
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=3, sleep=lambda _s: None),
            registry=MetricsRegistry(),
        )
        with pytest.raises(LLMInvalidRequestError):
            client.chat([ChatMessage(role="user", content="what is an AS?")])


# ---------------------------------------------------------------------------
# Scraper resilience (satellites: 404 handling, transient negative cache)


class ScriptedWeb:
    """A web driver whose fetch outcomes are scripted per host."""

    def __init__(self):
        self.script = {}
        self.fetches = []

    def set(self, host, outcomes):
        """Outcomes: list of HTTPResponse | Exception, last one repeats."""
        self.script[host] = list(outcomes)

    def fetch(self, url):
        from repro.web.url import parse_url

        host = parse_url(url).host
        self.fetches.append(host)
        outcomes = self.script.get(host)
        if not outcomes:
            raise FetchError(url, "host not found")
        outcome = outcomes.pop(0) if len(outcomes) > 1 else outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def favicon_bytes(self, url):
        return None


def page(url, status=200):
    return HTTPResponse(url=url, status=status, body="<html>hi</html>")


FAST_SCRAPER_RESILIENCE = dataclasses.replace(
    FAST_RESILIENCE, web_attempts=3, breaker_failure_threshold=5
)


class TestScraperResilience:
    def make_scraper(self, web, **overrides):
        resilience = dataclasses.replace(FAST_SCRAPER_RESILIENCE, **overrides)
        return HeadlessScraper(
            web, registry=MetricsRegistry(), resilience=resilience
        )

    def test_404_final_page_is_a_failure(self):
        web = ScriptedWeb()
        web.set("www.gone.com", [page("https://www.gone.com/", status=404)])
        result = self.make_scraper(web).resolve("https://www.gone.com/")
        assert result.ok is False
        assert result.error == "http 404"
        assert result.final_url is None
        assert result.transient is False

    def test_5xx_is_retried_then_reported_transient(self):
        web = ScriptedWeb()
        web.set("www.down.com", [page("https://www.down.com/", status=503)])
        scraper = self.make_scraper(web)
        result = scraper.resolve("https://www.down.com/")
        assert result.ok is False
        assert result.error == "server error 503"
        assert result.transient is True
        assert web.fetches.count("www.down.com") == 3  # all attempts used

    def test_retry_masks_a_one_off_transient_failure(self):
        web = ScriptedWeb()
        web.set("www.blip.com", [
            FetchError("https://www.blip.com/", "connection reset", transient=True),
            page("https://www.blip.com/"),
        ])
        result = self.make_scraper(web).resolve("https://www.blip.com/")
        assert result.ok is True
        assert result.final_url == "https://www.blip.com/"

    def test_transient_failure_is_not_cached_forever(self):
        web = ScriptedWeb()
        web.set("www.flaky.com", [
            FetchError("https://www.flaky.com/", "timed out", transient=True),
            page("https://www.flaky.com/"),
        ])
        scraper = self.make_scraper(web, web_attempts=1)
        first = scraper.resolve("https://www.flaky.com/")
        assert first.ok is False and first.transient is True
        second = scraper.resolve("https://www.flaky.com/")
        assert second.ok is True
        assert scraper.reattempts == 1
        assert scraper.stats()["transient_failures"] == 0

    def test_permanent_failure_stays_cached(self):
        web = ScriptedWeb()  # unknown host → "host not found", not transient
        scraper = self.make_scraper(web)
        first = scraper.resolve("https://www.nxdomain.com/")
        assert first.ok is False and first.transient is False
        scraper.resolve("https://www.nxdomain.com/")
        assert web.fetches.count("www.nxdomain.com") == 1  # served from cache

    def test_breaker_opens_per_host(self):
        web = ScriptedWeb()
        web.set("www.dead.com", [
            FetchError("https://www.dead.com/", "timed out", transient=True),
        ])
        web.set("www.fine.com", [page("https://www.fine.com/")])
        scraper = self.make_scraper(web, breaker_failure_threshold=4)
        scraper.resolve("https://www.dead.com/")      # 3 failures
        scraper.resolve("https://www.dead.com/path")  # 4th → breaker opens
        assert scraper.breaker_states()["www.dead.com"] == "open"
        rejected = scraper.resolve("https://www.dead.com/other")
        assert rejected.ok is False and rejected.transient is True
        assert "circuit" in rejected.error
        # The healthy host is untouched by its neighbour's outage.
        assert scraper.resolve("https://www.fine.com/").ok is True

    def test_redirect_without_location_is_a_failure(self):
        web = ScriptedWeb()
        web.set("www.odd.com", [
            HTTPResponse(url="https://www.odd.com/", status=301, body="")
        ])
        result = self.make_scraper(web).resolve("https://www.odd.com/")
        assert result.ok is False
        assert result.error == "redirect without location"


# ---------------------------------------------------------------------------
# Pipeline degradation


class TestPipelineDegradation:
    @pytest.fixture(scope="class")
    def small_universe(self):
        return generate_universe(TEST_UNIVERSE)

    def test_backend_death_mid_run_degrades_but_completes(self, small_universe):
        backend = DyingBackend(die_after=10)
        config = dataclasses.replace(BorgesConfig(), resilience=FAST_RESILIENCE)
        registry = MetricsRegistry()
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=2, sleep=lambda _s: None),
            breaker=CircuitBreaker(
                name="llm:dying", failure_threshold=3, registry=registry
            ),
            registry=registry,
        )
        pipeline = BorgesPipeline(
            small_universe.whois, small_universe.pdb, small_universe.web,
            config, client=client, registry=registry,
        )
        result = pipeline.run()
        assert result.degraded is True
        assert "notes_aka" in result.feature_errors
        # NER dies first; the favicon classifier then hits the open breaker.
        assert "favicons" in result.feature_errors
        # The run still produced a mapping from the surviving features.
        assert "oid_w" in result.features and "oid_p" in result.features
        assert "rr" in result.features  # salvaged without the favicon stage
        assert len(result.mapping) > 0
        resilience = result.diagnostics["resilience"]
        assert resilience["degraded"] is True
        assert resilience["feature_errors"] == result.feature_errors
        assert resilience["llm_breaker"] == "open"

    def test_degraded_flag_reaches_the_manifest(self, small_universe):
        backend = DyingBackend(die_after=0)
        config = dataclasses.replace(BorgesConfig(), resilience=FAST_RESILIENCE)
        client = ChatClient(
            backend,
            retry_policy=RetryPolicy(attempts=1, sleep=lambda _s: None),
            registry=MetricsRegistry(),
        )
        pipeline = BorgesPipeline(
            small_universe.whois, small_universe.pdb, small_universe.web,
            config, client=client, registry=MetricsRegistry(),
        )
        result = pipeline.run()
        manifest = build_manifest(
            config=config, result=result, client=client,
            registry=MetricsRegistry(),
        )
        assert manifest["degraded"] is True
        assert set(manifest["feature_errors"]) == set(result.feature_errors)

    def test_clean_run_is_not_degraded(self, borges_result):
        assert borges_result.degraded is False
        assert borges_result.feature_errors == {}
        resilience = borges_result.diagnostics["resilience"]
        # Under the chaos CI job the suite itself runs with
        # $BORGES_FAULT_PROFILE set; the run must still not degrade.
        expected = os.environ.get("BORGES_FAULT_PROFILE", "") or "none"
        assert resilience["fault_profile"] == expected
        assert resilience["degraded"] is False

    def test_storm_profile_completes_and_reproduces(self, small_universe):
        config = dataclasses.replace(
            BorgesConfig().with_fault_profile("storm"),
            resilience=dataclasses.replace(
                FAST_RESILIENCE, fault_profile="storm"
            ),
        )

        def run_once():
            pipeline = BorgesPipeline(
                small_universe.whois, small_universe.pdb, small_universe.web,
                config, registry=MetricsRegistry(),
            )
            return pipeline.run()

        first, second = run_once(), run_once()
        # Same seed + profile ⇒ byte-identical outcome, degraded or not.
        assert first.mapping.clusters() == second.mapping.clusters()
        assert first.degraded == second.degraded
        assert first.feature_errors == second.feature_errors
        stats_1 = first.diagnostics["resilience"].get("faults_injected")
        stats_2 = second.diagnostics["resilience"].get("faults_injected")
        assert stats_1 == stats_2 and stats_1  # chaos actually fired

    def test_burst_profile_costs_features_never_the_run(self, small_universe):
        config = dataclasses.replace(
            BorgesConfig(),
            resilience=dataclasses.replace(
                FAST_RESILIENCE, fault_profile="burst"
            ),
        )
        result = BorgesPipeline(
            small_universe.whois, small_universe.pdb, small_universe.web,
            config, registry=MetricsRegistry(),
        ).run()
        assert "oid_w" in result.features and len(result.mapping) > 0
        assert result.diagnostics["resilience"]["faults_injected"]


# ---------------------------------------------------------------------------
# FaultyWeb wrapper


class TestFaultyWeb:
    def test_delegates_registry_interface(self):
        web = SimulatedWeb()
        web.add_page("https://www.x.com/", title="X")
        faulty = FaultyWeb(
            web,
            FaultInjector(PROFILES["none"], registry=MetricsRegistry()),
        )
        assert len(faulty) == 1
        assert "www.x.com" in faulty
        assert faulty.hosts() == ["www.x.com"]
        assert faulty.fetch("https://www.x.com/").ok is True
        assert faulty.favicon_bytes("https://www.x.com/") is None

    def test_injects_seeded_faults(self):
        web = SimulatedWeb()
        for i in range(30):
            web.add_page(f"https://www.site{i}.com/")
        injector = FaultInjector(
            PROFILES["storm"], seed=4, registry=MetricsRegistry()
        )
        faulty = FaultyWeb(web, injector)
        outcomes = []
        for i in range(30):
            try:
                response = faulty.fetch(f"https://www.site{i}.com/")
                outcomes.append(response.status)
            except FetchError as exc:
                assert exc.transient is True
                outcomes.append(exc.reason)
        assert any(o != 200 for o in outcomes)
        assert sum(injector.stats().values()) > 0
