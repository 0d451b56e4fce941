"""Tests for the observability subsystem: registry, tracer, exporters."""

import json
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.config import TEST_UNIVERSE, ALL_FEATURES
from repro.core import BorgesPipeline
from repro.errors import ConfigError
from repro.experiments import ExperimentContext
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_manifest,
    config_fingerprint,
    get_registry,
    get_tracer,
    load_manifest,
    render_prometheus,
    use_registry,
    use_tracer,
    write_manifest,
)
from repro.universe import generate_universe


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2)
        assert counter.value == 3.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="a").inc()
        registry.counter("c", kind="a").inc()
        registry.counter("c", kind="b").inc()
        assert registry.value("c", kind="a") == 2.0
        assert registry.value("c", kind="b") == 1.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0, 5.0])
        for value in (0.5, 0.7, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.2)
        assert hist.bucket_counts == [2, 1, 1]  # <=1, <=5, +Inf
        assert hist.cumulative_counts() == [2, 3, 4]

    def test_mean(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0])
        assert hist.mean == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=[])


class TestRegistry:
    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.gauge("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help text", kind="a").inc(2)
        registry.histogram("h", buckets=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["help"] == "help text"
        assert snap["c"]["series"][0] == {"labels": {"kind": "a"}, "value": 2.0}
        hseries = snap["h"]["series"][0]
        assert hseries["count"] == 1
        assert hseries["buckets"][-1]["le"] == "+Inf"

    def test_use_registry_swaps_global(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry is not before
        assert get_registry() is before

    def test_reset_clears_families(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc()
        registry.reset()
        assert registry.families() == []
        assert registry.counter("c").value == 0.0

    # -- the lock-free repeat-lookup path ----------------------------------

    def test_type_conflict_raises_after_fast_path_hit(self):
        registry = MetricsRegistry()
        first = registry.counter("x", stage="a")
        assert registry.counter("x", stage="a") is first
        with pytest.raises(ConfigError):
            registry.gauge("x", stage="a")

    def test_label_keyword_order_resolves_one_child(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("c", stage="a", outcome="ok").inc()
            registry.counter("c", outcome="ok", stage="a").inc()
        assert len(registry.families()[0].children) == 1
        assert registry.value("c", stage="a", outcome="ok") == 4.0

    def test_unhashable_label_values_use_the_slow_path(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("c", tags=["x"]).inc()
        assert registry.value("c", tags=["x"]) == 2.0

    def test_equal_label_values_of_other_types_stay_apart(self):
        # 1 == True == 1.0 as dict keys, but their labels are "1",
        # "True" and "1.0": three children, however often each repeats.
        registry = MetricsRegistry()
        for _ in range(2):
            for value in (1, True, 1.0):
                registry.counter("c", n=value).inc()
        assert [dict(key)["n"] for key in registry.families()[0].children] \
            == ["1", "True", "1.0"]
        assert registry.value("c", n=True) == 2.0

    def test_concurrent_first_use_creates_one_child(self):
        registry = MetricsRegistry()
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        seen = []

        def first_use():
            barrier.wait(timeout=10)
            for _ in range(200):
                child = registry.counter("c", stage="a")
                child_again = registry.counter("c", stage="a")
                seen.append((child, child_again))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=first_use) for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == threads_n * 200
        assert len({id(c) for pair in seen for c in pair}) == 1
        assert len(registry.families()[0].children) == 1


class TestTracer:
    def test_nested_spans_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer", run=1) as outer:
            with tracer.span("inner") as inner:
                pass
        assert tracer.spans() == [outer]
        assert outer.children == [inner]
        assert outer.attributes == {"run": 1}
        assert outer.status == "ok" and inner.status == "ok"

    def test_child_duration_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.all_spans()
        assert 0.0 <= inner.duration <= outer.duration

    def test_error_status_and_reraise(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "bad" in span.error
        assert span.finished

    def test_sequential_spans_are_siblings(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.spans()] == ["a", "b"]

    def test_find_and_set_attribute(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            span.set_attribute("items", 7)
        assert tracer.find("stage")[0].attributes["items"] == 7
        assert tracer.find("missing") == []

    def test_use_tracer_swaps_global(self):
        before = get_tracer()
        with use_tracer() as tracer:
            assert get_tracer() is tracer
        assert get_tracer() is before


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", kind="a").inc(3)
        registry.gauge("temp").set(1.5)
        text = render_prometheus(registry)
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{kind="a"} 3' in text
        assert "temp 1.5" in text

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", label='x"y\\z').inc()
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestManifest:
    def test_config_fingerprint_stable_and_sensitive(self):
        from repro.config import BorgesConfig

        a = BorgesConfig()
        b = BorgesConfig()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(
            a.with_features("oid_p")
        )

    def test_round_trip(self, tmp_path):
        with use_registry() as registry, use_tracer() as tracer:
            registry.counter("c").inc(2)
            with tracer.span("stage"):
                pass
            manifest = build_manifest(extra={"note": "round-trip"})
        path = write_manifest(tmp_path / "m.json", manifest)
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))
        assert loaded["metrics"]["c"]["series"][0]["value"] == 2.0
        assert loaded["spans"][0]["name"] == "stage"
        assert loaded["note"] == "round-trip"

    def test_partial_manifest_without_result(self):
        with use_registry(), use_tracer():
            manifest = build_manifest()
        assert "features" not in manifest and "llm" not in manifest
        assert manifest["schema_version"] == 1


@pytest.fixture(scope="module")
def traced_run():
    """One default pipeline run against a private registry + tracer."""
    with use_registry() as registry, use_tracer() as tracer:
        universe = generate_universe(TEST_UNIVERSE)
        pipeline = BorgesPipeline(universe.whois, universe.pdb, universe.web)
        result = pipeline.run()
        yield pipeline, result, registry, tracer


class TestPipelineInstrumentation:
    def test_spans_for_all_four_features(self, traced_run):
        _, _, _, tracer = traced_run
        names = {span.name for span in tracer.all_spans()}
        for feature in ALL_FEATURES:
            assert f"feature.{feature}" in names
        assert "feature.oid_w" in names
        assert "pipeline.merge" in names

    def test_llm_metrics_match_client(self, traced_run):
        pipeline, _, registry, _ = traced_run
        usage = pipeline.client.total_usage
        assert registry.value(
            "llm_tokens_total", kind="prompt"
        ) == usage.prompt_tokens
        assert registry.value(
            "llm_tokens_total", kind="completion"
        ) == usage.completion_tokens
        assert registry.value(
            "llm_requests_total", backend=pipeline.client.backend_name
        ) == pipeline.client.request_count

    def test_cache_miss_counter_matches_cache_stats(self, traced_run):
        pipeline, _, registry, _ = traced_run
        stats = pipeline.client.cache_stats()
        assert registry.value(
            "llm_cache_events_total", result="miss"
        ) == stats["misses"]

    def test_web_metrics_recorded(self, traced_run):
        _, _, registry, _ = traced_run
        assert registry.value("web_fetch_total") > 0
        assert registry.value("web_resolve_total", outcome="ok") > 0

    def test_result_diagnostics_surface_cache_stats(self, traced_run):
        pipeline, result, _, _ = traced_run
        assert result.diagnostics["llm_cache"] == pipeline.client.cache_stats()
        assert result.diagnostics["scraper"]["resolved"] > 0

    def test_org_gauge_matches_mapping(self, traced_run):
        _, result, registry, _ = traced_run
        assert registry.value("pipeline_orgs") == len(result.mapping)

    def test_root_spans_cover_construct_and_run(self):
        """Construction's dataset digests get their own root span, so the
        roots account for (nearly) every second of construct + run."""
        coverage = []
        for _ in range(3):  # best of three absorbs one host stall
            universe = generate_universe(TEST_UNIVERSE)
            tracer = Tracer()
            started = time.perf_counter()
            BorgesPipeline(
                universe.whois, universe.pdb, universe.web,
                tracer=tracer, registry=MetricsRegistry(),
            ).run()
            wall = time.perf_counter() - started
            roots = tracer.spans()
            assert [s.name for s in roots] == ["pipeline.digest", "pipeline.run"]
            assert [c.name for c in roots[0].children] == [
                "digest.whois", "digest.pdb", "digest.web",
            ]
            coverage.append(sum(s.duration for s in roots) / wall)
        assert max(coverage) >= 0.95


class TestAcceptanceManifest:
    """The ISSUE's acceptance criterion: context build → manifest export."""

    def test_default_context_manifest_complete(self, tmp_path):
        with use_registry(), use_tracer():
            ctx = ExperimentContext.build(TEST_UNIVERSE)
            manifest = build_manifest(
                config=ctx.pipeline.config,
                result=ctx.result,
                client=ctx.pipeline.client,
            )
        document = load_manifest(
            write_manifest(tmp_path / "run.json", manifest)
        )
        for feature in ALL_FEATURES:
            assert document["features"][feature]["duration_seconds"] is not None
            assert document["features"][feature]["duration_seconds"] >= 0.0
        usage = ctx.pipeline.client.total_usage
        assert document["llm"]["prompt_tokens"] == usage.prompt_tokens
        assert document["llm"]["completion_tokens"] == usage.completion_tokens
        assert document["llm"]["total_tokens"] == usage.total_tokens
        assert "hit_rate" in document["llm"]["cache"]
        assert 0.0 <= document["llm"]["cache"]["hit_rate"] <= 1.0
        assert document["org_count"] == len(ctx.result.mapping)
        assert document["config"]["fingerprint"] == config_fingerprint(
            ctx.pipeline.config
        )

    def test_second_run_shows_cache_hits(self):
        with use_registry(), use_tracer():
            universe = generate_universe(TEST_UNIVERSE)
            pipeline = BorgesPipeline(
                universe.whois, universe.pdb, universe.web
            )
            pipeline.run()
            pipeline.run()
            manifest = build_manifest(client=pipeline.client)
        assert manifest["llm"]["cache"]["hits"] > 0
        assert manifest["llm"]["cache"]["hit_rate"] > 0.0


class TestTelemetryCLI:
    ARGS = ["--seed", "7", "--orgs", "400"]

    def test_telemetry_command(self, capsys):
        with use_registry(), use_tracer():
            assert main(self.ARGS + ["telemetry"]) == 0
        out = capsys.readouterr().out
        assert "stage timings:" in out
        assert "feature.notes_aka" in out
        assert "llm cache:" in out

    def test_telemetry_prometheus_flag(self, capsys):
        with use_registry(), use_tracer():
            assert main(self.ARGS + ["telemetry", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE llm_requests_total counter" in out

    def test_run_telemetry_out_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        with use_registry(), use_tracer():
            assert main(
                self.ARGS + ["--telemetry-out", str(path), "run"]
            ) == 0
        out = capsys.readouterr().out
        assert "llm cache:" in out
        document = load_manifest(path)
        assert document["org_count"] > 0
        assert document["features"]["rr"]["duration_seconds"] is not None

    def test_experiment_telemetry_out_partial_manifest(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        with use_registry(), use_tracer():
            assert main(
                self.ARGS + ["--telemetry-out", str(path), "experiment", "table3"]
            ) == 0
        document = load_manifest(path)
        span_names = {s["name"] for s in document["spans"]}
        assert "experiment.table3" in span_names
