"""Event log, SLO burn-rate math, exemplars, runtime sampler, quantiles."""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.obs.context import new_trace_context, use_trace_context
from repro.obs.log import EventLog, get_event_log, set_event_log, use_event_log
from repro.obs.registry import Histogram, MetricsRegistry, percentile
from repro.obs.slo import (
    ExemplarStore,
    RuntimeSampler,
    SLOConfig,
    SLOTracker,
    _process_rss_bytes,
)


class TestEventLog:
    def test_emit_and_read_back(self):
        log = EventLog(capacity=8)
        event = log.emit("unit.test", answer=42)
        assert event is not None
        assert event["event"] == "unit.test"
        assert event["severity"] == "info"
        assert event["answer"] == 42
        assert log.events("unit.test")[0]["answer"] == 42

    def test_ring_is_bounded_oldest_dropped(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("tick", i=i)
        kept = [event["i"] for event in log.events()]
        assert kept == [7, 8, 9]
        assert log.stats()["buffered"] == 3
        assert log.stats()["emitted"] == 10

    def test_severity_floor_suppresses(self):
        log = EventLog(min_severity="warning")
        assert log.emit("quiet", severity="info") is None
        assert log.emit("loud", severity="error") is not None
        stats = log.stats()
        assert stats["suppressed"] == 1
        assert stats["buffered"] == 1

    def test_unknown_severity_rejected(self):
        log = EventLog()
        with pytest.raises(ConfigError):
            log.emit("bad", severity="fatal")
        with pytest.raises(ConfigError):
            EventLog(min_severity="loud")
        with pytest.raises(ConfigError):
            EventLog(capacity=0)

    def test_sampling_drops_info_keeps_warnings(self):
        log = EventLog(sample_seed=1)
        kept = sum(
            1 for _ in range(1000) if log.emit("hot", sample=0.1) is not None
        )
        assert 50 < kept < 200  # seeded, roughly 10%
        for _ in range(50):
            assert (
                log.emit("bad", severity="warning", sample=0.0) is not None
            ), "warnings must never be sampled away"

    def test_trace_id_stamped_from_context(self):
        log = EventLog()
        ctx = new_trace_context()
        with use_trace_context(ctx):
            event = log.emit("traced")
        assert event["trace_id"] == ctx.trace_id
        assert "trace_id" not in log.emit("untraced")

    def test_file_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        with EventLog(path=path) as log:
            log.emit("one", n=1)
            log.emit("two", severity="warning", n=2)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["one", "two"]
        assert log.stats()["written"] == 2

    def test_tail_returns_newest(self):
        log = EventLog()
        for i in range(5):
            log.emit("e", i=i)
        assert [event["i"] for event in log.tail(2)] == [3, 4]

    def test_global_injection(self):
        original = get_event_log()
        mine = EventLog()
        with use_event_log(mine):
            assert get_event_log() is mine
            get_event_log().emit("inside")
        assert get_event_log() is original
        assert mine.events("inside")

    def test_set_event_log_returns_previous(self):
        original = get_event_log()
        mine = EventLog()
        assert set_event_log(mine) is original
        assert set_event_log(original) is mine


class TestSLOConfig:
    def test_defaults_validate(self):
        SLOConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"availability_objective": 1.0},
            {"availability_objective": 0.0},
            {"latency_objective": 1.5},
            {"latency_threshold": 0.0},
            {"fast_window_seconds": -1.0},
            {"fast_window_seconds": 600.0, "slow_window_seconds": 300.0},
            {"burn_rate_threshold": 0.0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SLOConfig(**kwargs).validate()


def _tracker(**kwargs) -> SLOTracker:
    config = SLOConfig(
        fast_window_seconds=kwargs.pop("fast", 60.0),
        slow_window_seconds=kwargs.pop("slow", 600.0),
        **kwargs,
    )
    return SLOTracker(config, registry=MetricsRegistry())


class TestBurnRateMath:
    def test_empty_window_burns_zero(self):
        tracker = _tracker()
        snap = tracker.snapshot(now=1000.0)
        for slo in ("availability", "latency"):
            for window in ("fast", "slow"):
                assert snap[slo]["windows"][window]["burn_rate"] == 0.0
            assert snap[slo]["alert"]["state"] == "clear"
        assert snap["any_alert_firing"] is False

    def test_burn_rate_formula(self):
        # objective 0.999 → budget 0.001; 1% errors → burn 10.
        tracker = _tracker(availability_objective=0.999)
        now = 1000.0
        for i in range(100):
            tracker.record(ok=(i != 0), latency=0.0, now=now)
        snap = tracker.snapshot(now=now)
        fast = snap["availability"]["windows"]["fast"]
        assert fast["total"] == 100
        assert fast["bad"] == 1
        assert fast["burn_rate"] == pytest.approx(10.0)

    def test_exactly_at_threshold_fires(self):
        # The alert condition is >=, so a burn rate exactly at the
        # threshold fires.  Build the threshold with the same float
        # expression the tracker uses so equality is bit-exact:
        # 18 bad in 1250 on a 0.999 objective.
        bad, total = 18, 1250
        threshold = (bad / total) / (1.0 - 0.999)
        tracker = _tracker(
            availability_objective=0.999, burn_rate_threshold=threshold
        )
        now = 1000.0
        for i in range(total):
            tracker.record(ok=(i >= bad), latency=0.0, now=now)
        snap = tracker.snapshot(now=now)
        fast_burn = snap["availability"]["windows"]["fast"]["burn_rate"]
        assert fast_burn == pytest.approx(threshold)
        assert snap["availability"]["alert"]["state"] == "firing"
        assert snap["any_alert_firing"] is True

    def test_needs_both_windows_to_fire(self):
        # Errors only inside the fast window's recent past, diluted over
        # the slow window by a long healthy history → slow burn low.
        tracker = _tracker(fast=10.0, slow=600.0)
        for i in range(10_000):
            tracker.record(ok=True, latency=0.0, now=100.0 + (i % 400))
        now = 500.0
        for _ in range(20):
            tracker.record(ok=False, latency=0.0, now=now)
        snap = tracker.snapshot(now=now)
        windows = snap["availability"]["windows"]
        assert windows["fast"]["burn_rate"] >= tracker.config.burn_rate_threshold
        assert windows["slow"]["burn_rate"] < tracker.config.burn_rate_threshold
        assert snap["availability"]["alert"]["state"] == "clear"

    def test_alert_fires_then_clears_after_recovery(self):
        tracker = _tracker(fast=10.0, slow=60.0)
        now = 1000.0
        for _ in range(100):
            tracker.record(ok=False, latency=0.0, now=now)
        assert (
            tracker.snapshot(now=now)["availability"]["alert"]["state"]
            == "firing"
        )
        # Healthy traffic after the fast window rolls past the errors.
        recovered = now + 15.0
        for _ in range(100):
            tracker.record(ok=True, latency=0.0, now=recovered)
        snap = tracker.snapshot(now=recovered)
        assert snap["availability"]["alert"]["state"] == "clear"
        assert snap["availability"]["alert"]["transitions"] == 2

    def test_window_boundary_expires_old_buckets(self):
        tracker = _tracker(fast=60.0, slow=600.0)
        tracker.record(ok=False, latency=0.0, now=100.0)
        in_window = tracker.snapshot(now=150.0)
        assert in_window["availability"]["windows"]["fast"]["total"] == 1
        past_window = tracker.snapshot(now=100.0 + 61.0)
        assert past_window["availability"]["windows"]["fast"]["total"] == 0

    def test_latency_objective_counts_slow_requests(self):
        tracker = _tracker(latency_threshold=0.1, latency_objective=0.99)
        now = 1000.0
        for i in range(100):
            tracker.record(ok=True, latency=0.5 if i < 2 else 0.001, now=now)
        snap = tracker.snapshot(now=now)
        latency_fast = snap["latency"]["windows"]["fast"]
        assert latency_fast["bad"] == 2
        assert latency_fast["burn_rate"] == pytest.approx(2.0)
        # availability untouched by slow-but-successful requests
        assert snap["availability"]["windows"]["fast"]["bad"] == 0

    def test_alerts_summary_and_gauges(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(
            SLOConfig(fast_window_seconds=60.0, slow_window_seconds=600.0),
            registry=registry,
        )
        now = 1000.0
        for _ in range(100):
            tracker.record(ok=False, latency=0.0, now=now)
        assert tracker.alerts(now=now)["availability"] == "firing"
        assert (
            registry.value("slo_alert_firing", slo="availability") == 1.0
        )
        assert registry.value("slo_burn_rate", slo="availability", window="fast") > 0


class TestExemplarStore:
    def test_keeps_only_over_threshold(self):
        store = ExemplarStore(threshold=0.1, capacity=4)
        assert not store.offer(endpoint="asn", status=200, latency=0.05)
        assert store.offer(
            endpoint="asn",
            status=200,
            latency=0.2,
            trace_id="abc",
            spans=[{"name": "http.asn"}],
        )
        kept = store.exemplars()
        assert len(kept) == 1
        assert kept[0]["trace_id"] == "abc"
        assert kept[0]["latency_ms"] == pytest.approx(200.0)
        assert kept[0]["spans"] == [{"name": "http.asn"}]

    def test_capacity_bounds_ring(self):
        store = ExemplarStore(threshold=0.0, capacity=3)
        for i in range(10):
            store.offer(endpoint="asn", status=200, latency=0.01, trace_id=str(i))
        kept = [entry["trace_id"] for entry in store.exemplars()]
        assert kept == ["7", "8", "9"]
        stats = store.stats()
        assert stats["retained"] == 3
        assert stats["offered"] == 10

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ExemplarStore(threshold=-1.0)
        with pytest.raises(ConfigError):
            ExemplarStore(capacity=0)


class TestRuntimeSampler:
    def test_sample_once_sets_gauges(self):
        registry = MetricsRegistry()
        sampler = RuntimeSampler(registry=registry, interval=60.0)
        values = sampler.sample_once()
        assert values["threads"] >= 1
        assert registry.value("process_threads") >= 1
        assert sampler.samples == 1

    def test_admission_occupancy_sampled(self):
        from repro.serve.admission import AdmissionController, AdmissionLimits

        registry = MetricsRegistry()
        admission = AdmissionController(
            AdmissionLimits(max_inflight=4, max_queue=8), registry=registry
        )
        sampler = RuntimeSampler(
            registry=registry, interval=60.0, admission=admission
        )
        with admission.admit("asn"):
            values = sampler.sample_once()
        assert values["inflight_occupancy"] == pytest.approx(0.25)
        assert registry.value("serve_admission_inflight_occupancy") == pytest.approx(0.25)

    def test_start_stop(self):
        sampler = RuntimeSampler(registry=MetricsRegistry(), interval=60.0)
        with sampler:
            assert sampler.samples >= 1  # primed on start
        assert sampler._thread is None

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeSampler(registry=MetricsRegistry(), interval=0.0)

    def test_rss_helper_nonnegative(self):
        assert _process_rss_bytes() >= 0

    def test_rss_fallback_reads_macos_bytes_as_bytes(self, monkeypatch):
        """Without /proc, macOS ``ru_maxrss`` (bytes) is not scaled."""
        import builtins
        import resource

        real_open = builtins.open

        def no_proc(path, *args, **kwargs):
            if str(path) == "/proc/self/status":
                raise OSError("no /proc here")
            return real_open(path, *args, **kwargs)

        hundred_mib = 100 * 1024 * 1024
        monkeypatch.setattr(builtins, "open", no_proc)
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(
            resource,
            "getrusage",
            lambda who: SimpleNamespace(ru_maxrss=hundred_mib),
        )
        assert _process_rss_bytes() == hundred_mib


class TestQuantileHelpers:
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 11))
        assert percentile(samples, 0.5) == 6
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 0.99) == 10
        assert percentile([], 0.5) == 0.0

    def test_histogram_quantile_interpolates(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)
        # All mass in the (1, 2] bucket: p50 interpolates inside it.
        assert 1.0 < histogram.quantile(0.5) <= 2.0

    def test_histogram_quantile_empty_and_overflow(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        assert histogram.quantile(0.5) == 0.0
        histogram.observe(100.0)  # lands in +Inf bucket
        assert histogram.quantile(0.99) == 2.0  # clamps to top finite bound

    def test_histogram_summary_keys(self):
        histogram = Histogram(buckets=(0.001, 0.01, 0.1))
        for _ in range(10):
            histogram.observe(0.005)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99"}
        assert summary["count"] == 10.0
        assert summary["mean"] == pytest.approx(0.005)
        assert 0.001 < summary["p50"] <= 0.01

    def test_loadgen_reexport_is_shared(self):
        from repro.serve.loadgen import percentile as loadgen_percentile

        assert loadgen_percentile is percentile
