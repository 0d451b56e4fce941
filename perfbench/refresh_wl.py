"""The ``refresh`` workload: reads beside a ``borges watch``-shaped loop.

Set-up builds what ``borges watch`` builds: a ``SnapshotStore``, an
on-disk ``SnapshotArchive`` and ``RunJournal``, a ``WatchDaemon`` and a
co-hosted in-process ``QueryServer``; then it publishes the bootstrap
generation.  The runner alternates the universes of *seed* and *seed+1*,
loading a fresh, never-digested copy each cycle, so every cycle sees
changed input.  The gate thresholds are opened so every cycle publishes
while the gate still computes its diff.

The timed operation is one publishing ``WatchDaemon.cycle()`` with no
reads: the data-freshness lag.  The traced run times the publish path
layer by layer and adds a busy phase, in which cycles continue while the
closed-loop read mix runs against the co-hosted server in this same
process, so readers and the writer share one interpreter lock.
"""

from __future__ import annotations

import gc
import json
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from client import (
    Connection, Mix, Samples, drive, org_names, scrape_metrics, server_layers,
)
from common import (
    SETUP_REPEATS,
    HostSpeed,
    NoSpans,
    Outcome,
    Spans,
    fresh_datasets,
    generate_inputs,
    mapping_digest,
    median_of,
    peak_rss_mb,
    percentile,
    scratch_dir,
)
from pipeline_wl import digest_layers, pipeline_metrics, traced_pipeline_run

#: Served answers checked against the candidate mapping after each swap.
SWAP_SAMPLE = 50
#: Organizations per refresh universe: a quarter of the default 9,898.
#: At default scale a cycle takes ~4.8 s, so a 12 s run held 3 cycles
#: and the median cycle time spread 11% across seeds; at this scale a
#: run holds ~10x more cycles.
REFRESH_ORGS = 2500


class Timed:
    """Proxy that records a span around every call of *methods*."""

    def __init__(self, target, spans: Spans, name: str, methods) -> None:
        self._target = target
        self._spans = spans
        self._name = name
        self._methods = set(methods)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if attr not in self._methods or not callable(value):
            return value
        spans, name = self._spans, self._name

        def timed(*args, **kwargs):
            with spans.span(name, method=attr):
                return value(*args, **kwargs)

        return timed


@contextmanager
def index_build_timer(spans: Spans):
    """Time the daemon's ``MappingIndex.build`` calls from outside."""
    import repro.watch.daemon as daemon_mod

    original = daemon_mod.MappingIndex

    class TimedIndex:
        @staticmethod
        def build(*args, **kwargs):
            with spans.span("index.build"):
                return original.build(*args, **kwargs)

    daemon_mod.MappingIndex = TimedIndex
    try:
        yield
    finally:
        daemon_mod.MappingIndex = original


class Refresh:
    """One assembled watch stack over a temp dir."""

    def __init__(self, inputs: List[tuple], root: Path, spans) -> None:
        from repro.obs.registry import MetricsRegistry
        from repro.serve import QueryServer, QueryService
        from repro.serve.store import SnapshotStore
        from repro.watch import (
            GateThresholds,
            RunJournal,
            SnapshotArchive,
            WatchConfig,
            WatchDaemon,
        )

        self.inputs = inputs
        self.spans = spans
        self.traced = False
        self.turn = 0
        #: store generation → (archive generation, candidate mapping)
        self.candidates: Dict[int, tuple] = {}
        self.results: List[object] = []
        #: label → the latest mapping computed from that universe
        self.mappings: Dict[str, object] = {}
        self.registry = MetricsRegistry()
        self.store = SnapshotStore(registry=self.registry)
        self.archive = SnapshotArchive(
            root / "archive", max_entries=64, registry=self.registry
        )
        self.journal = RunJournal(root / "archive" / "journal.jsonl")
        self.store.attach_archive(self.archive)
        self.service = QueryService(store=self.store, registry=self.registry)
        opened = GateThresholds(
            max_org_shrink=1.0, max_org_growth=1e9,
            max_coverage_drop=1.0, max_churn=1.0, min_precision=0.0,
        )
        store, archive, journal = self.store, self.archive, self.journal
        if spans.enabled:
            store = Timed(store, spans, "store.swap", {"swap"})
            archive = Timed(archive, spans, "watch.archive_publish", {"publish"})
            journal = Timed(
                journal, spans, "watch.journal",
                {"append", "published_digests", "quarantined_digests"},
            )
        self.daemon = WatchDaemon(
            store, archive, journal, self._run,
            WatchConfig(interval=0.0, thresholds=opened, run_on_unchanged=True),
            registry=self.registry,
        )
        if spans.enabled:
            self.daemon.gate = Timed(self.daemon.gate, spans, "watch.gate", {"evaluate"})
        self.service.attach_watch(self.daemon)
        self.server = QueryServer(self.service, host="127.0.0.1", port=0).start()

    def _run(self):
        """The watch runner: load the next universe, run the pipeline and
        score it against ground truth, as ``borges watch`` does."""
        from repro.core.pipeline import BorgesPipeline
        from repro.digest import dataset_digest, stable_digest
        from repro.metrics.partition import score_partition
        from repro.obs.tracer import get_tracer
        from repro.watch import WatchRunResult

        label, blob, truth, _ = self.inputs[self.turn % len(self.inputs)]
        self.turn += 1
        datasets = fresh_datasets(blob)
        if self.traced:
            result = traced_pipeline_run(datasets, self.spans)
            self.results.append(result)
        else:
            result = BorgesPipeline(*datasets).run()
            get_tracer().reset()
        whois, pdb, _ = datasets
        precision = score_partition(result.mapping.clusters(), truth).pair_precision
        self.last_mapping = result.mapping
        self.mappings[label] = result.mapping
        self.last_llm_requests = result.diagnostics["llm_requests"]
        return WatchRunResult(
            mapping=result.mapping,
            dataset_digest=stable_digest(
                [dataset_digest(whois), dataset_digest(pdb)]
            ),
            label=label,
            whois=whois,
            pdb=pdb,
            precision=precision,
        )

    def cycle(self, outcome: Outcome, phase: str) -> float:
        """One publishing cycle; records its candidate mapping."""
        with self.spans.span("watch.cycle", phase=phase):
            started = time.perf_counter()
            result = self.daemon.cycle()
            elapsed = time.perf_counter() - started
        if outcome.op(result == "published", f"cycle outcome {result}"):
            snapshot = self.store.current()
            self.candidates[snapshot.generation] = (
                snapshot.archive_generation, self.last_mapping
            )
        return elapsed

    def verify_served(self, outcome: Outcome, rng: random.Random) -> None:
        """A sample of served answers matches the candidate just swapped in."""
        generation = self.store.current().generation
        mapping = self.candidates[generation][1]
        asns = sorted(asn for cluster in mapping.clusters() for asn in cluster)
        conn = Connection("127.0.0.1", self.server.port)
        try:
            for asn in rng.sample(asns, min(SWAP_SAMPLE, len(asns))):
                status, body = conn.request("GET", f"/v1/asn/{asn}")
                answer = json.loads(body) if status == 200 else {}
                if (
                    answer.get("generation") != generation
                    or answer["org"]["members"] != sorted(mapping.cluster_of(asn))
                ):
                    outcome.wrong(
                        f"gen {generation}: /v1/asn/{asn} answered {status}, "
                        "not the candidate mapping's org"
                    )
        finally:
            conn.close()

    def verify_archive(self, outcome: Outcome) -> None:
        """Every retained published generation reads back from the
        archive with its digest verified and equals its candidate."""
        from repro.core.mapping import OrgMapping

        retained = set(self.archive.generations())
        for archive_generation, mapping in sorted(self.candidates.values()):
            if archive_generation not in retained:
                continue
            entry = self.archive.read(archive_generation)  # verifies digests
            archived = OrgMapping.from_json(entry["mapping"])
            if mapping_digest(archived) != mapping_digest(mapping):
                outcome.wrong(f"archive gen {archive_generation} != candidate")

    def stop(self) -> None:
        self.server.stop()


class GenerationChecker:
    """Reads beside refresh: status at once; ASN answers against the
    candidate mapping of the generation that served them, afterwards."""

    def __init__(self) -> None:
        self.seen: List[tuple] = []
        self.lock = threading.Lock()

    def __call__(self, endpoint, arg, status, body) -> Optional[str]:
        expected = 404 if endpoint == "unknown" else 200
        if status != expected:
            return f"status {status}, expected {expected}"
        if endpoint == "asn":
            answer = json.loads(body)
            with self.lock:
                self.seen.append((arg, answer["generation"], answer["org"]["members"]))
        return None

    def verify(self, candidates, outcome: Outcome) -> None:
        for asn, generation, members in self.seen:
            mapping = candidates.get(generation, (0, None))[1]
            if mapping is None:
                outcome.wrong(f"read served unrecorded generation {generation}")
            elif members != sorted(mapping.cluster_of(asn)):
                outcome.wrong(f"gen {generation}: /v1/asn/{asn} members differ")


def load_inputs(seed: int, orgs, spans) -> tuple:
    """(label, pickled datasets, ground-truth clusters, ASNs) of one seed."""
    with spans.span("universe.generate"):
        universe, blob, _ = generate_inputs(seed, orgs)
    return (
        f"seed={seed}", blob, universe.ground_truth.true_clusters(),
        universe.whois.asns(),
    )


def reads_beside_refresh(
    refresh: Refresh, seed: int, seconds: float, outcome: Outcome
) -> Dict[str, object]:
    """Publish cycles back to back while the read mix runs for *seconds*.

    Reads target ASNs both alternating universes hold, so every answer
    is defined whichever generation serves it.
    """
    index = refresh.store.current().index
    asn_sets = [set(asns) for *_, asns in refresh.inputs]
    common = sorted(set.intersection(*asn_sets))
    mix = Mix(
        common,
        org_of=None,
        names=org_names(index, common),
        seed=seed,
        known=sorted(set.union(*asn_sets)),
    )
    checker = GenerationChecker()
    samples = Samples()
    done: Dict[str, float] = {}

    def reads() -> None:
        done["elapsed"] = drive(
            "127.0.0.1", refresh.server.port, mix, seconds, checker,
            outcome, samples, NoSpans(), stream=1,
        )

    cycles: List[float] = []
    reader = threading.Thread(target=reads, daemon=True)
    reader.start()
    while reader.is_alive():
        refresh.traced = False
        cycles.append(refresh.cycle(outcome, "busy"))
    reader.join(60)
    checker.verify(refresh.candidates, outcome)
    return {"samples": samples, "elapsed": done["elapsed"], "cycles": cycles}


def run_refresh(
    seed: int, seconds: float, trace: bool, orgs=None,
    setup_repeats: int = SETUP_REPEATS, min_untraced: int = 2,
) -> Dict:
    orgs = REFRESH_ORGS if orgs is None else orgs
    spans = Spans() if trace else NoSpans()
    outcome = Outcome()
    host = HostSpeed()
    rng = random.Random(seed)
    setups: List[float] = []
    plain: List[float] = []
    traced: List[float] = []
    layers: Dict[str, float] = {}
    metrics = None
    refresh = None
    with scratch_dir("refresh-") as tmp:
        try:
            # Set-up: this seed's universe, the stack, the first publish.
            for attempt in range(setup_repeats):
                if refresh is not None:
                    refresh.stop()
                    refresh = None
                gc.collect()
                host.sample()
                started = time.perf_counter()
                inputs = [load_inputs(seed, orgs, spans)]
                refresh = Refresh(inputs, tmp / f"setup-{attempt}", spans)
                refresh.cycle(outcome, "bootstrap")
                setups.append(time.perf_counter() - started)
            # The alternate universe: generated once, not timed.
            inputs.append(load_inputs(seed + 1, orgs, NoSpans()))
            gc.collect()
            # Quiet phase: publishing cycles, no reads; each is one op.
            # Traced runs alternate traced and untraced cycles, then add
            # the busy phase.
            with index_build_timer(spans) if trace else nullcontext():
                deadline = time.perf_counter() + seconds
                cycle = 0
                while time.perf_counter() < deadline or len(plain) < min_untraced:
                    refresh.traced = trace and cycle % 2 == 0
                    gc.collect()
                    host.sample()
                    elapsed = refresh.cycle(outcome, "quiet")
                    (traced if refresh.traced else plain).append(elapsed)
                    refresh.verify_served(outcome, rng)
                    cycle += 1
                if trace:
                    busy = reads_beside_refresh(refresh, seed, seconds / 2.0, outcome)
                    metrics = scrape_metrics("127.0.0.1", refresh.server.port)
            refresh.verify_archive(outcome)
        finally:
            if refresh is not None:
                refresh.stop()

    if trace:
        samples: Samples = busy["samples"]
        values = samples.all()
        layers.update(quiet_layers(spans, refresh.results))
        layers.update(server_layers(metrics, samples))
        layers.update(digest_layers(inputs[0][1], spans))
        layers["universe.generate_s"] = spans.median("universe.generate")
        layers["watch.cycle_busy_s"] = median_of(busy["cycles"])
        layers["watch.cycles_busy"] = float(len(busy["cycles"]))
        layers["watch.read_p50_ms"] = percentile(values, 50) * 1e3
        layers["watch.read_p99_ms"] = percentile(values, 99) * 1e3
        layers["watch.read_qps"] = len(values) / busy["elapsed"]
        if plain:  # a short pass that only fills layers has no untraced cycle
            layers["trace.overhead_pct"] = 100.0 * (
                median_of(traced) / median_of(plain) - 1.0
            )
    return {
        "setups": setups,
        "ops": plain,
        "host": host,
        "outcome": outcome,
        "peak_rss_mb": peak_rss_mb(),
        "mapping": refresh.mappings[inputs[0][0]],
        "blob": inputs[0][1],
        "layers": layers,
        "spans": spans,
        "llm_requests": refresh.last_llm_requests,
        "stage_records": [],
        "metrics_scrape": metrics,
    }


def quiet_layers(spans: Spans, results) -> Dict[str, float]:
    """Publish-path layers: per quiet cycle, the time spent in each."""
    quiet = [
        r for r in spans.records
        if r["name"] == "watch.cycle" and r["attrs"].get("phase") == "quiet"
    ]

    def per_cycle(name: str) -> float:
        return median_of([
            sum(
                float(r["end"]) - float(r["start"])
                for r in spans.records
                if r["name"] == name and c["start"] <= r["start"] <= c["end"]
            )
            for c in quiet
        ])

    layers = {
        key: per_cycle(name)
        for key, name in (
            ("watch.gate_s", "watch.gate"),
            ("watch.archive_publish_s", "watch.archive_publish"),
            ("watch.journal_s", "watch.journal"),
            ("store.swap_s", "store.swap"),
            ("index.build_s", "index.build"),
        )
    }
    layers.update(pipeline_metrics(results, spans))
    return layers
