"""The ``serve`` workload: a real ``borges serve`` subprocess on a release.

Set-up generates the universe, runs the pipeline, writes the release
file, starts ``python -m repro serve --snapshot <release>`` and waits for
its first answer.  The benchmark process then drives the read mix over
keep-alive connections and checks every answer against a
``MappingIndex`` it loads from the same release.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from client import Mix, Samples, drive, org_names, scrape_metrics, server_layers
from common import (
    ROOT,
    SETUP_REPEATS,
    BenchError,
    HostSpeed,
    NoSpans,
    Outcome,
    Spans,
    fresh_datasets,
    generate_inputs,
    scratch_dir,
    vm_hwm_mb,
)
from pipeline_wl import digest_layers, pipeline_metrics, traced_pipeline_run

#: Untimed warm-up before measuring, so the response LRU holds the hot
#: ASNs as it would on a server that has been up for a while.
WARMUP_SECONDS = 1.0
SERVER_START_TIMEOUT = 60.0
#: Host-speed probes taken just before and just after the timed window
#: (never during it, where they would compete with client and server).
HOST_SAMPLES = 10


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, from this checkout."""

    def __init__(self, release: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshot", str(release), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.output: List[str] = []
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        self.port = 0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.output.append(line.rstrip())
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        if not self.port:
            self.stop()
            raise BenchError("server did not start:\n" + "\n".join(self.output))
        self.host = "127.0.0.1"

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


class ReleaseChecker:
    """Expected answers from an in-process ``MappingIndex`` over the
    release, compared field by field with what the server sent."""

    def __init__(self, index, generation: int) -> None:
        self.index = index
        self.generation = generation
        self._cache: Dict[tuple, object] = {}

    def _asn(self, asn: int) -> dict:
        key = ("asn", asn)
        if key not in self._cache:
            self._cache[key] = dict(
                self.index.lookup_asn(asn).to_json(), generation=self.generation
            )
        return self._cache[key]

    def expected(self, endpoint: str, arg) -> dict:
        index = self.index
        if endpoint == "asn":
            return self._asn(arg)
        if endpoint == "org":
            return dict(index.org(arg).to_json(), generation=self.generation)
        if endpoint == "siblings":
            record = index.lookup_asn(arg)
            return {
                "asn": arg,
                "org_id": record.org.org_id,
                "siblings": [m for m in record.org.members if m != arg],
                "generation": self.generation,
            }
        if endpoint == "search":
            key = ("search", arg)
            if key not in self._cache:
                self._cache[key] = {
                    "query": arg,
                    "results": [r.to_json() for r in index.search(arg, limit=10)],
                    "generation": self.generation,
                }
            return self._cache[key]
        if endpoint == "batch":
            return {"results": [self._asn(a) for a in arg]}
        raise ValueError(endpoint)

    def __call__(self, endpoint: str, arg, status: int, body: bytes) -> Optional[str]:
        if endpoint == "unknown":
            return None if status == 404 else f"status {status} for unknown ASN"
        if status != 200:
            return f"status {status}"
        if json.loads(body) != self.expected(endpoint, arg):
            return "answer differs from the release's MappingIndex"
        return None


def first_answer(server: ServerProcess, asn: int) -> dict:
    from client import Connection

    conn = Connection(server.host, server.port)
    try:
        status, body = conn.request("GET", f"/v1/asn/{asn}")
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"first request answered {status}")
    return json.loads(body)


def bootstrap_release(seed: int, orgs, tmp: Path, spans, trace: bool):
    """Generate, run the pipeline, write the release: (path, universe, blob, result)."""
    from repro.core.pipeline import BorgesPipeline
    from repro.core.release import save_mapping_as2org

    with spans.span("universe.generate"):
        universe, blob, _ = generate_inputs(seed, orgs)
    if trace:
        result = traced_pipeline_run(fresh_datasets(blob), spans)
    else:
        result = BorgesPipeline(*fresh_datasets(blob)).run()
        from repro.obs.tracer import get_tracer

        get_tracer().reset()
    path = tmp / f"release-{seed}.jsonl"
    with spans.span("release.write"):
        save_mapping_as2org(result.mapping, universe.whois, path)
    return path, universe, blob, result


def run_serve(
    seed: int,
    seconds: float,
    trace: bool,
    orgs=None,
    served_seed: Optional[int] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Dict:
    """Serve the release of *served_seed* (default *seed*) and check the
    answers against the release of *seed*: a different served seed must
    make the check fail."""
    from repro.obs.registry import MetricsRegistry
    from repro.serve.store import SnapshotStore

    spans = Spans() if trace else NoSpans()
    outcome = Outcome()
    host = HostSpeed()
    setups: List[float] = []
    with scratch_dir("serve-") as tmp:
        server = None
        try:
            for attempt in range(setup_repeats):
                if server is not None:
                    server.stop()
                    server = None
                gc.collect()
                host.sample()
                started = time.perf_counter()
                release, universe, blob, result = bootstrap_release(
                    seed, orgs, tmp, spans, trace
                )
                served, served_universe = release, universe
                if served_seed is not None and served_seed != seed:
                    served, served_universe, *_ = bootstrap_release(
                        served_seed, orgs, tmp, NoSpans(), False
                    )
                with spans.span("server.start"):
                    server = ServerProcess(served)
                    answer = first_answer(
                        server, served_universe.whois.asns()[0]
                    )
                setups.append(time.perf_counter() - started)
                del universe, served_universe

            with spans.span("store.load"):
                snapshot = SnapshotStore(
                    registry=MetricsRegistry()
                ).load_from_release_file(release)
            index = snapshot.index
            checker = ReleaseChecker(index, int(answer["generation"]))
            asns = index.asns()
            mix = Mix(
                asns,
                org_of=lambda asn: index.org_of(asn).org_id,
                names=org_names(index, asns),
                seed=seed,
            )
            host.sample(HOST_SAMPLES)
            drive(server.host, server.port, mix, WARMUP_SECONDS, checker,
                  Outcome(), Samples(), NoSpans(), stream=0)
            samples = Samples()
            plain = Samples()
            elapsed = 0.0
            if trace:
                # Alternate untraced and traced windows for the overhead.
                window = seconds / 4.0
                for phase in range(4):
                    traced = phase % 2 == 1
                    with spans.span("serve.mix") if traced else nullcontext():
                        elapsed += drive(
                            server.host, server.port, mix, window, checker,
                            outcome, samples if traced else plain,
                            spans if traced else NoSpans(), stream=phase + 1,
                        )
            else:
                elapsed = drive(server.host, server.port, mix, seconds, checker,
                                outcome, samples, spans, stream=1)
            host.sample(HOST_SAMPLES)
            metrics = scrape_metrics(server.host, server.port) if trace else None
            rss = vm_hwm_mb(server.pid)
        finally:
            if server is not None:
                server.stop()

    layers: Dict[str, float] = {}
    if trace:
        combined = Samples()
        for source in (plain, samples):
            for endpoint, values in source.by_endpoint.items():
                for value in values:
                    combined.add(endpoint, value)
        layers.update(server_layers(metrics, combined))
        layers.update(pipeline_metrics([result], spans))
        layers["universe.generate_s"] = spans.median("universe.generate")
        layers["store.load_s"] = spans.median("store.load")
        layers.update(digest_layers(blob, spans))
        layers["trace.overhead_pct"] = 100.0 * (
            samples.p50_ms() / plain.p50_ms() - 1.0
        )
        ops = samples.all() + plain.all()
    else:
        ops = samples.all()
    return {
        "setups": setups,
        "ops": ops,
        "measured_seconds": elapsed,
        "host": host,
        "outcome": outcome,
        "peak_rss_mb": rss,
        "mapping": result.mapping,
        "blob": blob,
        "layers": layers,
        "spans": spans,
        "llm_requests": result.diagnostics["llm_requests"],
        "stage_records": result.stage_records,
        "metrics_scrape": metrics,
    }
