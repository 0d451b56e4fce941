"""Read-path layer probes for the traced run.

Times calls into ``serve.index``, ``serve.shm`` (blob compile and
reader), ``serve.store`` and ``serve.service`` directly, on the mapping
the workload produced.  Per-operation figures are the median over a few
passes of the mean time per call in that pass.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Sequence

from client import Mix, org_names
from common import Spans, median_of, scratch_dir

LOOKUPS = 4000
SEARCHES = 100
PASSES = 3


def per_call_us(
    spans: Spans, name: str, fn: Callable, args: Sequence, passes: int = PASSES
) -> float:
    """Median over *passes* of the mean µs per ``fn(arg)`` call."""
    means: List[float] = []
    for _ in range(passes):
        with spans.span(name, calls=len(args)):
            started = time.perf_counter()
            for arg in args:
                fn(arg)
            means.append((time.perf_counter() - started) / len(args) * 1e6)
    return median_of(means)


def index_probe(mapping, whois, pdb, spans: Spans, seed: int) -> Dict[str, float]:
    """Index build, blob compile, store swap and per-call read costs."""
    from repro.obs.registry import MetricsRegistry
    from repro.serve import QueryService
    from repro.serve.index import MappingIndex
    from repro.serve.shm.blob import compile_index
    from repro.serve.shm.reader import BlobIndex
    from repro.serve.store import SnapshotStore

    rng = random.Random(seed)
    builds, compiles, swaps = [], [], []
    store = SnapshotStore(registry=MetricsRegistry())
    for _ in range(PASSES):
        with spans.span("index.build") as record:
            index = MappingIndex.build(mapping, whois=whois, pdb=pdb)
        builds.append(record["end"] - record["start"])
        with spans.span("blob.compile") as record:
            blob = compile_index(index)
        compiles.append(record["end"] - record["start"])
        with spans.span("store.swap") as record:
            store.swap(index, source="mapping", label="probe")
        swaps.append(record["end"] - record["start"])
    blob_index = BlobIndex(blob)
    asns = index.asns()
    sample = [rng.choice(asns) for _ in range(LOOKUPS)]
    mix = Mix(asns, org_of=None, names=org_names(index, asns), seed=seed)
    queries = [mix.prefix(rng) for _ in range(SEARCHES)]
    distinct = rng.sample(asns, min(LOOKUPS, len(asns)))

    services = [
        QueryService(store=store, registry=MetricsRegistry()) for _ in range(PASSES)
    ]
    service_us = median_of([
        # A fresh service per pass: every lookup is a response-cache miss.
        per_call_us(spans, "service.lookup", service.lookup_asn, distinct, passes=1)
        for service in services
    ])
    return {
        "index.build_s": median_of(builds),
        "blob.compile_s": median_of(compiles),
        "blob.bytes": float(len(blob)),
        "store.swap_s": median_of(swaps),
        "index.lookup_us": per_call_us(spans, "index.lookup", index.lookup_asn, sample),
        "index.search_us": per_call_us(spans, "index.search", index.search, queries),
        "blob.lookup_us": per_call_us(spans, "blob.lookup", blob_index.lookup_asn, sample),
        "blob.search_us": per_call_us(spans, "blob.search", blob_index.search, queries),
        "service.lookup_us": service_us,
    }


def store_load_probe(mapping, whois, spans: Spans) -> float:
    """Seconds ``SnapshotStore.load_from_release_file`` takes on the
    release of *mapping*."""
    from repro.core.release import save_mapping_as2org
    from repro.obs.registry import MetricsRegistry
    from repro.serve.store import SnapshotStore

    with scratch_dir("load-") as tmp:
        path = tmp / "release.jsonl"
        save_mapping_as2org(mapping, whois, path)
        with spans.span("store.load") as record:
            SnapshotStore(registry=MetricsRegistry()).load_from_release_file(path)
    return record["end"] - record["start"]
