"""One equivalence matrix: the mapping is the same however it is computed.

For each seeded small universe the reference is one cold, unsharded
``BorgesPipeline.run()``.  Every other execution mode is one
parametrized case that must reproduce two byte strings of the
reference:

* the saved mapping (``OrgMapping.save``), and
* the compiled read index (``MappingIndex.build(...).blob``) — identical
  blobs answer every served query identically.

A leg also checks the precondition that makes it meaningful (the crash
really quarantined a shard, the faults really fired, the warm run really
hit the cache), so a mode that silently stops exercising itself fails
here instead of passing vacuously.

The same reference anchors one metamorphic relation of the paper:
dropping any one feature never splits an organization of the full
mapping (more features only merge, §5.3).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    ALL_FEATURES,
    BorgesConfig,
    ResilienceConfig,
    UniverseConfig,
)
from repro.core import ArtifactStore, BorgesPipeline, run_sharded
from repro.core.mapping import OrgMapping
from repro.peeringdb import load_snapshot, save_snapshot
from repro.serve import MappingIndex
from repro.universe import export_universe_streaming, generate_universe
from repro.universe.export_stream import (
    APNIC_FILENAME,
    AS2ORG_FILENAME,
    PDB_FILENAME,
)
from repro.whois import load_as2org_file, save_as2org_file

SEEDS = (3, 11)
ORGS = 100
SRC = Path(__file__).resolve().parent.parent / "src"

#: The warm leg must be served at least this much from the disk cache a
#: different interpreter filled: stage fingerprints are process-stable.
MIN_CACHED_FRACTION = 0.90


@dataclasses.dataclass
class World:
    config: UniverseConfig
    universe: object
    mapping: OrgMapping
    mapping_bytes: bytes
    blob: bytes


def served_bytes(mapping, whois, pdb, tmp_path):
    path = tmp_path / "mapping.json"
    mapping.save(path)
    blob = MappingIndex.build(mapping, whois=whois, pdb=pdb).blob
    return path.read_bytes(), blob


@pytest.fixture(scope="module")
def world(request, tmp_path_factory):
    config = UniverseConfig(seed=request.param, n_organizations=ORGS)
    universe = generate_universe(config)
    reference = BorgesPipeline(universe.whois, universe.pdb, universe.web).run()
    mapping_bytes, blob = served_bytes(
        reference.mapping, universe.whois, universe.pdb,
        tmp_path_factory.mktemp(f"reference-{request.param}"),
    )
    return World(config, universe, reference.mapping, mapping_bytes, blob)


# -- legs: each returns (mapping, whois, pdb) --------------------------------


def sharded(n_shards, workers):
    def leg(world, tmp_path):
        u = world.universe
        result = run_sharded(
            u.whois, u.pdb, u.web, BorgesConfig(), n_shards,
            shard_workers=workers,
        )
        assert not result.degraded
        assert len(result.shard_results) == len(result.partition.shards)
        return result.mapping, u.whois, u.pdb

    return leg


def warm_fresh_interpreter(world, tmp_path):
    """Cold run here fills a disk cache; a new interpreter reads it warm.

    The child gets no ``PYTHONHASHSEED``, so its string-hash salt differs
    from this process's: a fingerprint that leaked ``hash()`` would miss.
    """
    u = world.universe
    cache = tmp_path / "cache"
    BorgesPipeline(
        u.whois, u.pdb, u.web, artifact_store=ArtifactStore(root=cache)
    ).run()
    mapping_path = tmp_path / "warm.json"
    manifest_path = tmp_path / "manifest.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro",
            "--seed", str(world.config.seed), "--orgs", str(ORGS),
            "--telemetry-out", str(manifest_path),
            "run", "--artifact-cache", str(cache),
            "--save-mapping", str(mapping_path),
        ],
        env=env, check=True, capture_output=True, timeout=120,
    )
    stages = json.loads(manifest_path.read_text())["stages"]
    cached = sum(1 for s in stages if s["status"] == "cached")
    assert stages and cached / len(stages) >= MIN_CACHED_FRACTION, stages
    return OrgMapping.load(mapping_path), u.whois, u.pdb


def streamed_export(world, tmp_path):
    """Streamed files equal the full export's, and map to the same answer."""
    full, streamed = tmp_path / "full", tmp_path / "streamed"
    full.mkdir()
    u = world.universe
    save_snapshot(u.pdb, full / PDB_FILENAME)
    save_as2org_file(u.whois, full / AS2ORG_FILENAME)
    u.apnic.save_csv(full / APNIC_FILENAME)
    export_universe_streaming(world.config, streamed)
    for name in (PDB_FILENAME, AS2ORG_FILENAME, APNIC_FILENAME):
        assert (streamed / name).read_bytes() == (full / name).read_bytes(), name
    whois = load_as2org_file(streamed / AS2ORG_FILENAME)
    pdb = load_snapshot(streamed / PDB_FILENAME)
    return BorgesPipeline(whois, pdb, u.web).run().mapping, whois, pdb


def crash_then_resume(world, tmp_path):
    u = world.universe
    checkpoint = tmp_path / "ckpt.jsonl"
    crashed = run_sharded(
        u.whois, u.pdb, u.web,
        BorgesConfig().with_fault_profile("shard-crash"), 4,
        checkpoint_path=checkpoint, shard_retries=1,
    )
    assert crashed.failed_shards, "shard-crash at 4 shards must quarantine"
    resumed = run_sharded(
        u.whois, u.pdb, u.web, BorgesConfig(), 4,
        checkpoint_path=checkpoint, resume=True,
    )
    assert resumed.failed_shards == [] and not resumed.degraded
    # Only the quarantined shards re-ran; the survivors came from the journal.
    assert sorted(resumed.resumed_shards) == sorted(
        set(range(4)) - set(crashed.failed_shards)
    )
    return resumed.mapping, u.whois, u.pdb


def flaky(world, tmp_path):
    """LLM/web faults under the retry budget never reach the output."""
    u = world.universe
    resilience = ResilienceConfig(
        fault_profile="flaky",
        llm_base_delay=0.0, llm_max_delay=0.0,
        web_base_delay=0.0, web_max_delay=0.0,
    )
    config = dataclasses.replace(BorgesConfig(), resilience=resilience)
    result = BorgesPipeline(u.whois, u.pdb, u.web, config).run()
    assert result.degraded is False
    assert sum(result.diagnostics["resilience"]["faults_injected"].values())
    return result.mapping, u.whois, u.pdb


def shard_flaky(world, tmp_path):
    """Shard attempts that crash once are retried into an exact run."""
    u = world.universe
    result = run_sharded(
        u.whois, u.pdb, u.web,
        BorgesConfig().with_fault_profile("shard-flaky"), 4,
        shard_retries=2,
    )
    assert result.failed_shards == [] and result.degraded is False
    assert result.diagnostics["fault_tolerance"]["retry_total"] > 0
    return result.mapping, u.whois, u.pdb


LEGS = {
    **{
        f"sharded-{workers}-{n}": sharded(n, workers)
        for workers in ("thread", "process")
        for n in (1, 2, 3)
    },
    "warm-fresh-interpreter": warm_fresh_interpreter,
    "streamed-export": streamed_export,
    "crash-then-resume": crash_then_resume,
    "flaky": flaky,
    "shard-flaky": shard_flaky,
}


#: Every leg at every seed, plus one more seed for the cheap streamed leg.
CASES = [(seed, leg) for seed in SEEDS for leg in sorted(LEGS)] + [
    (19, "streamed-export")
]


@pytest.mark.parametrize(
    "world, leg", CASES, indirect=["world"], scope="module",
    ids=[f"seed{seed}-{leg}" for seed, leg in CASES],
)
def test_mode_reproduces_reference(world, leg, tmp_path):
    mapping, whois, pdb = LEGS[leg](world, tmp_path)
    mapping_bytes, blob = served_bytes(mapping, whois, pdb, tmp_path)
    assert mapping_bytes == world.mapping_bytes, f"{leg}: mapping differs"
    assert blob == world.blob, f"{leg}: served index differs"


@pytest.mark.parametrize("feature", ALL_FEATURES)
@pytest.mark.parametrize(
    "world", SEEDS, indirect=True, scope="module",
    ids=[f"seed{seed}" for seed in SEEDS],
)
def test_adding_a_feature_never_splits_an_org(world, feature):
    """§5.3's monotonicity: a feature only adds sibling evidence, so every
    org found without it lies inside one org of the full mapping."""
    u = world.universe
    rest = [f for f in ALL_FEATURES if f != feature]
    config = BorgesConfig().with_features(*rest)
    without = BorgesPipeline(u.whois, u.pdb, u.web, config).run().mapping
    # Precondition: the feature really merges something at this seed.
    assert len(without) > len(world.mapping), feature
    split = [
        sorted(cluster)
        for cluster in without.multi_asn_clusters()
        if len({world.mapping.org_index_of(asn) for asn in cluster}) > 1
    ]
    assert not split, f"adding {feature} split {len(split)} orgs: {split[:3]}"
