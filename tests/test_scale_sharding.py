"""Scale features: sharded stage-DAG execution + streaming generation.

The contract under test is *exactness*: sharding and streaming are pure
execution strategies.  A sharded run's mapping must be byte-identical
to the single-shot run's, and a streamed export's files byte-identical
to the collect-all export's — for any shard count, chunk size and seed.
Those identities across every execution mode at once are the matrix in
``tests/test_equivalence.py``; this file covers the partitioner, the
reduce, chunking and the CLI surface.
"""

from __future__ import annotations


import pytest

from repro.config import BorgesConfig, UniverseConfig
from repro.core import (
    BorgesPipeline,
    merge_clusters,
    partition_universe,
    reduce_shard_clusters,
    run_sharded,
    validate_partition,
)
from repro.digest import stable_digest
from repro.obs import PEAK_RSS_GAUGE, MetricsRegistry, Tracer
from repro.universe import (
    export_universe_streaming,
    generate_universe,
)
from repro.universe.stream import (
    assemble_universe,
    build_plan,
    materialize_chunk,
    stream_chunks,
)

SMALL = UniverseConfig(seed=3, n_organizations=100)


def mapping_bytes(mapping, tmp_path, name):
    path = tmp_path / name
    mapping.save(path)
    return path.read_bytes()


# -- partitioner ------------------------------------------------------------


def test_partition_is_exact_cover(universe):
    plan = partition_universe(universe.whois, universe.pdb, universe.web, 4)
    validate_partition(plan, universe.whois.asns())
    assert len(plan.shards) == 4
    assert plan.n_asns >= len(universe.whois)
    assert sum(len(shard) for shard in plan.shards) == plan.n_asns
    assert sum(shard.components for shard in plan.shards) == plan.n_components


def test_partition_is_balanced(universe):
    plan = partition_universe(universe.whois, universe.pdb, universe.web, 4)
    sizes = sorted(len(shard) for shard in plan.shards)
    # Greedy largest-first packing: no shard exceeds the smallest by
    # more than one largest component.
    assert sizes[-1] - sizes[0] <= plan.largest_component


def test_partition_with_more_shards_than_components(universe):
    plan = partition_universe(
        universe.whois, universe.pdb, universe.web, 10_000
    )
    validate_partition(plan, universe.whois.asns())
    assert len(plan.shards) <= plan.n_components
    summary = plan.summary()
    assert summary["requested_shards"] == 10_000
    assert summary["shards"] == len(plan.shards)


def test_partition_bridges_out_of_universe_numbers():
    # Regression: two nets whose notes share a number that is NOT a
    # universe ASN must co-shard.  The merge stage unions raw extraction
    # clusters before OrgMapping drops non-universe members, so the
    # bogus number transitively bridges the two clusters in a
    # single-shot run — first seen as a 2-org divergence at 100k ASNs.
    from repro.core.partition import connected_components
    from repro.peeringdb import Network, Organization, PDBSnapshot
    from repro.whois import ASNDelegation, WhoisDataset, WhoisOrg

    whois = WhoisDataset.build(
        orgs=[
            WhoisOrg(org_id="WO-A", name="Org A"),
            WhoisOrg(org_id="WO-B", name="Org B"),
        ],
        delegations=[
            ASNDelegation(asn=100001, org_id="WO-A"),
            ASNDelegation(asn=100101, org_id="WO-B"),
        ],
    )
    pdb = PDBSnapshot.build(
        orgs=[
            Organization(org_id=1, name="Org A"),
            Organization(org_id=2, name="Org B"),
        ],
        nets=[
            Network(asn=100001, name="Net A", org_id=1,
                    notes="formerly operated as 1996"),
            Network(asn=100101, name="Net B", org_id=2,
                    notes="sibling of network 1996"),
        ],
    )
    assert 1996 not in whois.asns()
    components = connected_components(whois, pdb, None)
    assert [100001, 100101] in components


def test_partition_rejects_bad_shard_count(universe):
    with pytest.raises(Exception):
        partition_universe(universe.whois, universe.pdb, universe.web, 0)


# -- sharded execution: byte identity ---------------------------------------


def test_sharded_mapping_byte_identical(universe, borges_result, tmp_path):
    reference = mapping_bytes(borges_result.mapping, tmp_path, "ref.json")
    for n_shards in (2, 4, 7):
        result = run_sharded(
            universe.whois,
            universe.pdb,
            universe.web,
            BorgesConfig(),
            n_shards=n_shards,
        )
        produced = mapping_bytes(
            result.mapping, tmp_path, f"sharded-{n_shards}.json"
        )
        assert produced == reference, f"shards={n_shards} diverged"
        assert not result.degraded
        assert len(result.shard_results) == len(result.partition.shards)


def test_sharded_respects_stage_subset(universe, tmp_path):
    config = BorgesConfig()
    single = BorgesPipeline(universe.whois, universe.pdb, universe.web, config)
    reference = mapping_bytes(
        single.run(stages=["oid_p"]).mapping, tmp_path, "ref.json"
    )
    result = run_sharded(
        universe.whois,
        universe.pdb,
        universe.web,
        config,
        n_shards=3,
        stages=["oid_p"],
    )
    assert mapping_bytes(result.mapping, tmp_path, "sub.json") == reference


# -- sharded execution: observability ---------------------------------------


def test_sharded_metrics_and_diagnostics(universe):
    registry = MetricsRegistry()
    tracer = Tracer()
    result = run_sharded(
        universe.whois,
        universe.pdb,
        universe.web,
        BorgesConfig(),
        n_shards=3,
        registry=registry,
        tracer=tracer,
    )
    assert registry.value("pipeline_shards") == 3
    for shard in range(3):
        assert (
            registry.value(
                "pipeline_stage_runs_total",
                shard=str(shard),
                stage="merge",
                outcome="ok",
            )
            == 1
        )
    assert registry.value(PEAK_RSS_GAUGE) > 0

    diagnostics = result.diagnostics
    assert diagnostics["partition"]["shards"] == 3
    assert len(diagnostics["shards"]) == 3
    assert diagnostics["peak_rss_bytes"] > 0
    assert diagnostics["llm_requests"] > 0
    shards_seen = {record["shard"] for record in result.stage_records}
    assert shards_seen == {0, 1, 2}

    names = [span.name for span in tracer.spans()]
    assert "pipeline.sharded" in names
    sharded = next(s for s in tracer.spans() if s.name == "pipeline.sharded")
    child_names = {child.name for child in sharded.children}
    assert "pipeline.partition" in child_names
    assert "pipeline.reduce" in child_names


def test_sharded_warm_rerun_is_cached_per_shard(universe, tmp_path):
    from repro.core import ArtifactStore

    store = ArtifactStore(root=tmp_path / "cache")
    config = BorgesConfig()
    first = run_sharded(
        universe.whois, universe.pdb, universe.web, config,
        n_shards=2, artifact_store=store,
    )
    assert all(r["status"] == "ok" for r in first.stage_records)
    second = run_sharded(
        universe.whois, universe.pdb, universe.web, config,
        n_shards=2, artifact_store=store,
    )
    assert all(r["status"] == "cached" for r in second.stage_records)
    assert mapping_bytes(second.mapping, tmp_path, "second.json") == (
        mapping_bytes(first.mapping, tmp_path, "first.json")
    )


# -- the associative reduce -------------------------------------------------


def test_reduce_shard_clusters_matches_global_merge():
    shard_a = [[1, 2], [3, 4, 5]]
    shard_b = [[6, 7], [8]]
    shard_c = [[9, 10], [11, 12]]
    global_merge = merge_clusters([shard_a, shard_b, shard_c])
    reduced = reduce_shard_clusters(
        [merge_clusters([shard]) for shard in (shard_a, shard_b, shard_c)]
    )
    assert reduced == global_merge


def test_reduce_tolerates_cross_shard_overlap():
    # Defense in depth: an imperfect partition (clusters sharing ASNs
    # across shards) must degrade to correct-but-slower, never wrong.
    reduced = reduce_shard_clusters([[[1, 2]], [[2, 3]], [[4]]])
    assert frozenset({1, 2, 3}) in reduced
    assert frozenset({4}) in reduced


# -- restricted datasets ----------------------------------------------------


def test_pdb_restricted_to(universe):
    pdb = universe.pdb
    keep = sorted(pdb.nets)[: len(pdb.nets) // 2]
    sub = pdb.restricted_to(keep)
    assert sorted(sub.nets) == sorted(keep)
    for asn in keep:
        assert sub.nets[asn] == pdb.nets[asn]
    assert set(sub.orgs) == {net.org_id for net in sub.nets.values()}
    assert sub.meta == pdb.meta


# -- streaming generation ---------------------------------------------------


def test_generate_equals_assembled_stream():
    generated = generate_universe(SMALL)
    plan = build_plan(SMALL)
    streamed = assemble_universe(plan, stream_chunks(plan))
    assert streamed.whois.content_digest() == generated.whois.content_digest()
    assert streamed.pdb.content_digest() == generated.pdb.content_digest()
    assert streamed.web.content_digest() == generated.web.content_digest()
    assert streamed.apnic.to_csv() == generated.apnic.to_csv()


def test_chunks_materialize_independently():
    plan = build_plan(SMALL, chunk_size=20)
    assert plan.n_chunks > 2
    for index in (0, 1, plan.n_chunks - 1):
        first = materialize_chunk(plan, index)
        again = materialize_chunk(plan, index)
        assert stable_digest(
            [d.to_json() for d in first.delegations]
        ) == stable_digest([d.to_json() for d in again.delegations])
        assert stable_digest(
            [n.to_json() for n in first.nets]
        ) == stable_digest([n.to_json() for n in again.nets])


# -- streaming export -------------------------------------------------------

DATASET_FILES = (
    "peeringdb_snapshot.json",
    "as2org.jsonl",
    "apnic_population.csv",
)


def test_streaming_export_chunk_size_invariant(tmp_path):
    default = tmp_path / "default"
    tiny = tmp_path / "tiny"
    export_universe_streaming(SMALL, default)
    plan = build_plan(SMALL, chunk_size=13)
    assert plan.n_chunks > 3
    export_universe_streaming(SMALL, tiny, plan=plan)
    for name in DATASET_FILES:
        assert (tiny / name).read_bytes() == (default / name).read_bytes()


def test_streaming_export_roundtrips(tmp_path):
    from repro.peeringdb import load_snapshot
    from repro.whois import load_as2org_file

    export_universe_streaming(SMALL, tmp_path)
    generated = generate_universe(SMALL)
    whois = load_as2org_file(tmp_path / "as2org.jsonl")
    pdb = load_snapshot(tmp_path / "peeringdb_snapshot.json")
    assert whois.content_digest() == generated.whois.content_digest()
    assert pdb.content_digest() == generated.pdb.content_digest()


# -- CLI --------------------------------------------------------------------


def test_cli_run_sharded(capsys):
    from repro.cli import main

    assert main(
        ["--seed", "5", "--orgs", "100", "run", "--shards", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "shards: 2 (requested 2)" in out
    assert "peak rss:" in out


@pytest.mark.parametrize(
    "extra, expected",
    [
        ([], "full"),  # unsharded: the full universe, once
        (["--shards", "2"], "shards"),  # sharded: each shard's slice only
        (["--shards", "2", "--explain-plan"], "full"),  # the plan needs it
    ],
)
def test_cli_run_digests_only_what_it_runs(monkeypatch, capsys, extra, expected):
    import repro.core.pipeline as pipeline_mod
    from repro.cli import main

    sizes = []
    real = pipeline_mod.dataset_digest

    def spy(obj):
        if hasattr(obj, "delegations"):
            sizes.append(len(obj.delegations))
        return real(obj)

    monkeypatch.setattr(pipeline_mod, "dataset_digest", spy)
    assert main(["--seed", "5", "--orgs", "100", "run"] + extra) == 0
    full = len(generate_universe(UniverseConfig(seed=5, n_organizations=100)).whois)
    if expected == "full":
        assert sizes == [full]
    else:
        assert len(sizes) == 2 and sum(sizes) == full
    out = capsys.readouterr().out
    assert ("(* = backbone stage" in out) == ("--explain-plan" in extra)


def test_cli_generate_stream_matches_plain(tmp_path, capsys):
    from repro.cli import main

    plain = tmp_path / "plain"
    streamed = tmp_path / "streamed"
    assert main(
        ["--seed", "5", "--orgs", "100", "generate", "--out", str(plain)]
    ) == 0
    assert "peak_rss_mib" in capsys.readouterr().out
    assert main(
        [
            "--seed", "5", "--orgs", "100",
            "generate", "--stream", "--out", str(streamed),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "[streamed]" in out
    for name in DATASET_FILES:
        assert (streamed / name).read_bytes() == (plain / name).read_bytes()
