"""The stage DAG: topology, caching, degradation, determinism.

Covers the executor-level guarantees the old hand-written pipeline flow
could not make:

* a favicon-stage failure leaves rr intact *without re-running scrape*
  (the old code salvaged rr by re-running the whole web module);
* a backbone failure (oid_w) still aborts the run;
* every stage runs on the calling thread, in graph order;
* two identical runs produce byte-identical artifacts and manifests;
* the Table-6 sweep computes the shared scrape and NER extraction
  exactly once across all 16 feature combinations;
* a warm re-run is served entirely from cache and reproduces the same
  mapping and θ;
* a cold run builds no artifact bytes until something reads them, and
  then builds the bytes an eager encode would have.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.analysis import factor_combination_table
from repro.cli import main as cli_main
from repro.config import (
    TEST_UNIVERSE,
    BorgesConfig,
    ExecutorConfig,
    UniverseConfig,
)
from repro.core import ArtifactStore, BorgesPipeline, build_stage_graph
from repro.core import executor as executor_mod
from repro.core import pipeline as pipeline_mod
from repro.core import stages as stages_mod
from repro.core.mapping import OrgMapping
from repro.core.web_inference import WebInferenceModule
from repro.metrics import org_factor_from_mapping
from repro.universe import generate_universe


@pytest.fixture(scope="module")
def small_universe():
    return generate_universe(TEST_UNIVERSE)


def make_pipeline(universe, store=None, config=None, **kwargs):
    return BorgesPipeline(
        universe.whois, universe.pdb, universe.web,
        config=config, artifact_store=store, **kwargs,
    )


# ---------------------------------------------------------------------------
# Graph topology


class TestGraphTopology:
    def test_full_graph_shape(self):
        graph = build_stage_graph(BorgesConfig())
        assert list(graph) == [
            "oid_w", "oid_p", "ner_extract", "notes_aka",
            "scrape", "rr", "favicons", "merge",
        ]
        assert graph["rr"].deps == ("scrape",)
        assert graph["favicons"].deps == ("scrape",)
        assert graph["notes_aka"].deps == ("ner_extract",)
        assert graph["merge"].deps == (
            "oid_w", "oid_p", "notes_aka", "rr", "favicons"
        )
        assert graph["oid_w"].backbone and graph["merge"].backbone
        assert not graph["merge"].require_all_deps

    def test_feature_subset_prunes_stages(self):
        graph = build_stage_graph(BorgesConfig().with_features("rr"))
        assert list(graph) == ["oid_w", "scrape", "rr", "merge"]
        assert graph["merge"].deps == ("oid_w", "rr")

    def test_notes_aka_pulls_ner_extract(self):
        graph = build_stage_graph(BorgesConfig().with_features("notes_aka"))
        assert list(graph) == ["oid_w", "ner_extract", "notes_aka", "merge"]

    def test_targets_keep_transitive_deps_and_backbone(self):
        graph = build_stage_graph(BorgesConfig(), targets=["favicons"])
        assert list(graph) == ["oid_w", "scrape", "favicons", "merge"]
        assert graph["merge"].deps == ("oid_w", "favicons")

    def test_unknown_target_is_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            build_stage_graph(BorgesConfig(), targets=["nonsense"])


# ---------------------------------------------------------------------------
# Degraded runs


class TestDegradedRuns:
    def test_favicon_failure_leaves_rr_intact_without_rerun(
        self, small_universe, monkeypatch
    ):
        def boom(self, by_final):
            raise RuntimeError("favicon API on fire")

        monkeypatch.setattr(WebInferenceModule, "favicon_stage", boom)
        store = ArtifactStore()
        result = make_pipeline(small_universe, store=store).run()

        assert result.degraded is True
        assert "favicons" in result.feature_errors
        assert "rr" in result.features and result.features["rr"].clusters
        # The DAG property the old salvage path couldn't give: scrape and
        # rr each ran exactly once — the favicon failure triggered no
        # re-execution of anything upstream or sibling.
        assert store.counters["scrape"]["computed"] == 1
        assert store.counters["rr"]["computed"] == 1
        statuses = {r["stage"]: r["status"] for r in result.stage_records}
        assert statuses["favicons"] == "failed"
        assert statuses["rr"] == "ok" and statuses["scrape"] == "ok"
        assert statuses["merge"] == "ok"  # consolidates the survivors

    def test_backbone_failure_aborts_the_run(self, small_universe, monkeypatch):
        def boom(whois):
            raise RuntimeError("whois backbone gone")

        monkeypatch.setattr(stages_mod, "oid_w_clusters", boom)
        with pytest.raises(RuntimeError, match="whois backbone gone"):
            make_pipeline(small_universe).run()

    def test_ner_failure_degrades_notes_aka_only(
        self, small_universe, monkeypatch
    ):
        from repro.core.ner import NERModule

        def boom(self, pdb):
            raise RuntimeError("LLM unreachable")

        monkeypatch.setattr(NERModule, "run", boom)
        result = make_pipeline(small_universe).run()
        assert result.degraded is True
        assert "notes_aka" in result.feature_errors
        for survivor in ("oid_w", "oid_p", "rr", "favicons"):
            assert survivor in result.features
        statuses = {r["stage"]: r["status"] for r in result.stage_records}
        assert statuses["ner_extract"] == "failed"
        assert statuses["notes_aka"] == "skipped"


# ---------------------------------------------------------------------------
# Execution thread


def test_stages_run_on_the_calling_thread(small_universe, monkeypatch):
    import repro.core.pipeline as pipeline_mod

    seen = {}
    original = pipeline_mod.build_stage_graph

    def recording(spec):
        def produce(ctx, inputs):
            seen[spec.name] = (
                threading.get_ident(),
                [t.name for t in threading.enumerate()
                 if t.name.startswith("borges-stage")],
            )
            return spec.produce(ctx, inputs)

        return dataclasses.replace(spec, produce=produce)

    def graph(*args, **kwargs):
        specs = original(*args, **kwargs)
        for name, spec in specs.items():
            specs[name] = recording(spec)
        return specs

    monkeypatch.setattr(pipeline_mod, "build_stage_graph", graph)
    make_pipeline(small_universe).run()
    assert list(seen) == list(stages_mod.ALL_STAGES)  # graph order
    caller = threading.get_ident()
    assert {name: ident for name, (ident, _) in seen.items()} == {
        name: caller for name in seen
    }
    assert not any(pool for _, pool in seen.values())


# ---------------------------------------------------------------------------
# Codec canonicality


def exact(value):
    """*value* with everything equality may ignore made explicit: dict
    order, sequence types, dataclass types, and OrgMapping by to_json()."""
    if isinstance(value, OrgMapping):
        return ("OrgMapping", exact(value.to_json()))
    if isinstance(value, dict):
        return ("dict", [(k, exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(v) for v in value])
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [(f.name, exact(getattr(value, f.name)))
             for f in dataclasses.fields(value)],
        )
    return (type(value).__name__, value)


@pytest.mark.parametrize("seed", [3, 11])  # the equivalence-matrix seeds
def test_produce_is_canonical(seed):
    # A computed value goes downstream without a codec round trip, so it
    # must already be what decode(encode(value)) rebuilds on a cache hit.
    universe = generate_universe(UniverseConfig(seed=seed, n_organizations=100))
    pipeline = make_pipeline(universe)
    executor = pipeline._make_executor(ArtifactStore())
    outcome = executor.execute()
    assert set(outcome.values) == set(stages_mod.ALL_STAGES)
    for name, spec in executor.graph.items():
        assert outcome.records[name].source == "computed", name
        value = outcome.values[name]
        decoded = spec.decode(spec.encode(value), executor.ctx)
        assert exact(decoded) == exact(value), name


# ---------------------------------------------------------------------------
# Determinism and caching


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, small_universe, tmp_path):
        stores = []
        for name in ("a", "b"):
            store = ArtifactStore(root=tmp_path / name)
            make_pipeline(small_universe, store=store).run()
            stores.append(store)
        first, second = stores
        assert first.manifest() == second.manifest()
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_warm_run_skips_every_stage_and_reproduces_theta(
        self, small_universe, tmp_path
    ):
        store_cold = ArtifactStore(root=tmp_path / "cache")
        cold = make_pipeline(small_universe, store=store_cold).run()
        store_warm = ArtifactStore(root=tmp_path / "cache")
        warm = make_pipeline(small_universe, store=store_warm).run()

        assert all(r["status"] == "cached" for r in warm.stage_records)
        assert warm.mapping.clusters() == cold.mapping.clusters()
        assert org_factor_from_mapping(warm.mapping) == pytest.approx(
            org_factor_from_mapping(cold.mapping)
        )
        # Nothing was recomputed — including zero LLM traffic.
        assert store_warm.counters["ner_extract"]["computed"] == 0
        stats = warm.diagnostics["artifact_cache"]
        assert stats["computed"] == 0 and stats["hits"] == len(warm.stage_records)

    def test_shared_memory_store_reuses_across_runs(self, small_universe):
        store = ArtifactStore()
        pipeline = make_pipeline(small_universe, store=store)
        pipeline.run()
        second = pipeline.run()
        assert all(r["status"] == "cached" for r in second.stage_records)
        assert all(r["source"] == "memory" for r in second.stage_records)

    def test_default_runs_use_a_fresh_store(self, small_universe):
        pipeline = make_pipeline(small_universe)
        first = pipeline.run()
        second = pipeline.run()
        # No artifact reuse between default runs (legacy behaviour: the
        # LLM response cache, one level down, provides the hits).
        assert all(r["status"] == "ok" for r in second.stage_records)
        assert second.mapping.clusters() == first.mapping.clusters()

    def test_config_change_invalidates_only_affected_stages(
        self, small_universe
    ):
        store = ArtifactStore()
        base = BorgesConfig()
        make_pipeline(small_universe, store=store, config=base).run()
        changed = dataclasses.replace(base, apply_blocklists=False)
        result = make_pipeline(small_universe, store=store, config=changed).run()
        statuses = {r["stage"]: r["status"] for r in result.stage_records}
        # Blocklists only enter the rr/favicons slices (and merge sees new
        # upstream fingerprints); everything else is reused.
        assert statuses["oid_w"] == "cached"
        assert statuses["oid_p"] == "cached"
        assert statuses["ner_extract"] == "cached"
        assert statuses["notes_aka"] == "cached"
        assert statuses["scrape"] == "cached"
        assert statuses["rr"] == "ok"
        assert statuses["favicons"] == "ok"
        assert statuses["merge"] == "ok"


# ---------------------------------------------------------------------------
# Artifact bytes on first read


def count_codec(monkeypatch):
    """Count stage ``encode`` and ``make_artifact`` calls, wrapped where
    the pipeline and the executor look them up."""
    calls = {"encode": 0, "make_artifact": 0}
    make_artifact = executor_mod.make_artifact
    build_graph = pipeline_mod.build_stage_graph

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def graph(*args, **kwargs):
        specs = build_graph(*args, **kwargs)
        for key, spec in specs.items():
            specs[key] = dataclasses.replace(
                spec, encode=counted("encode", spec.encode)
            )
        return specs

    monkeypatch.setattr(
        executor_mod, "make_artifact", counted("make_artifact", make_artifact)
    )
    monkeypatch.setattr(pipeline_mod, "build_stage_graph", graph)
    return calls


def consume(result):
    """Read a result the way callers do: Table 3, the web and NER views,
    the mapping file."""
    return (
        result.feature_table(),
        exact(result.web_result),
        exact(result.ner_results),
        result.mapping.to_json(),
    )


class TestLazyArtifacts:
    def test_cold_run_builds_no_bytes_until_read(
        self, small_universe, monkeypatch
    ):
        calls = count_codec(monkeypatch)
        store = ArtifactStore()
        consume(make_pipeline(small_universe, store=store).run())
        assert calls == {"encode": 0, "make_artifact": 0}
        store.manifest()
        assert calls == {"encode": 8, "make_artifact": 8}
        store.manifest()  # the bytes are kept once built
        assert calls == {"encode": 8, "make_artifact": 8}

    def test_consumed_run_reads_as_an_eager_one(self, small_universe, tmp_path):
        # A store with a root encodes at put, before any caller saw the
        # values; equal manifests mean no caller mutated one.
        lazy = ArtifactStore()
        consume(make_pipeline(small_universe, store=lazy).run())
        eager = ArtifactStore(root=tmp_path / "cache")
        consume(make_pipeline(small_universe, store=eager).run())
        assert lazy.manifest() == eager.manifest()

    def test_warm_run_decodes_the_cold_values(self, small_universe):
        store = ArtifactStore()
        pipeline = make_pipeline(small_universe, store=store)
        cold = pipeline._make_executor(store).execute()
        warm = pipeline._make_executor(store).execute()
        assert {r.source for r in warm.records.values()} == {"memory"}
        assert set(warm.values) == set(stages_mod.ALL_STAGES)
        for name, value in cold.values.items():
            assert exact(warm.values[name]) == exact(value), name


# ---------------------------------------------------------------------------
# The Table-6 sweep through the shared store


class TestSweepSharing:
    def test_sweep_runs_scrape_and_ner_exactly_once(self, small_universe):
        store = ArtifactStore()
        rows = factor_combination_table(
            small_universe.whois,
            small_universe.pdb,
            small_universe.web,
            artifact_store=store,
        )
        # 2 baselines + 15 non-empty feature combinations.
        assert len(rows) == 17
        assert store.counters["scrape"]["computed"] == 1
        assert store.counters["ner_extract"]["computed"] == 1
        # Every combination needs its own merge: 15 distinct artifacts.
        assert store.counters["merge"]["computed"] == 15


# ---------------------------------------------------------------------------
# Executor config + CLI surface


class TestExecutorSurface:
    def test_executor_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExecutorConfig(max_workers=0).validate()

    def test_plan_predicts_cache_hits(self, small_universe, tmp_path):
        store = ArtifactStore(root=tmp_path / "c")
        pipeline = make_pipeline(small_universe, store=store)
        assert all(row["cached"] is None for row in pipeline.plan())
        pipeline.run()
        assert all(row["cached"] == "memory" for row in pipeline.plan())

    def test_run_with_stage_subset(self, small_universe):
        result = make_pipeline(small_universe).run(stages=["rr"])
        assert set(result.features) == {"oid_w", "rr"}
        assert {r["stage"] for r in result.stage_records} == {
            "oid_w", "scrape", "rr", "merge"
        }

    def test_cli_explain_plan(self, capsys):
        status = cli_main(
            ["--orgs", "60", "--seed", "7", "run", "--explain-plan"]
        )
        assert status == 0
        out = capsys.readouterr().out
        for stage in ("oid_w", "scrape", "favicons", "merge"):
            assert stage in out
        assert "backbone" in out

    def test_cli_warm_cache_run(self, tmp_path, capsys):
        args = [
            "--orgs", "60", "--seed", "7", "run",
            "--artifact-cache", str(tmp_path / "cache"),
        ]
        assert cli_main(args) == 0
        cold = capsys.readouterr().out
        assert "8 planned, 0 served from cache" in cold
        assert cli_main(args) == 0
        warm = capsys.readouterr().out
        assert "8 served from cache" in warm
        assert "0 requests" in warm  # the warm run never touched the LLM

    def test_stage_records_reach_the_manifest(self, small_universe):
        from repro.obs import build_manifest

        result = make_pipeline(small_universe).run()
        manifest = build_manifest(result=result)
        stages = {entry["stage"]: entry for entry in manifest["stages"]}
        assert set(stages) == {
            "oid_w", "oid_p", "ner_extract", "notes_aka",
            "scrape", "rr", "favicons", "merge",
        }
        for entry in stages.values():
            assert entry["status"] in ("ok", "cached")
            assert entry["fingerprint"]
