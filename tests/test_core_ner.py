"""Unit tests for the NER module: input filter, extraction, output filter."""


from repro.config import BorgesConfig, LLMConfig
from repro.core.ner import NERModule
from repro.llm.simulated import make_default_client
from repro.peeringdb import Network, Organization, PDBSnapshot


def oracle_ner(config: BorgesConfig = None) -> NERModule:
    """A NER module backed by the error-free oracle (deterministic tests)."""
    llm_config = LLMConfig(extraction_error_rate=0.0, classifier_error_rate=0.0)
    return NERModule(make_default_client(llm_config), config or BorgesConfig())


def snapshot_with(nets):
    orgs = [Organization(org_id=1, name="Test Org")]
    return PDBSnapshot.build(orgs, nets)


def make_net(asn, notes="", aka=""):
    return Network(asn=asn, name=f"net-{asn}", org_id=1, notes=notes, aka=aka)


class TestInputFilter:
    def test_records_without_digits_skipped(self):
        ner = oracle_ner()
        snapshot = snapshot_with(
            [
                make_net(71001, notes="no numbers in this text"),
                make_net(71002, notes="sister network AS71003"),
            ]
        )
        results = ner.run(snapshot)
        assert [r.asn for r in results] == [71002]
        assert ner.stats.records_with_text == 2
        assert ner.stats.records_numeric == 1
        assert ner.stats.records_queried == 1

    def test_filter_disabled_queries_everything(self):
        config = BorgesConfig(ner_input_filter=False)
        ner = oracle_ner(config)
        snapshot = snapshot_with(
            [
                make_net(71001, notes="no numbers in this text"),
                make_net(71002, notes="sister network AS71003"),
            ]
        )
        results = ner.run(snapshot)
        assert len(results) == 2
        assert ner.stats.records_queried == 2

    def test_empty_text_never_queried(self):
        ner = oracle_ner(BorgesConfig(ner_input_filter=False))
        snapshot = snapshot_with([make_net(71001)])
        assert ner.run(snapshot) == []


class TestExtraction:
    def test_sibling_extracted(self):
        ner = oracle_ner()
        result = ner.extract_record(
            make_net(3320, notes="Our sibling networks: AS6855 and AS5391.")
        )
        assert result.siblings == (5391, 6855)
        assert result.cluster == frozenset({3320, 5391, 6855})

    def test_upstream_listing_yields_nothing(self):
        ner = oracle_ner()
        result = ner.extract_record(
            make_net(
                262287,
                notes=(
                    "We connect directly with the following ISPs,\n"
                    "- Algar (AS16735)\n- Cogent (AS174)"
                ),
            )
        )
        assert result.siblings == ()

    def test_aka_extraction(self):
        ner = oracle_ner()
        result = ner.extract_record(make_net(22822, aka="formerly AS15133"))
        assert result.siblings == (15133,)


class TestOutputFilter:
    def test_own_asn_always_dropped(self):
        ner = oracle_ner()
        result = ner.extract_record(
            make_net(3320, notes="part of the group with AS3320 and AS6855")
        )
        assert 3320 not in result.siblings

    def test_number_not_in_text_dropped(self):
        # Force the backend to hallucinate by injecting at rate 1.0 —
        # the output filter only admits literal numbers, so hallucinated
        # values (never in the text) cannot appear... the decoy slip picks
        # literal numbers, so instead verify the filter logic directly.
        ner = oracle_ner()
        net = make_net(1, notes="sibling AS71005")
        kept, dropped = ner._output_filter(net, [71005, 99999])
        assert kept == {71005}
        assert 99999 in dropped

    def test_invalid_asn_dropped(self):
        ner = oracle_ner()
        net = make_net(1, notes="values 23456 and 71005 with sibling AS71005")
        kept, dropped = ner._output_filter(net, [23456, 71005])
        assert kept == {71005}
        assert 23456 in dropped

    def test_filter_disabled_admits_nonliteral(self):
        config = BorgesConfig(ner_output_filter=False)
        ner = oracle_ner(config)
        net = make_net(1, notes="sibling AS71005")
        kept, _dropped = ner._output_filter(net, [71005, 88888])
        assert kept == {71005, 88888}


class TestClustersAndStats:
    def test_clusters_only_for_found_siblings(self):
        ner = oracle_ner()
        snapshot = snapshot_with(
            [
                make_net(71001, notes="sister network AS71003"),
                make_net(71002, notes="founded in 1998"),
            ]
        )
        results = ner.run(snapshot)
        clusters = ner.clusters(results)
        assert clusters == [frozenset({71001, 71003})]
        assert ner.stats.records_with_siblings == 1
        assert ner.stats.asns_extracted == 1

    def test_run_over_universe_snapshot(self, universe):
        ner = oracle_ner()
        results = ner.run(universe.pdb)
        assert results
        stats = universe.pdb.stats()
        assert ner.stats.records_queried == stats["nets_with_numeric_text"]
