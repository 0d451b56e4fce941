"""Unit tests for the AS2Org and as2org+ baselines, incl. regex extraction."""


from repro.asrank import ASTopology
from repro.baselines import (
    As2OrgPlusConfig,
    build_as2org_mapping,
    build_as2orgplus_mapping,
    regex_extract_asns,
)
from repro.baselines.regex_extract import filter_provider_relations
from repro.peeringdb import Network, Organization, PDBSnapshot
from repro.whois import ASNDelegation, WhoisDataset, WhoisOrg


def mini_whois():
    orgs = [
        WhoisOrg(org_id="A-ARIN", name="Alpha"),
        WhoisOrg(org_id="B-ARIN", name="Beta"),
        WhoisOrg(org_id="C-ARIN", name="Gamma"),
    ]
    delegations = [
        ASNDelegation(asn=10, org_id="A-ARIN"),
        ASNDelegation(asn=11, org_id="A-ARIN"),
        ASNDelegation(asn=20, org_id="B-ARIN"),
        ASNDelegation(asn=30, org_id="C-ARIN"),
    ]
    return WhoisDataset.build(orgs, delegations)


def mini_pdb():
    orgs = [Organization(org_id=1, name="AlphaBeta Ops")]
    nets = [
        Network(asn=10, name="Alpha", org_id=1),
        Network(asn=20, name="Beta", org_id=1,
                notes="Phone +1 555 0100, upstream AS30"),
    ]
    return PDBSnapshot.build(orgs, nets)


class TestAS2Org:
    def test_mapping_follows_whois(self):
        mapping = build_as2org_mapping(mini_whois())
        assert mapping.are_siblings(10, 11)
        assert not mapping.are_siblings(10, 20)
        assert mapping.method == "as2org"

    def test_org_names_carried(self):
        mapping = build_as2org_mapping(mini_whois())
        assert mapping.org_name_of(10) == "Alpha"


class TestAs2OrgPlus:
    def test_simple_setup_merges_pdb_orgs(self):
        # The paper's benchmark configuration: OID_W + OID_P only.
        mapping = build_as2orgplus_mapping(mini_whois(), mini_pdb())
        assert mapping.are_siblings(10, 20)  # shared PDB org
        assert mapping.are_siblings(10, 11)  # WHOIS group kept
        assert not mapping.are_siblings(10, 30)
        assert mapping.method == "as2org+"

    def test_regex_setup_drags_in_upstreams(self):
        # Without the provider filter, the regexes read AS30 from the
        # notes as a sibling — the false-positive mode §2.1 describes.
        config = As2OrgPlusConfig(use_regex_extraction=True, provider_filter=False)
        mapping = build_as2orgplus_mapping(mini_whois(), mini_pdb(), config)
        assert mapping.are_siblings(20, 30)
        assert mapping.method == "as2org+[regex]"

    def test_provider_filter_removes_upstreams(self):
        topology = ASTopology()
        topology.add_p2c(30, 20)  # AS30 is AS20's provider
        config = As2OrgPlusConfig(use_regex_extraction=True, provider_filter=True)
        mapping = build_as2orgplus_mapping(
            mini_whois(), mini_pdb(), config, topology
        )
        assert not mapping.are_siblings(20, 30)


class TestRegexExtraction:
    def test_as_prefixed_tokens(self):
        assert regex_extract_asns("siblings AS3356 and ASN 209") == [209, 3356]

    def test_loose_mode_matches_bare_numbers(self):
        found = regex_extract_asns("established 1998, suite 200", loose=True)
        assert 1998 in found
        assert 200 in found

    def test_strict_mode_ignores_bare_numbers(self):
        assert regex_extract_asns("established 1998", loose=False) == []

    def test_own_asn_excluded(self):
        assert regex_extract_asns("we are AS5", own_asn=5) == []

    def test_no_context_awareness(self):
        # The defining weakness vs the LLM: upstream lists look identical.
        upstream_notes = "We connect directly with Cogent (AS174)"
        assert regex_extract_asns(upstream_notes) == [174]

    def test_reserved_asns_excluded(self):
        assert regex_extract_asns("AS23456 AS64512", loose=False) == []

    def test_out_of_range_bare_numbers_excluded(self):
        assert regex_extract_asns("ticket 42", loose=True) == []  # < 100
        assert 5_000_000_000 not in regex_extract_asns(
            "id 5000000000", loose=True
        )


class TestProviderFilter:
    def test_transitive_providers_removed(self):
        topology = ASTopology()
        topology.add_p2c(1, 2)
        topology.add_p2c(2, 3)
        kept = filter_provider_relations(3, [1, 2, 99], topology)
        assert kept == [99]

    def test_no_providers_keeps_everything(self):
        topology = ASTopology()
        topology.add_asn(5)
        assert filter_provider_relations(5, [7, 8], topology) == [7, 8]

    def test_deep_chains_bounded(self):
        topology = ASTopology()
        for i in range(1, 30):
            topology.add_p2c(i, i + 1)
        kept = filter_provider_relations(30, list(range(1, 30)), topology)
        # Only the nearest 8 levels of providers are filtered.
        assert 29 not in kept
        assert 22 not in kept
        assert 1 in kept
