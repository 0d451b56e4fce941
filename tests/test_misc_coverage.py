"""Remaining coverage: org keys, hypergiant structure, profile plumbing."""



from repro.config import LLMConfig
from repro.core.org_keys import oid_p_clusters, oid_w_clusters
from repro.llm.model_zoo import get_profile
from repro.peeringdb import Network, Organization, PDBSnapshot
from repro.universe.canonical import HYPERGIANT_PRIMARY_ASNS, build_canonical_plan
from repro.whois import ASNDelegation, WhoisDataset, WhoisOrg


class TestOrgKeys:
    def test_oid_w_covers_every_delegation(self):
        dataset = WhoisDataset.build(
            [WhoisOrg(org_id="A", name="A"), WhoisOrg(org_id="B", name="B")],
            [
                ASNDelegation(asn=1, org_id="A"),
                ASNDelegation(asn=2, org_id="A"),
                ASNDelegation(asn=3, org_id="B"),
            ],
        )
        clusters = oid_w_clusters(dataset)
        assert frozenset({1, 2}) in clusters
        assert frozenset({3}) in clusters
        assert sum(len(c) for c in clusters) == 3

    def test_oid_p_covers_only_registered(self):
        snapshot = PDBSnapshot.build(
            [Organization(org_id=1, name="X")],
            [
                Network(asn=10, name="a", org_id=1),
                Network(asn=11, name="b", org_id=1),
            ],
        )
        assert oid_p_clusters(snapshot) == [frozenset({10, 11})]


class TestHypergiantStructure:
    def test_primary_asns_are_the_papers(self):
        # Spot-check the well-known ones.
        assert HYPERGIANT_PRIMARY_ASNS["Google"] == 15169
        assert HYPERGIANT_PRIMARY_ASNS["Cloudflare"] == 13335
        assert HYPERGIANT_PRIMARY_ASNS["Akamai"] == 20940
        assert HYPERGIANT_PRIMARY_ASNS["EdgeCast"] == 15133

    def test_hypergiant_orgs_flagged(self):
        plan = build_canonical_plan()
        hypergiant_orgs = [o for o in plan.orgs if o.is_hypergiant]
        primaries = {
            asn for org in hypergiant_orgs for asn in org.asns
        }
        for asn in HYPERGIANT_PRIMARY_ASNS.values():
            assert asn in primaries

    def test_edgio_holds_both_brands(self):
        plan = build_canonical_plan()
        edgio = next(o for o in plan.orgs if o.org_id == "gt-edgio")
        tags = {b.brand_id.split("/")[-1] for b in edgio.brands}
        assert tags == {"edgecast", "limelight"}


class TestModelProfilePlumbing:
    def test_llm_config_inherits_base_settings(self):
        base = LLMConfig(max_tokens=512, seed=9)
        config = get_profile("gpt-4o-sim").llm_config(base)
        assert config.max_tokens == 512
        assert config.seed == 9
        assert config.model == "gpt-4o-sim"

    def test_llm_config_default_base(self):
        config = get_profile("llama-3-70b-sim").llm_config()
        assert config.temperature == 0.0  # paper sampling settings kept


class TestMappingUniverseEdgeCases:
    def test_empty_universe_mapping(self):
        from repro.core.mapping import OrgMapping

        mapping = OrgMapping(universe=[], clusters=[])
        assert len(mapping) == 0
        assert mapping.sizes() == []

    def test_cluster_fully_outside_universe_dropped(self):
        from repro.core.mapping import OrgMapping

        mapping = OrgMapping(universe=[1], clusters=[{5, 6}])
        assert len(mapping) == 1
        assert mapping.cluster_of(1) == frozenset({1})

    def test_theta_of_empty_mapping_is_zero(self):
        from repro.core.mapping import OrgMapping
        from repro.metrics import org_factor_from_mapping

        mapping = OrgMapping(universe=[], clusters=[])
        assert org_factor_from_mapping(mapping) == 0.0
