"""Unit tests for the universe generator and its building blocks."""

import pytest

from repro.config import TEST_UNIVERSE
from repro.errors import DataError
from repro.universe import generate_universe
from repro.universe.entities import Brand, GroundTruth, Org, OrgCategory
from repro.universe.events import EventKind, MnAEvent, Timeline
from repro.universe.names import NameForge, REGIONS
from repro.universe.notes_synth import NotesSynthesizer
from repro.universe.generator import SYNTHETIC_ASN_BASE


class TestNameForge:
    def test_company_names_unique(self):
        forge = NameForge(seed=1)
        names = {forge.company_name("access") for _ in range(500)}
        assert len(names) == 500

    def test_brand_tokens_unique(self):
        forge = NameForge(seed=1)
        tokens = {
            forge.brand_token(forge.company_name("access")) for _ in range(500)
        }
        assert len(tokens) == 500

    def test_reserved_tokens_never_assigned(self):
        forge = NameForge(seed=2)
        for _ in range(800):
            token = forge.brand_token(forge.company_name("transit"))
            assert token not in NameForge.RESERVED_TOKENS

    def test_deterministic_across_instances(self):
        a = NameForge(seed=3)
        b = NameForge(seed=3)
        assert [a.company_name("access") for _ in range(10)] == [
            b.company_name("access") for _ in range(10)
        ]

    def test_pick_countries_spills_into_neighbours(self):
        forge = NameForge(seed=4)
        pairs = forge.pick_countries("northam", 5)  # region only has 2
        assert len(pairs) == 5
        assert len(set(pairs)) == 5

    def test_regions_have_cctlds(self):
        for region, pairs in REGIONS.items():
            assert pairs, region
            for country, cctld in pairs:
                assert len(country) == 2
                assert cctld


class TestEntities:
    def make_org(self):
        org = Org(
            org_id="o1", name="Vega Telecom", category=OrgCategory.ACCESS,
            region="latam", is_conglomerate=True, brand_token="vega",
        )
        org.brands = [
            Brand(brand_id="o1/a", name="Vega AR", org_id="o1", country="AR",
                  cctld="com.ar", asns=[100, 101]),
            Brand(brand_id="o1/b", name="Vega CL", org_id="o1", country="CL",
                  cctld="cl", asns=[102]),
        ]
        return org

    def test_org_asns_sorted(self):
        assert self.make_org().asns == [100, 101, 102]

    def test_org_countries(self):
        assert self.make_org().countries == {"AR", "CL"}

    def test_brand_of(self):
        org = self.make_org()
        assert org.brand_of(102).brand_id == "o1/b"
        with pytest.raises(DataError):
            org.brand_of(999)

    def test_ground_truth_indexing(self):
        gt = GroundTruth()
        gt.add(self.make_org())
        assert gt.org_of_asn(101).org_id == "o1"
        assert gt.are_siblings(100, 102)
        assert gt.true_siblings(100) == frozenset({100, 101, 102})

    def test_ground_truth_rejects_shared_asn(self):
        gt = GroundTruth()
        gt.add(self.make_org())
        duplicate = Org(
            org_id="o2", name="Other", category=OrgCategory.ACCESS,
            region="latam",
        )
        duplicate.brands = [
            Brand(brand_id="o2/a", name="X", org_id="o2", country="AR",
                  cctld="com.ar", asns=[100]),
        ]
        gt.add(duplicate)
        with pytest.raises(DataError):
            gt.org_of_asn(100)

    def test_duplicate_org_id_rejected(self):
        gt = GroundTruth()
        gt.add(self.make_org())
        with pytest.raises(DataError):
            gt.add(self.make_org())

    def test_true_clusters_cover_all_asns(self):
        gt = GroundTruth()
        gt.add(self.make_org())
        clusters = gt.true_clusters()
        assert frozenset({100, 101, 102}) in clusters


class TestTimeline:
    def test_ordered_iteration(self):
        timeline = Timeline(
            events=[
                MnAEvent(EventKind.ACQUISITION, 2020, "a", "b"),
                MnAEvent(EventKind.MERGER, 2010, "a", "c"),
            ]
        )
        years = [event.year for event in timeline]
        assert years == [2010, 2020]

    def test_involving(self):
        event = MnAEvent(EventKind.ACQUISITION, 2020, "a", "b")
        timeline = Timeline(events=[event])
        assert timeline.involving("a") == [event]
        assert timeline.involving("b") == [event]
        assert timeline.involving("z") == []

    def test_describe(self):
        text = MnAEvent(EventKind.ACQUISITION, 2016, "lumen", "level3").describe()
        assert "2016" in text and "acquires" in text


class TestNotesSynth:
    def test_sibling_notes_contain_all_asns(self):
        synth = NotesSynthesizer(seed=1)
        result = synth.sibling_notes("Vega Telecom", [70001, 70002], language="es")
        assert result.true_siblings == (70001, 70002)
        assert "70001" in result.text and "70002" in result.text

    def test_upstream_notes_have_no_siblings(self):
        synth = NotesSynthesizer(seed=1)
        result = synth.upstream_notes([3356, 174])
        assert result.true_siblings == ()
        assert "3356" in result.text

    def test_decoy_notes_numeric_but_empty_truth(self):
        synth = NotesSynthesizer(seed=1)
        result = synth.decoy_notes()
        assert any(ch.isdigit() for ch in result.text)
        assert result.true_siblings == ()

    def test_plain_notes_have_no_digits(self):
        synth = NotesSynthesizer(seed=1)
        for _ in range(20):
            assert not any(ch.isdigit() for ch in synth.plain_notes().text)

    def test_aka_with_sibling(self):
        synth = NotesSynthesizer(seed=1)
        result = synth.aka("Old Name", sibling_asn=70007)
        assert result.true_siblings == (70007,)
        assert "70007" in result.text

    def test_unknown_language_falls_back_to_english(self):
        synth = NotesSynthesizer(seed=1)
        result = synth.sibling_notes("X", [70001], language="tlh")
        assert "70001" in result.text


class TestGeneratedUniverse:
    def test_deterministic_for_same_seed(self):
        a = generate_universe(TEST_UNIVERSE)
        b = generate_universe(TEST_UNIVERSE)
        assert a.whois.asns() == b.whois.asns()
        assert a.pdb.stats() == b.pdb.stats()
        assert sorted(a.web.hosts()) == sorted(b.web.hosts())

    def test_different_seed_differs(self):
        import dataclasses

        other = generate_universe(dataclasses.replace(TEST_UNIVERSE, seed=8))
        base = generate_universe(TEST_UNIVERSE)
        assert other.whois.asns() != base.whois.asns() or (
            other.pdb.stats() != base.pdb.stats()
        )

    def test_every_pdb_net_is_delegated(self, universe):
        for net in universe.pdb.networks():
            assert net.asn in universe.whois

    def test_every_gt_asn_is_delegated(self, universe):
        assert universe.ground_truth.all_asns() == universe.whois.asns()

    def test_synthetic_asns_above_base_or_canonical(self, universe):
        from repro.universe.canonical import build_canonical_plan

        canonical = set(build_canonical_plan().all_asns())
        for asn in universe.whois.asns():
            assert asn >= SYNTHETIC_ASN_BASE or asn in canonical

    def test_annotations_reference_real_nets(self, universe):
        for asn in universe.annotations.notes_truth:
            assert asn in universe.pdb.nets

    def test_notes_truth_siblings_are_true_siblings(self, universe):
        gt = universe.ground_truth
        for asn, truth in universe.annotations.notes_truth.items():
            for sibling in truth:
                assert gt.are_siblings(asn, sibling), (asn, sibling)

    def test_apnic_only_access_networks(self, universe):
        for asn in universe.apnic.asns():
            org = universe.ground_truth.org_of_asn(asn)
            assert org.category is OrgCategory.ACCESS

    def test_topology_covers_all_asns(self, universe):
        assert len(universe.topology) == len(universe.whois)

    def test_topology_acyclic(self, universe):
        universe.topology.validate_acyclic()

    def test_websites_resolve_to_registered_hosts(self, universe):
        # Every PDB website's host is either in the simulated web or the
        # record points at a live external URL the scraper will 404 on —
        # the generator only writes hosts it planted.
        missing = []
        for net in universe.pdb.nets_with_websites():
            from repro.web.url import host_of

            host = host_of(net.website)
            if host is not None and host not in universe.web:
                missing.append(host)
        assert not missing

    def test_summary_keys(self, universe):
        summary = universe.summary()
        assert summary["whois_asns"] == float(len(universe.whois))
        assert summary["pdb_nets"] == float(len(universe.pdb))
