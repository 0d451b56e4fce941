"""Integration tests: every paper-narrated scenario must be recovered.

Each test pins one of the concrete cases the paper describes (Figs. 3–5,
Tables 1–2, Appendix B) and asserts that the full Borges pipeline
recovers — or correctly refuses — the relationship.
"""


from repro.universe.canonical import (
    AS_CENTURYLINK,
    AS_CLEARWIRE,
    AS_COGENT,
    AS_DEUTSCHE_TELEKOM,
    AS_EDGECAST,
    AS_HRVATSKI_TELEKOM,
    AS_LIMELIGHT,
    AS_LUMEN,
    AS_MAXIHOST,
    AS_OPEN_TRANSIT,
    AS_SLOVAK_TELEKOM,
    AS_TMOBILE_US,
    HYPERGIANT_PRIMARY_ASNS,
    build_canonical_plan,
)


class TestCanonicalPlan:
    def test_all_asns_unique(self):
        plan = build_canonical_plan()
        asns = plan.all_asns()
        assert len(asns) == len(set(asns))

    def test_canonical_asns_never_reallocated(self, universe):
        # Canonical ASNs may exceed the synthetic base (Maxihost's real
        # AS262287 does); the generator must still assign each exactly once.
        asns = universe.whois.asns()
        assert len(asns) == len(set(asns))
        assert AS_MAXIHOST in universe.whois

    def test_sixteen_hypergiants(self):
        assert len(HYPERGIANT_PRIMARY_ASNS) == 16

    def test_registered_brands_exist(self):
        plan = build_canonical_plan()
        brand_ids = {b.brand_id for org in plan.orgs for b in org.brands}
        assert plan.register <= brand_ids


class TestFig3Lumen:
    """WHOIS splits Lumen/CenturyLink; PeeringDB OID_P unites them."""

    def test_whois_separates(self, universe):
        whois = universe.whois
        assert whois.org_id_of(AS_LUMEN) != whois.org_id_of(AS_CENTURYLINK)

    def test_as2org_misses_the_merge(self, as2org_mapping):
        assert not as2org_mapping.are_siblings(AS_LUMEN, AS_CENTURYLINK)

    def test_pdb_unites(self, universe):
        pdb = universe.pdb
        assert pdb.nets[AS_LUMEN].org_id == pdb.nets[AS_CENTURYLINK].org_id

    def test_borges_recovers(self, borges_mapping):
        assert borges_mapping.are_siblings(AS_LUMEN, AS_CENTURYLINK)


class TestFig4DeutscheTelekomNotes:
    """DTAG's notes report its European subsidiaries (NER feature)."""

    def test_notes_present_in_snapshot(self, universe):
        notes = universe.pdb.nets[AS_DEUTSCHE_TELEKOM].notes
        assert str(AS_SLOVAK_TELEKOM) in notes
        assert str(AS_HRVATSKI_TELEKOM) in notes

    def test_borges_links_subsidiaries(self, borges_mapping):
        assert borges_mapping.are_siblings(AS_DEUTSCHE_TELEKOM, AS_SLOVAK_TELEKOM)
        assert borges_mapping.are_siblings(AS_DEUTSCHE_TELEKOM, AS_HRVATSKI_TELEKOM)

    def test_as2org_misses(self, as2org_mapping):
        assert not as2org_mapping.are_siblings(
            AS_DEUTSCHE_TELEKOM, AS_SLOVAK_TELEKOM
        )


class TestFig5aEdgio:
    """Edgecast and Limelight report sites landing on www.edg.io."""

    def test_borges_merges_edgio(self, borges_mapping):
        assert borges_mapping.are_siblings(AS_EDGECAST, AS_LIMELIGHT)

    def test_redirect_chain_observed(self, scraper):
        result = scraper.resolve("https://www.edgecast.com/")
        assert result.final_url == "https://www.edg.io/"


class TestFig5bClearwire:
    """Clearwire's stale site redirects through Sprint to T-Mobile."""

    def test_chain_shape(self, scraper):
        result = scraper.resolve("https://www.clearwire.com/")
        assert result.chain == (
            "https://www.clearwire.com/",
            "https://www.sprint.com/",
            "https://www.t-mobile.com/",
        )

    def test_borges_links_clearwire_to_tmobile(self, borges_mapping):
        assert borges_mapping.are_siblings(AS_CLEARWIRE, AS_TMOBILE_US)


class TestClaroFavicons:
    """Claro branches share a favicon but differ in domain (Table 2)."""

    def test_borges_groups_claro(self, universe, borges_mapping):
        claro = universe.ground_truth.orgs["gt-claro"]
        asns = claro.asns
        pairs_joined = sum(
            borges_mapping.are_siblings(asns[0], other) for other in asns[1:]
        )
        # The favicon signal must join most branches to the first one.
        assert pairs_joined >= len(asns[1:]) - 2


class TestOrangeSubdomains:
    """orange.es / orange.pl share token + favicon → step-1 grouping."""

    def test_borges_groups_orange(self, universe, borges_mapping):
        orange = universe.ground_truth.orgs["gt-orange"]
        es = next(b for b in orange.brands if b.country == "ES")
        pl = next(b for b in orange.brands if b.country == "PL")
        assert borges_mapping.are_siblings(es.primary_asn, pl.primary_asn)

    def test_open_transit_joined(self, borges_mapping, universe):
        orange = universe.ground_truth.orgs["gt-orange"]
        fr = next(b for b in orange.brands if b.country == "FR")
        assert borges_mapping.are_siblings(AS_OPEN_TRANSIT, fr.primary_asn)


class TestMaxihostAppendixB:
    """Numeric notes reporting upstreams must NOT become siblings."""

    def test_notes_are_the_upstream_pattern(self, universe):
        notes = universe.pdb.nets[AS_MAXIHOST].notes
        assert "connect directly" in notes
        assert f"AS{AS_COGENT}" in notes

    def test_borges_does_not_link_to_cogent(self, borges_mapping):
        assert not borges_mapping.are_siblings(AS_MAXIHOST, AS_COGENT)

    def test_maxihost_stays_singleton(self, borges_mapping):
        assert borges_mapping.cluster_of(AS_MAXIHOST) == frozenset({AS_MAXIHOST})


class TestBootstrapTrap:
    """Unrelated sites sharing Bootstrap's default favicon must not merge."""

    def test_no_cross_org_merge(self, universe, borges_mapping):
        bootstrap_orgs = [
            org for oid, org in universe.ground_truth.orgs.items()
            if oid.startswith("gt-bootstrap-")
        ]
        asns = [org.asns[0] for org in bootstrap_orgs]
        for i, a in enumerate(asns):
            for b in asns[i + 1:]:
                assert not borges_mapping.are_siblings(a, b)


class TestDigicel:
    """Digicel spans ~25 Caribbean countries (Table 9's biggest growth)."""

    def test_whois_splits_digicel(self, universe, as2org_mapping):
        digicel = universe.ground_truth.orgs["gt-digicel"]
        sizes = len(as2org_mapping.cluster_of(digicel.brands[0].primary_asn))
        assert sizes == 4  # the legacy WHOIS org groups only 4 brands

    def test_borges_unites_digicel(self, universe, borges_mapping):
        digicel = universe.ground_truth.orgs["gt-digicel"]
        cluster = borges_mapping.cluster_of(digicel.brands[0].primary_asn)
        assert len(cluster) >= 20


class TestHypergiants:
    def test_edgecast_gains_nine(self, as2org_mapping, borges_mapping):
        base = len(as2org_mapping.cluster_of(AS_EDGECAST))
        merged = len(borges_mapping.cluster_of(AS_EDGECAST))
        assert merged - base == 9  # the paper's headline Fig. 9 number

    def test_google_gains_three(self, as2org_mapping, borges_mapping):
        asn = HYPERGIANT_PRIMARY_ASNS["Google"]
        gain = len(borges_mapping.cluster_of(asn)) - len(
            as2org_mapping.cluster_of(asn)
        )
        assert gain == 3

    def test_akamai_unchanged(self, as2org_mapping, borges_mapping):
        asn = HYPERGIANT_PRIMARY_ASNS["Akamai"]
        assert len(borges_mapping.cluster_of(asn)) == len(
            as2org_mapping.cluster_of(asn)
        )
