"""Deeper tests of generator internals: categories, carriers, exports."""

import dataclasses


from repro.config import TEST_UNIVERSE
from repro.universe import generate_universe
from repro.universe.entities import OrgCategory
from repro.universe.stream import _is_carrier
from repro.web.simweb import is_framework_favicon_brand


class TestCategoryMix:
    def test_all_categories_present(self, universe):
        counts = {
            category: len(universe.ground_truth.by_category(category))
            for category in OrgCategory
        }
        assert all(count > 0 for count in counts.values())

    def test_access_is_the_plurality(self, universe):
        gt = universe.ground_truth
        access = len(gt.by_category(OrgCategory.ACCESS))
        for category in (OrgCategory.TRANSIT, OrgCategory.CONTENT):
            assert access > len(gt.by_category(category))

    def test_transit_overrepresented_among_conglomerates(self, universe):
        gt = universe.ground_truth
        random_orgs = [
            o for o in gt.all_orgs() if o.org_id.startswith("org-")
        ]
        def conglomerate_rate(category):
            members = [o for o in random_orgs if o.category is category]
            if not members:
                return 0.0
            return sum(o.is_conglomerate for o in members) / len(members)

        assert conglomerate_rate(OrgCategory.TRANSIT) > conglomerate_rate(
            OrgCategory.ENTERPRISE
        )


class TestCarriers:
    def test_carrier_predicate(self, universe):
        carriers = [
            o for o in universe.ground_truth.all_orgs() if _is_carrier(o)
        ]
        for org in carriers:
            assert org.category is OrgCategory.TRANSIT
            assert len(org.brands) >= 5

    def test_tier1_dominated_by_carrier_asns(self, universe):
        tier1 = universe.topology.tier1s()
        assert tier1
        carrier_asns = set()
        for org in universe.ground_truth.all_orgs():
            if _is_carrier(org):
                carrier_asns.update(org.asns)
        if carrier_asns:  # small test universes may draw few carriers
            hits = sum(1 for asn in tier1 if asn in carrier_asns)
            assert hits >= 1  # carriers always reach the tier-1 clique


class TestPdbExport:
    def test_registration_rate_in_band(self, universe):
        rate = len(universe.pdb) / len(universe.whois)
        # Config: 0.30 base with category boosts → 0.3-0.55 overall.
        assert 0.2 < rate < 0.6

    def test_transit_registers_more_often(self, universe):
        gt = universe.ground_truth

        def rate(category):
            asns = [
                asn for org in gt.by_category(category) for asn in org.asns
            ]
            if not asns:
                return 0.0
            return sum(1 for a in asns if a in universe.pdb) / len(asns)

        assert rate(OrgCategory.TRANSIT) > rate(OrgCategory.ENTERPRISE)

    def test_info_type_matches_category(self, universe):
        for net in universe.pdb.networks():
            org = universe.ground_truth.org_of_asn(net.asn)
            expected = {
                OrgCategory.ACCESS: "Cable/DSL/ISP",
                OrgCategory.TRANSIT: "NSP",
                OrgCategory.CONTENT: "Content",
                OrgCategory.ENTERPRISE: "Enterprise",
            }[org.category]
            assert net.info_type == expected

    def test_website_fields_parse_or_are_empty(self, universe):
        from repro.web.url import parse_url

        for net in universe.pdb.networks():
            if net.website:
                parse_url(net.website)  # must not raise

    def test_framework_favicons_only_on_small_orgs(self, universe):
        for brand in universe.ground_truth.all_brands():
            if is_framework_favicon_brand(brand.favicon_brand or ""):
                org = universe.ground_truth.orgs[brand.org_id]
                assert not org.is_conglomerate


class TestPopulations:
    def test_total_scaled_to_config(self, universe):
        total = universe.apnic.total_users
        target = universe.config.total_users
        assert abs(total - target) / target < 0.01

    def test_country_matches_brand(self, universe):
        for record in universe.apnic.records():
            brand = universe.ground_truth.brand_of_asn(record.asn)
            assert record.country == brand.country

    def test_heavy_tail(self, universe):
        values = sorted(
            (universe.apnic.users_of(a) for a in universe.apnic.asns()),
            reverse=True,
        )
        top_decile = values[: max(1, len(values) // 10)]
        assert sum(top_decile) > 0.5 * sum(values)


class TestScaling:
    def test_scaled_universe_generates(self):
        config = TEST_UNIVERSE.scaled(0.5)
        universe = generate_universe(config)
        assert len(universe.whois) > 0
        assert len(universe.pdb) > 0

    def test_minimum_viable_universe(self):
        config = dataclasses.replace(
            TEST_UNIVERSE, n_organizations=10, total_users=1000
        )
        universe = generate_universe(config)
        # Canonical scenarios survive even in a tiny world.
        from repro.universe.canonical import AS_LUMEN

        assert AS_LUMEN in universe.whois

    def test_zero_rate_universe(self):
        config = dataclasses.replace(
            TEST_UNIVERSE,
            n_organizations=50,
            notes_rate=0.0,
            website_rate=0.0,
            platform_website_rate=0.0,
        )
        universe = generate_universe(config)
        for net in universe.pdb.networks():
            if not net.name.startswith(("Lumen", "CenturyLink")):
                # canonical records keep their planted fields
                pass
        assert len(universe.whois) > 0

    def test_max_rate_universe_generates(self):
        config = dataclasses.replace(
            TEST_UNIVERSE,
            n_organizations=50,
            conglomerate_fraction=0.5,
            shared_favicon_rate=1.0,
            merger_redirect_rate=1.0,
            pdb_consolidation_rate=1.0,
        )
        universe = generate_universe(config)
        assert len(universe.pdb) > 0
