"""Coverage for web synthesis details and the experiment-context cache."""


from repro.config import UniverseConfig
from repro.experiments.runner import _CONTEXT_CACHE, get_context
from repro.universe.canonical import build_canonical_plan
from repro.universe.web_synth import _flagship_brand
from repro.web.http import RedirectKind
from repro.web.scraper import HeadlessScraper


class TestWebSynthesis:
    def test_acquired_brand_redirects_point_at_flagship(self, universe):
        """Every planted redirect inside an org lands on its flagship."""
        scraper = HeadlessScraper(universe.web)
        checked = 0
        for org in universe.ground_truth.conglomerates():
            if org.org_id.startswith("gt-"):
                continue  # canonical orgs use explicit multi-hop chains
            flagship = _flagship_brand(org)
            if flagship is None:
                continue
            for brand in org.brands:
                if brand is flagship or not brand.acquired:
                    continue
                site = universe.web.site_for(brand.website_url)
                if site is None or site.redirect_kind is RedirectKind.NONE:
                    continue
                assert site.redirect_target == flagship.website_url
                checked += 1
        assert checked > 0

    def test_flagship_prefers_non_acquired(self, universe):
        for org in universe.ground_truth.conglomerates():
            flagship = _flagship_brand(org)
            if flagship is None:
                continue
            if any(
                not b.acquired and b.website_host for b in org.brands
            ):
                assert not flagship.acquired

    def test_canonical_hosts_alive(self, universe):
        plan = build_canonical_plan()
        for host in plan.alive_hosts:
            site = universe.web.site_for(f"https://{host}/")
            assert site is not None and site.alive, host

    def test_platform_hosts_exist(self, universe):
        from repro.universe.names import PLATFORM_HOSTS

        for host in PLATFORM_HOSTS:
            assert host in universe.web

    def test_dead_site_rate_in_band(self, universe):
        stats = universe.web.stats()
        dead_fraction = 1 - stats["alive"] / stats["hosts"]
        # Config default 0.14, canonical hosts revived — broad band.
        assert 0.02 < dead_fraction < 0.30


class TestContextCache:
    def test_same_config_reuses_context(self):
        config = UniverseConfig(seed=991, n_organizations=60)
        first = get_context(config)
        second = get_context(config)
        assert first is second
        _CONTEXT_CACHE.pop(config, None)

    def test_different_seed_builds_fresh(self):
        configs = [
            UniverseConfig(seed=992, n_organizations=60),
            UniverseConfig(seed=993, n_organizations=60),
        ]
        a, b = (get_context(config) for config in configs)
        assert a is not b
        for config in configs:
            _CONTEXT_CACHE.pop(config, None)

    def test_any_config_field_builds_fresh(self):
        """Same seed and size, different notes rate: a different world."""
        plain = UniverseConfig(seed=992, n_organizations=60)
        noted = UniverseConfig(seed=992, n_organizations=60, notes_rate=0.95)
        a, b = get_context(plain), get_context(noted)
        assert a is not b
        assert b.universe.config.notes_rate == 0.95
        for config in (plain, noted):
            _CONTEXT_CACHE.pop(config, None)


class TestCanonicalPlanDetails:
    def test_every_canonical_brand_has_pdb_group(self):
        plan = build_canonical_plan()
        for org in plan.orgs:
            for brand in org.brands:
                assert brand.brand_id in plan.pdb_group, brand.brand_id

    def test_every_canonical_brand_has_whois_group(self):
        plan = build_canonical_plan()
        for org in plan.orgs:
            for brand in org.brands:
                assert brand.brand_id in plan.whois_group, brand.brand_id

    def test_notes_reference_member_asns(self):
        plan = build_canonical_plan()
        asns = set(plan.all_asns())
        for asn, synthesized in plan.notes.items():
            assert asn in asns
            for sibling in synthesized.true_siblings:
                assert sibling in asns

    def test_redirect_targets_resolvable(self, universe):
        plan = build_canonical_plan()
        scraper = HeadlessScraper(universe.web)
        for host in plan.redirects:
            result = scraper.resolve(f"https://{host}/")
            assert result.ok, (host, result.error)
