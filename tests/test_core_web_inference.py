"""Unit tests for the web-inference module: R&R and the favicon tree."""

import pytest

from repro.config import BorgesConfig, LLMConfig
from repro.core.web_inference import WebInferenceModule
from repro.llm.simulated import make_default_client
from repro.peeringdb import Network, Organization, PDBSnapshot
from repro.web.favicon import FaviconAPI
from repro.web.scraper import HeadlessScraper
from repro.web.simweb import SimulatedWeb


def build_world():
    """A miniature web with every decision-tree path represented."""
    web = SimulatedWeb()
    # Same final URL through redirects (Edgecast/Limelight pattern).
    web.add_page("https://www.edg.io/", favicon_brand="edgio")
    web.add_redirect("https://www.edgecast.com/", "https://www.edg.io/")
    # Shared favicon + same brand token (Orange pattern → step 1).
    web.add_page("https://www.orange.es/", favicon_brand="orange")
    web.add_page("https://www.orange.pl/", favicon_brand="orange")
    # Shared favicon + different tokens (Claro pattern → step 2 LLM).
    web.add_page("https://www.clarochile.cl/", favicon_brand="claro")
    web.add_page("https://www.claropr.com/", favicon_brand="claro")
    # Framework default favicon (Bootstrap trap → LLM rejects).
    web.add_page("https://www.anosbd.com/", favicon_brand="bootstrap-default")
    web.add_page("https://www.rptechzone.in/", favicon_brand="bootstrap-default")
    # Blocklisted platform both nets point at.
    web.add_page("https://github.com/", favicon_brand="github")
    # A dead site.
    web.add_page("https://dead.example.org/", alive=False)

    orgs = [Organization(org_id=i, name=f"org{i}") for i in range(1, 13)]
    nets = [
        Network(asn=15133, name="Edgecast", org_id=1,
                website="https://www.edgecast.com/"),
        Network(asn=22822, name="Limelight", org_id=2,
                website="https://www.edg.io/"),
        Network(asn=71101, name="Orange ES", org_id=3,
                website="https://www.orange.es/"),
        Network(asn=71102, name="Orange PL", org_id=4,
                website="https://www.orange.pl/"),
        Network(asn=71103, name="Claro CL", org_id=5,
                website="https://www.clarochile.cl/"),
        Network(asn=71104, name="Claro PR", org_id=6,
                website="https://www.claropr.com/"),
        Network(asn=71105, name="Unrelated BD", org_id=7,
                website="https://www.anosbd.com/"),
        Network(asn=71106, name="Unrelated IN", org_id=8,
                website="https://www.rptechzone.in/"),
        Network(asn=71107, name="Tiny A", org_id=9,
                website="https://github.com/"),
        Network(asn=71108, name="Tiny B", org_id=10,
                website="https://github.com/"),
        Network(asn=71109, name="Dead", org_id=11,
                website="https://dead.example.org/"),
        Network(asn=71110, name="No site", org_id=12),
    ]
    snapshot = PDBSnapshot.build(orgs, nets)
    return web, snapshot


def make_module(web, config=None):
    config = config or BorgesConfig(
        llm=LLMConfig(extraction_error_rate=0.0, classifier_error_rate=0.0)
    )
    client = make_default_client(config.llm)
    return WebInferenceModule(
        HeadlessScraper(web), FaviconAPI(web), client, config
    )


@pytest.fixture(scope="module")
def world_result():
    web, snapshot = build_world()
    module = make_module(web)
    return module.run(snapshot)


class TestRR:
    def test_redirect_pair_grouped(self, world_result):
        assert frozenset({15133, 22822}) in world_result.rr_clusters

    def test_blocklisted_platform_not_grouped(self, world_result):
        for cluster in world_result.rr_clusters:
            assert not {71107, 71108} <= cluster

    def test_dead_site_unresolved(self, world_result):
        assert 71109 not in world_result.final_url_of_asn

    def test_no_website_net_ignored(self, world_result):
        assert 71110 not in world_result.final_url_of_asn

    def test_stats_accounting(self, world_result):
        stats = world_result.stats
        assert stats.nets_with_website == 11
        assert stats.unique_urls == 10  # the two tiny nets share one URL
        assert stats.reachable_urls == 9  # dead.example.org fails
        assert stats.blocked_final_urls == 2


class TestFaviconTree:
    def test_same_token_grouped_step1(self, world_result):
        assert frozenset({71101, 71102}) in world_result.favicon_clusters

    def test_different_token_grouped_by_llm(self, world_result):
        assert any(
            {71103, 71104} <= cluster
            for cluster in world_result.favicon_clusters
        )

    def test_framework_favicon_rejected(self, world_result):
        for cluster in world_result.favicon_clusters:
            assert not {71105, 71106} <= cluster

    def test_decision_log_steps(self, world_result):
        steps = {d.step for d in world_result.decisions}
        assert "same_subdomain" in steps
        assert "llm_company" in steps
        assert "llm_rejected" in steps

    def test_llm_reply_recorded(self, world_result):
        replies = [
            d.llm_reply for d in world_result.decisions
            if d.step == "llm_company"
        ]
        assert any("Claro" in reply for reply in replies)


class TestConfigSwitches:
    def test_favicons_disabled(self):
        web, snapshot = build_world()
        module = make_module(web)
        result = module.run(snapshot, favicons=False)
        assert result.favicon_clusters == []
        assert result.rr_clusters  # R&R still runs

    def test_blocklists_disabled_groups_platform(self):
        web, snapshot = build_world()
        config = BorgesConfig(
            apply_blocklists=False,
            llm=LLMConfig(extraction_error_rate=0.0, classifier_error_rate=0.0),
        )
        module = make_module(web, config)
        result = module.run(snapshot)
        assert any(
            {71107, 71108} <= cluster for cluster in result.rr_clusters
        )

    def test_llm_step_disabled_leaves_claro_split(self):
        web, snapshot = build_world()
        config = BorgesConfig(
            favicon_llm_step=False,
            llm=LLMConfig(extraction_error_rate=0.0, classifier_error_rate=0.0),
        )
        module = make_module(web, config)
        result = module.run(snapshot)
        assert not any(
            {71103, 71104} <= cluster for cluster in result.favicon_clusters
        )
        # Step 1 still groups the Orange pair.
        assert frozenset({71101, 71102}) in result.favicon_clusters
