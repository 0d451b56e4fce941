"""Unit tests for the headless-browser scraper (R&R resolution)."""


from repro.config import ScraperConfig
from repro.web.http import RedirectKind
from repro.web.scraper import HeadlessScraper
from repro.web.simweb import SimulatedWeb


def chain_web():
    """The Fig. 5b world: clearwire → sprint → t-mobile."""
    web = SimulatedWeb()
    web.add_page("https://www.t-mobile.com/", title="T-Mobile")
    web.add_redirect(
        "https://www.sprint.com/", "https://www.t-mobile.com/",
        kind=RedirectKind.HTTP_301,
    )
    web.add_redirect(
        "https://www.clearwire.com/", "https://www.sprint.com/",
        kind=RedirectKind.HTTP_302,
    )
    web.add_redirect(
        "https://meta.example.com/", "https://www.t-mobile.com/",
        kind=RedirectKind.META_REFRESH,
    )
    web.add_redirect(
        "https://js.example.com/", "https://www.t-mobile.com/",
        kind=RedirectKind.JAVASCRIPT,
    )
    return web


class TestChainResolution:
    def test_direct_page(self):
        result = HeadlessScraper(chain_web()).resolve("https://www.t-mobile.com/")
        assert result.ok
        assert result.final_url == "https://www.t-mobile.com/"
        assert result.hops == 0

    def test_two_hop_chain(self):
        result = HeadlessScraper(chain_web()).resolve("https://www.clearwire.com/")
        assert result.ok
        assert result.final_url == "https://www.t-mobile.com/"
        assert result.chain == (
            "https://www.clearwire.com/",
            "https://www.sprint.com/",
            "https://www.t-mobile.com/",
        )
        assert result.hops == 2
        assert result.redirected

    def test_meta_refresh_followed_by_browser(self):
        result = HeadlessScraper(chain_web()).resolve("https://meta.example.com/")
        assert result.final_url == "https://www.t-mobile.com/"

    def test_javascript_followed_by_browser(self):
        result = HeadlessScraper(chain_web()).resolve("https://js.example.com/")
        assert result.final_url == "https://www.t-mobile.com/"

    def test_plain_client_ignores_meta_refresh(self):
        scraper = HeadlessScraper(chain_web(), browser=False)
        result = scraper.resolve("https://meta.example.com/")
        assert result.ok
        assert result.final_url == "https://meta.example.com/"

    def test_plain_client_still_follows_http(self):
        scraper = HeadlessScraper(chain_web(), browser=False)
        result = scraper.resolve("https://www.clearwire.com/")
        assert result.final_url == "https://www.t-mobile.com/"


class TestFailureModes:
    def test_unknown_host(self):
        result = HeadlessScraper(chain_web()).resolve("https://void.example.org/")
        assert not result.ok
        assert result.final_url is None
        assert "not found" in result.error

    def test_dead_host(self):
        web = chain_web()
        web.add_page("https://down.example.org/", alive=False)
        result = HeadlessScraper(web).resolve("https://down.example.org/")
        assert not result.ok
        assert "timed out" in result.error

    def test_bad_url(self):
        result = HeadlessScraper(chain_web()).resolve("!!!")
        assert not result.ok
        assert "bad url" in result.error

    def test_redirect_loop_detected(self):
        web = SimulatedWeb()
        web.add_redirect("https://a.example.com/", "https://b.example.com/")
        web.add_redirect("https://b.example.com/", "https://a.example.com/")
        result = HeadlessScraper(web).resolve("https://a.example.com/")
        assert not result.ok
        assert "loop" in result.error

    def test_long_chain_exceeds_hop_limit(self):
        web = SimulatedWeb()
        for i in range(20):
            web.add_redirect(
                f"https://h{i}.example.com/", f"https://h{i + 1}.example.com/"
            )
        web.add_page("https://h20.example.com/")
        scraper = HeadlessScraper(web, config=ScraperConfig(max_redirect_hops=5))
        result = scraper.resolve("https://h0.example.com/")
        assert not result.ok
        assert "exceeded" in result.error

    def test_dangling_redirect_target(self):
        web = SimulatedWeb()
        web.add_redirect("https://a.example.com/", "https://gone.example.com/")
        result = HeadlessScraper(web).resolve("https://a.example.com/")
        assert not result.ok


class TestCachingAndBulk:
    def test_results_cached(self):
        web = chain_web()
        scraper = HeadlessScraper(web)
        before = web.fetch_count
        scraper.resolve("https://www.clearwire.com/")
        mid = web.fetch_count
        scraper.resolve("https://www.clearwire.com/")
        assert web.fetch_count == mid
        assert mid > before

    def test_resolve_many_keyed_by_raw_input(self):
        scraper = HeadlessScraper(chain_web())
        results = scraper.resolve_many(
            ["www.sprint.com", "https://www.t-mobile.com/"]
        )
        assert results["www.sprint.com"].final_url == "https://www.t-mobile.com/"

    def test_stats(self):
        scraper = HeadlessScraper(chain_web())
        scraper.resolve("https://www.clearwire.com/")
        scraper.resolve("https://void.example.org/")
        stats = scraper.stats()
        assert stats["resolved"] == 2
        assert stats["reachable"] == 1
        assert stats["redirected"] == 1

    def test_relative_redirect_target(self):
        from repro.web.simweb import Site

        web = SimulatedWeb()
        web.add_site(
            Site(
                host="rel.example.com",
                redirect_kind=RedirectKind.HTTP_302,
                redirect_target="/landing",
            )
        )
        # The relative target resolves to the same host, which redirects
        # to /landing again — the scraper must detect the loop and stop.
        result = HeadlessScraper(web).resolve("https://rel.example.com/")
        assert not result.ok
        assert "loop" in result.error
