"""Unit tests for HTTP semantics and the simulated web registry."""

import pytest

from repro.errors import FetchError
from repro.web.http import (
    HTTPResponse,
    RedirectKind,
    make_redirect_response,
    render_page_body,
    render_redirect_body,
)
from repro.web.simweb import (
    SimulatedWeb,
    favicon_hash,
    is_framework_favicon_brand,
    make_favicon,
)


class TestRedirectKind:
    def test_http_kinds(self):
        assert RedirectKind.HTTP_301.is_http
        assert RedirectKind.HTTP_302.is_http
        assert not RedirectKind.META_REFRESH.is_http

    def test_browser_only_kinds(self):
        assert RedirectKind.META_REFRESH.needs_browser
        assert RedirectKind.JAVASCRIPT.needs_browser
        assert not RedirectKind.HTTP_301.needs_browser


class TestHTTPResponse:
    def test_301_location(self):
        response = make_redirect_response(
            "http://a.example.com/", RedirectKind.HTTP_301, "http://b.example.com/"
        )
        assert response.status == 301
        assert response.is_redirect
        assert response.location == "http://b.example.com/"

    def test_meta_refresh_parsing(self):
        body = render_redirect_body(
            RedirectKind.META_REFRESH, "https://t.example.com/"
        )
        response = HTTPResponse(url="http://x.example.com/", status=200, body=body)
        assert response.meta_refresh_target() == "https://t.example.com/"
        assert response.browser_redirect_target() == "https://t.example.com/"

    def test_javascript_parsing(self):
        body = render_redirect_body(RedirectKind.JAVASCRIPT, "https://j.example.com/")
        response = HTTPResponse(url="http://x.example.com/", status=200, body=body)
        assert response.javascript_target() == "https://j.example.com/"

    def test_plain_page_has_no_redirect(self):
        response = HTTPResponse(
            url="http://x.example.com/", status=200,
            body=render_page_body("Welcome"),
        )
        assert response.ok
        assert response.browser_redirect_target() is None

    def test_render_redirect_body_rejects_http_kind(self):
        with pytest.raises(ValueError):
            render_redirect_body(RedirectKind.HTTP_301, "x")

    def test_make_redirect_rejects_none(self):
        with pytest.raises(ValueError):
            make_redirect_response("u", RedirectKind.NONE, "t")


class TestFavicons:
    def test_same_brand_same_bytes(self):
        assert make_favicon("claro") == make_favicon("claro")

    def test_different_brands_differ(self):
        assert make_favicon("claro") != make_favicon("orange")

    def test_hash_is_stable_and_short(self):
        digest = favicon_hash(make_favicon("claro"))
        assert digest == favicon_hash(make_favicon("claro"))
        assert len(digest) == 16

    def test_framework_brand_detection(self):
        assert is_framework_favicon_brand("bootstrap-default")
        assert is_framework_favicon_brand("webtemplate7-default")
        assert not is_framework_favicon_brand("claro")


class TestSimulatedWeb:
    def make_web(self):
        web = SimulatedWeb()
        web.add_page("https://www.lumen.com/", title="Lumen", favicon_brand="lumen")
        web.add_redirect(
            "https://www.centurylink.com/", "https://www.lumen.com/",
            kind=RedirectKind.HTTP_301,
        )
        web.add_page("https://dead.example.net/", alive=False)
        return web

    def test_fetch_landing_page(self):
        response = self.make_web().fetch("https://www.lumen.com/")
        assert response.ok
        assert "Lumen" in response.body

    def test_fetch_redirect(self):
        response = self.make_web().fetch("https://www.centurylink.com/")
        assert response.is_redirect
        assert response.location == "https://www.lumen.com/"

    def test_fetch_unknown_host_raises(self):
        with pytest.raises(FetchError):
            self.make_web().fetch("https://nxdomain.example.org/")

    def test_fetch_dead_site_raises(self):
        with pytest.raises(FetchError):
            self.make_web().fetch("https://dead.example.net/")

    def test_duplicate_host_rejected(self):
        web = self.make_web()
        with pytest.raises(ValueError):
            web.add_page("https://www.lumen.com/")

    def test_favicon_bytes(self):
        web = self.make_web()
        assert web.favicon_bytes("https://www.lumen.com/") == make_favicon("lumen")
        assert web.favicon_bytes("https://dead.example.net/") is None
        assert web.favicon_bytes("https://nxdomain.example.org/") is None

    def test_contains_and_len(self):
        web = self.make_web()
        assert "www.lumen.com" in web
        assert len(web) == 3

    def test_stats(self):
        web = self.make_web()
        web.fetch("https://www.lumen.com/")
        stats = web.stats()
        assert stats["hosts"] == 3
        assert stats["alive"] == 2
        assert stats["redirecting"] == 1
        assert stats["fetches"] == 1
