"""Favicon API client (the Google Favicon API stand-in of §4.3.1).

The real pipeline downloads icons through
``t3.gstatic.com/faviconV2?...&url=<site>&size=16``; offline we serve the
same contract from the simulated web: given a site URL, return the icon
bytes its host serves, or ``None`` after fallbacks fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..obs.registry import MetricsRegistry, get_registry
from ..types import FaviconHash, URL
from .simweb import SimulatedWeb, favicon_hash
from .url import host_of


@dataclass(frozen=True)
class FaviconRecord:
    """An icon fetched for one final URL."""

    url: URL
    content: bytes

    @property
    def digest(self) -> FaviconHash:
        return favicon_hash(self.content)


class FaviconAPI:
    """Fetch favicons for final URLs, with per-host caching.

    Mirrors the Google Favicon API's behaviour of returning an icon for a
    *site* (host), not a page: two URLs on the same host yield the same
    icon.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        size: int = 16,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._web = web
        self._size = size
        self._registry = registry
        self._cache: Dict[str, Optional[bytes]] = {}
        self.request_count = 0

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def request_url(self, site_url: URL) -> str:
        """The API request URL (for logging parity with the paper)."""
        return (
            "https://t3.gstatic.com/faviconV2?client=SOCIAL&type=FAVICON"
            f"&fallback_opts=TYPE,SIZE,URL&url={site_url}&size={self._size}"
        )

    def fetch(self, site_url: URL) -> Optional[FaviconRecord]:
        """Fetch the favicon for *site_url*; ``None`` if the site has none."""
        host = host_of(site_url)
        if host is None:
            return None
        if host not in self._cache:
            self.request_count += 1
            self._cache[host] = self._web.favicon_bytes(site_url)
            self._metrics.counter(
                "favicon_requests_total", "favicon API requests (per host)",
                outcome="hit" if self._cache[host] is not None else "none",
            ).inc()
        content = self._cache[host]
        if content is None:
            return None
        return FaviconRecord(url=site_url, content=content)

    def group_by_favicon(
        self, site_urls: Iterable[URL]
    ) -> Dict[FaviconHash, Tuple[URL, ...]]:
        """Group final URLs by favicon digest (§4.3.3's candidate groups).

        URLs whose sites serve no icon are dropped; the paper similarly
        reports 3 final URLs with no favicon.
        """
        groups: Dict[FaviconHash, list] = {}
        for url in site_urls:
            record = self.fetch(url)
            if record is None:
                continue
            groups.setdefault(record.digest, []).append(url)
        return {
            digest: tuple(sorted(set(urls))) for digest, urls in groups.items()
        }
