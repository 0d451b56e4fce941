"""Seeded fetch faults for the simulated web.

:class:`FaultyWeb` is the web surface's half of the chaos layer: it
draws coins from a :class:`~repro.resilience.faults.FaultInjector` and
turns them into the timeouts, resets and 503s the scraper's retries
and breakers must survive.
"""

from __future__ import annotations

from ..errors import FetchError
from ..resilience.faults import WEB_SURFACE, FaultInjector
from .http import HTTPResponse
from .url import parse_url


class FaultyWeb:
    """Web-driver decorator injecting seeded fetch faults.

    Wraps anything with the :class:`repro.web.simweb.SimulatedWeb`
    interface; non-``fetch`` calls (site registry, favicon bytes, stats)
    pass through untouched.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    @property
    def inner(self):
        return self._inner

    def _key(self, url: str) -> str:
        try:
            return parse_url(url).host
        except Exception:
            return url

    def fetch(self, url: str):
        kind = self._injector.next_fault(WEB_SURFACE, self._key(url))
        if kind == "timeout":
            raise FetchError(url, "injected fault: connection timed out", transient=True)
        if kind == "reset":
            raise FetchError(url, "injected fault: connection reset", transient=True)
        if kind == "server_error":
            return HTTPResponse(
                url=url, status=503, body="injected fault: service unavailable"
            )
        return self._inner.fetch(url)

    def favicon_bytes(self, url: str):
        return self._inner.favicon_bytes(url)

    def __getattr__(self, item):
        return getattr(self._inner, item)

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, host: str) -> bool:
        return host in self._inner
