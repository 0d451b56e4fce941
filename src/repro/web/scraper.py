"""Headless-browser analogue: resolve final URLs through R&R chains.

This is the reproduction of §4.3.1's Selenium component.  Given a URL,
:class:`HeadlessScraper` follows HTTP 30x redirects and — because a real
headless browser renders pages — meta-refresh and JavaScript redirects,
until it reaches a stable final URL.  A plain HTTP client (``browser
=False``) follows only the 30x hops, which is what the R&R ablation
compares against.

Fetches run under a :class:`~repro.resilience.policy.RetryPolicy`
(transient failures — timeouts, resets, 5xx — are retried with backoff)
behind per-host circuit breakers, and only *permanent* failures enter the
negative cache: a URL that failed transiently is re-attemptable on the
next ``resolve`` call instead of being remembered as dead forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ResilienceConfig, ScraperConfig
from ..errors import CircuitOpenError, FetchError, URLError
from ..obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from ..resilience.breaker import BreakerRegistry
from ..resilience.policy import RetryPolicy
from .http import HTTPResponse
from .simweb import SimulatedWeb
from .url import normalize_url, parse_url


@dataclass(frozen=True)
class ScrapeResult:
    """Outcome of resolving one PeeringDB website URL."""

    requested_url: str
    final_url: Optional[str]
    chain: Tuple[str, ...]
    ok: bool
    error: str = ""
    #: Failed resolutions marked transient (timeouts, 5xx, open breaker)
    #: may succeed if re-attempted; permanent ones (NXDOMAIN, loops,
    #: HTTP 4xx final pages) will not.
    transient: bool = False

    @property
    def hops(self) -> int:
        """Number of redirect hops taken (0 = landed directly)."""
        return max(0, len(self.chain) - 1)

    @property
    def redirected(self) -> bool:
        return self.hops > 0


class HeadlessScraper:
    """Resolves URLs against a :class:`SimulatedWeb` (or compatible driver).

    The driver only needs a ``fetch(url) -> HTTPResponse`` method, so a
    real HTTP client can be substituted without touching Borges.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        config: Optional[ScraperConfig] = None,
        browser: bool = True,
        registry: Optional[MetricsRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self._web = web
        self._config = (config or ScraperConfig()).validate()
        self._browser = browser
        self._registry = registry
        self._resilience = (resilience or ResilienceConfig()).validate()
        self._retry = RetryPolicy(
            attempts=self._resilience.web_attempts,
            base_delay=self._resilience.web_base_delay,
            max_delay=self._resilience.web_max_delay,
            multiplier=self._resilience.backoff_multiplier,
            jitter=self._resilience.backoff_jitter,
        )
        self._breakers = BreakerRegistry(
            failure_threshold=self._resilience.breaker_failure_threshold,
            recovery_seconds=self._resilience.breaker_recovery_seconds,
            half_open_max_calls=self._resilience.breaker_half_open_max_calls,
            registry=registry,
            prefix="web",
        )
        self._cache: Dict[str, ScrapeResult] = {}
        #: Transient failures live here, not in the permanent cache:
        #: resolving the same URL again re-attempts it.
        self._transient: Dict[str, ScrapeResult] = {}
        self.reattempts = 0

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def browser_mode(self) -> bool:
        return self._browser

    def breaker_states(self) -> Dict[str, str]:
        """Current per-host circuit states (only hosts that failed vary)."""
        return self._breakers.states()

    def resolve(self, url: str) -> ScrapeResult:
        """Follow *url* to its final destination.

        Never raises for web-level failures; the result's ``ok`` flag and
        ``error`` string report dead hosts, loops, bad URLs and non-2xx
        final pages — matching the paper's accounting of unreachable PDB
        websites.
        """
        try:
            start = normalize_url(url)
        except URLError as exc:
            return ScrapeResult(
                requested_url=url, final_url=None, chain=(), ok=False,
                error=f"bad url: {exc.reason}",
            )
        if start in self._cache:
            self._metrics.counter(
                "web_resolve_total", "URL resolutions", outcome="cached"
            ).inc()
            return self._cache[start]
        if start in self._transient:
            self.reattempts += 1
            self._metrics.counter(
                "web_resolve_total", "URL resolutions", outcome="reattempt"
            ).inc()
        result = self._resolve_chain(start)
        if result.ok or not result.transient:
            self._cache[start] = result
            self._transient.pop(start, None)
        else:
            self._transient[start] = result
        metrics = self._metrics
        metrics.counter(
            "web_resolve_total", "URL resolutions",
            outcome="ok" if result.ok else "error",
        ).inc()
        if result.ok:
            metrics.histogram(
                "web_redirect_hops", "redirect-chain depth per resolved URL",
                buckets=DEFAULT_COUNT_BUCKETS,
            ).observe(result.hops)
        return result

    def _resolve_chain(self, start: str) -> ScrapeResult:
        chain: List[str] = [start]
        seen = {start}
        current = start
        for _hop in range(self._config.max_redirect_hops):
            try:
                response = self._fetch_with_retry(current)
            except CircuitOpenError as exc:
                return ScrapeResult(
                    requested_url=start, final_url=None,
                    chain=tuple(chain), ok=False, error=str(exc),
                    transient=True,
                )
            except FetchError as exc:
                return ScrapeResult(
                    requested_url=start, final_url=None,
                    chain=tuple(chain), ok=False, error=exc.reason,
                    transient=exc.transient,
                )
            target = self._next_target(response)
            if target is None:
                if response.is_redirect:
                    return ScrapeResult(
                        requested_url=start, final_url=None,
                        chain=tuple(chain), ok=False,
                        error="redirect without location",
                    )
                if not response.ok:
                    # A 404/4xx landing page is a *failed* resolution, not
                    # a final website (the paper counts these unreachable).
                    return ScrapeResult(
                        requested_url=start, final_url=None,
                        chain=tuple(chain), ok=False,
                        error=f"http {response.status}",
                    )
                return ScrapeResult(
                    requested_url=start, final_url=current,
                    chain=tuple(chain), ok=True,
                )
            try:
                target = self._absolutize(current, target)
            except URLError as exc:
                return ScrapeResult(
                    requested_url=start, final_url=None,
                    chain=tuple(chain), ok=False,
                    error=f"bad redirect target: {exc.reason}",
                )
            if target in seen:
                return ScrapeResult(
                    requested_url=start, final_url=None,
                    chain=tuple(chain) + (target,), ok=False,
                    error="redirect loop",
                )
            seen.add(target)
            chain.append(target)
            current = target
        return ScrapeResult(
            requested_url=start, final_url=None, chain=tuple(chain),
            ok=False,
            error=f"redirect chain exceeded {self._config.max_redirect_hops} hops",
        )

    def _fetch_with_retry(self, url: str) -> HTTPResponse:
        """One page fetch under the retry policy and the host's breaker.

        5xx responses are treated as transient fetch failures (retried,
        counted against the breaker); an open breaker fails fast with
        :class:`~repro.errors.CircuitOpenError`.
        """
        try:
            host = parse_url(url).host
        except URLError:
            host = url
        breaker = self._breakers.breaker(host)
        metrics = self._metrics

        def attempt() -> HTTPResponse:
            if not breaker.allow():
                raise CircuitOpenError(breaker.name)
            metrics.counter(
                "web_fetch_total", "page fetches issued by the scraper"
            ).inc()
            try:
                response = self._web.fetch(url)
            except FetchError as exc:
                if exc.transient:
                    breaker.record_failure()
                raise
            if response.status >= 500:
                breaker.record_failure()
                raise FetchError(
                    url, f"server error {response.status}", transient=True
                )
            breaker.record_success()
            return response

        def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
            metrics.counter(
                "web_fetch_retries_total", "transient fetch failures retried"
            ).inc()
            metrics.histogram(
                "web_backoff_seconds", "backoff slept before a fetch retry"
            ).observe(delay)

        return self._retry.execute(attempt, key=host, on_retry=on_retry)

    def _next_target(self, response: HTTPResponse) -> Optional[str]:
        """Where the browser goes next, or ``None`` if the page is final."""
        if response.is_redirect:
            return response.location
        if not response.ok:
            return None
        if not self._browser:
            return None
        if self._config.follow_meta_refresh:
            target = response.meta_refresh_target()
            if target:
                return target
        if self._config.execute_javascript:
            target = response.javascript_target()
            if target:
                return target
        return None

    @staticmethod
    def _absolutize(base: str, target: str) -> str:
        """Resolve a possibly-relative redirect target against *base*."""
        if "://" in target:
            return normalize_url(target)
        if target.startswith("/"):
            parsed = parse_url(base)
            return normalize_url(f"{parsed.scheme}://{parsed.host}{target}")
        # Bare-host targets ("www.example.com") occur in sloppy headers.
        return normalize_url(target)

    # -- bulk helpers -------------------------------------------------------

    def resolve_many(self, urls: Iterable[str]) -> Dict[str, ScrapeResult]:
        """Resolve many URLs; keyed by the *raw* input string."""
        results: Dict[str, ScrapeResult] = {}
        for raw in urls:
            results[raw] = self.resolve(raw)
        return results

    def stats(self) -> Dict[str, int]:
        resolved = list(self._cache.values()) + list(self._transient.values())
        return {
            "resolved": len(resolved),
            "reachable": sum(1 for r in resolved if r.ok),
            "redirected": sum(1 for r in resolved if r.ok and r.redirected),
            "unique_final_urls": len(
                {r.final_url for r in resolved if r.final_url}
            ),
            "transient_failures": len(self._transient),
            "reattempts": self.reattempts,
            "breakers_tripped": self._breakers.open_count(),
        }
