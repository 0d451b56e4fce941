"""The web-based inference module (§4.3): R&R matching and favicons.

Two sub-features over the scraped web:

* **Final URL matching (R&R, §4.3.2)** — resolve every PeeringDB website
  through refreshes and redirects; networks landing on the same final URL
  (after the Appendix-D.2 blocklist) are siblings.
* **Favicon classification (§4.3.3)** — group final URLs by favicon;
  same favicon + same brand token ("subdomain") groups directly (after
  the Appendix-D.1 blocklist); groups whose tokens differ go to the LLM
  classifier (Listing 3), which decides company vs web-framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import BorgesConfig
from ..errors import LLMResponseError
from ..llm.client import ChatClient
from ..llm.parsing import parse_classifier_reply
from ..llm.prompts import render_classifier_messages
from ..obs.log import get_event_log
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.tracer import Tracer, get_tracer
from ..peeringdb import PDBSnapshot
from ..types import ASN, Cluster, FaviconHash, URL
from ..web.blocklists import is_blocked_brand, is_blocked_final_url
from ..web.favicon import FaviconAPI
from ..web.scraper import HeadlessScraper
from ..web.url import brand_label

#: WebInferenceStats fields owned by the favicon phase (the rest belong
#: to the scrape and R&R phases).
_FAVICON_STAT_FIELDS = (
    "favicons_fetched",
    "unique_favicons",
    "shared_favicon_groups",
    "same_subdomain_groups",
    "llm_groups_accepted",
    "llm_groups_rejected",
)


@dataclass
class WebInferenceStats:
    """Counters mirroring §5.2's web accounting."""

    nets_with_website: int = 0
    unique_urls: int = 0
    reachable_urls: int = 0
    unique_final_urls: int = 0
    blocked_final_urls: int = 0
    favicons_fetched: int = 0
    unique_favicons: int = 0
    shared_favicon_groups: int = 0
    same_subdomain_groups: int = 0
    llm_groups_accepted: int = 0
    llm_groups_rejected: int = 0


@dataclass(frozen=True)
class FaviconDecision:
    """The decision-tree outcome for one shared-favicon group."""

    favicon: FaviconHash
    urls: Tuple[URL, ...]
    step: str  # "blocklist" | "same_subdomain" | "llm_company" | "llm_rejected"
    grouped: bool
    llm_reply: str = ""


@dataclass
class WebInferenceResult:
    """Everything the web module produced."""

    rr_clusters: List[Cluster] = field(default_factory=list)
    favicon_clusters: List[Cluster] = field(default_factory=list)
    final_url_of_asn: Dict[ASN, URL] = field(default_factory=dict)
    decisions: List[FaviconDecision] = field(default_factory=list)
    stats: WebInferenceStats = field(default_factory=WebInferenceStats)


class WebInferenceModule:
    """Runs the full §4.3 pipeline over one snapshot."""

    def __init__(
        self,
        scraper: HeadlessScraper,
        favicon_api: FaviconAPI,
        client: ChatClient,
        config: Optional[BorgesConfig] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._scraper = scraper
        self._favicons = favicon_api
        self._client = client
        self._config = (config or BorgesConfig()).validate()
        self._tracer = tracer
        self._registry = registry

    @property
    def _spans(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def run(self, pdb: PDBSnapshot, favicons: bool = True) -> WebInferenceResult:
        """Run scraping + R&R matching, and the favicon stage unless
        *favicons* is False (the pipeline disables it when the feature is
        off, sparing the classifier's LLM calls)."""
        result = WebInferenceResult()
        stats = result.stats

        final_of_asn, scrape_stats = self.scrape_urls(pdb)
        result.final_url_of_asn = final_of_asn
        for name, value in scrape_stats.items():
            setattr(stats, name, value)

        # -- R&R: group by final URL (§4.3.2) ------------------------------
        with self._spans.span("feature.rr") as span:
            by_final, stats.blocked_final_urls = self.rr_grouping(final_of_asn)
            result.rr_clusters = [
                frozenset(asns) for asns in by_final.values()
            ]
            span.set_attribute("clusters", len(result.rr_clusters))
            span.set_attribute("blocked_final_urls", stats.blocked_final_urls)

        # -- favicons (§4.3.3) ------------------------------------------------
        if favicons:
            with self._spans.span("feature.favicons") as span:
                clusters, decisions, favicon_stats = self.favicon_stage(by_final)
                result.favicon_clusters = clusters
                result.decisions.extend(decisions)
                for name in _FAVICON_STAT_FIELDS:
                    setattr(stats, name, getattr(favicon_stats, name))
                span.set_attribute("clusters", len(result.favicon_clusters))
                span.set_attribute(
                    "shared_favicon_groups", stats.shared_favicon_groups
                )
        return result

    # -- DAG-facing phases ---------------------------------------------------
    #
    # The stage DAG runs the three §4.3 phases as separate, individually
    # cached stages (scrape → rr, scrape → favicons), so each one is also
    # exposed as a standalone method.  ``run`` above composes them for
    # direct module users.

    def scrape_urls(
        self, pdb: PDBSnapshot
    ) -> Tuple[Dict[ASN, URL], Dict[str, int]]:
        """Resolve every PDB website to its final URL (the shared stage)."""
        with self._spans.span("web.scrape") as span:
            url_to_asns: Dict[str, List[ASN]] = {}
            nets_with_website = 0
            for net in pdb.nets_with_websites():
                nets_with_website += 1
                url_to_asns.setdefault(net.website.strip(), []).append(net.asn)

            final_of_asn: Dict[ASN, URL] = {}
            reachable = 0
            for raw_url, asns in sorted(url_to_asns.items()):
                scrape = self._scraper.resolve(raw_url)
                if not scrape.ok or not scrape.final_url:
                    continue
                reachable += 1
                for asn in asns:
                    final_of_asn[asn] = scrape.final_url
            stats = {
                "nets_with_website": nets_with_website,
                "unique_urls": len(url_to_asns),
                "reachable_urls": reachable,
                "unique_final_urls": len(set(final_of_asn.values())),
            }
            span.set_attribute("unique_urls", stats["unique_urls"])
            span.set_attribute("reachable_urls", stats["reachable_urls"])
        return final_of_asn, stats

    def rr_grouping(
        self, final_of_asn: Dict[ASN, URL]
    ) -> Tuple[Dict[URL, List[ASN]], int]:
        """Group ASNs by final URL after the Appendix-D.2 blocklist.

        Returns the grouping plus the blocked-URL count.  Cheap pure
        dictionary work, so the favicon stage recomputes it from the
        scrape artifact rather than depending on the rr stage.
        """
        by_final: Dict[URL, List[ASN]] = {}
        for asn, final_url in sorted(final_of_asn.items()):
            by_final.setdefault(final_url, []).append(asn)
        if not self._config.apply_blocklists:
            return by_final, 0
        # One verdict per distinct final URL; the count stays per ASN.
        blocked = 0
        for final_url in [u for u in by_final if is_blocked_final_url(u)]:
            blocked += len(by_final.pop(final_url))
        if blocked:
            self._metrics.counter(
                "web_blocklist_rejections_total",
                "URLs dropped by the Appendix-D blocklists",
                list="final_url",
            ).inc(blocked)
        return by_final, blocked

    def favicon_stage(
        self, by_final: Dict[URL, List[ASN]]
    ) -> Tuple[List[Cluster], List[FaviconDecision], WebInferenceStats]:
        """The §4.3.3 decision tree over one R&R grouping."""
        scratch = WebInferenceResult()
        clusters = self._favicon_stage(by_final, scratch, scratch.stats)
        return clusters, scratch.decisions, scratch.stats

    # -- favicon decision tree (Fig. 6) -------------------------------------

    def _favicon_stage(
        self,
        by_final: Dict[URL, List[ASN]],
        result: WebInferenceResult,
        stats: WebInferenceStats,
    ) -> List[Cluster]:
        groups = self._favicons.group_by_favicon(sorted(by_final))
        stats.favicons_fetched = sum(len(urls) for urls in groups.values())
        stats.unique_favicons = len(groups)
        clusters: List[Cluster] = []
        for digest in sorted(groups):
            urls = groups[digest]
            if len(urls) < 2:
                continue
            stats.shared_favicon_groups += 1
            clusters.extend(
                self._decide_group(digest, urls, by_final, result, stats)
            )
        return clusters

    def _decide_group(
        self,
        digest: FaviconHash,
        urls: Tuple[URL, ...],
        by_final: Dict[URL, List[ASN]],
        result: WebInferenceResult,
        stats: WebInferenceStats,
    ) -> List[Cluster]:
        """Apply the Fig. 6 decision tree to one shared-favicon group."""
        clusters: List[Cluster] = []

        # Step 0: blocklist — mainstream-platform brands never group.
        if self._config.apply_blocklists:
            kept = tuple(u for u in urls if not is_blocked_brand(u))
            if len(kept) < len(urls):
                self._metrics.counter(
                    "web_blocklist_rejections_total",
                    "URLs dropped by the Appendix-D blocklists",
                    list="brand",
                ).inc(len(urls) - len(kept))
                result.decisions.append(
                    FaviconDecision(
                        favicon=digest,
                        urls=tuple(u for u in urls if u not in kept),
                        step="blocklist",
                        grouped=False,
                    )
                )
            urls = kept
        if len(urls) < 2:
            return clusters

        # Step 1: identical favicon + identical brand token → same company.
        by_token: Dict[str, List[URL]] = {}
        for url in urls:
            by_token.setdefault(brand_label(url), []).append(url)
        leftovers: List[URL] = []
        for token in sorted(by_token):
            token_urls = by_token[token]
            if len(token_urls) >= 2:
                stats.same_subdomain_groups += 1
                clusters.append(self._urls_to_cluster(token_urls, by_final))
                result.decisions.append(
                    FaviconDecision(
                        favicon=digest,
                        urls=tuple(token_urls),
                        step="same_subdomain",
                        grouped=True,
                    )
                )
            else:
                leftovers.extend(token_urls)

        # Step 2: differing tokens → LLM classifier over the whole group.
        if not self._config.favicon_llm_step or len(urls) < 2 or not leftovers:
            return clusters
        verdict_reply, is_company = self._classify(digest, urls)
        if is_company:
            stats.llm_groups_accepted += 1
            clusters.append(self._urls_to_cluster(list(urls), by_final))
            result.decisions.append(
                FaviconDecision(
                    favicon=digest, urls=tuple(urls), step="llm_company",
                    grouped=True, llm_reply=verdict_reply,
                )
            )
        else:
            stats.llm_groups_rejected += 1
            result.decisions.append(
                FaviconDecision(
                    favicon=digest, urls=tuple(urls), step="llm_rejected",
                    grouped=False, llm_reply=verdict_reply,
                )
            )
        return clusters

    def _classify(
        self, digest: FaviconHash, urls: Sequence[URL]
    ) -> Tuple[str, bool]:
        record = self._favicons.fetch(urls[0])
        if record is None:
            return "", False
        messages = render_classifier_messages(list(urls), record.content)
        response = self._client.chat(messages)
        try:
            verdict = parse_classifier_reply(response.content)
        except LLMResponseError as exc:
            get_event_log().emit(
                "favicon.unparsable_reply",
                severity="warning",
                favicon=digest,
                error=str(exc),
            )
            return response.content, False
        return verdict.answer, verdict.is_company

    @staticmethod
    def _urls_to_cluster(
        urls: Sequence[URL], by_final: Dict[URL, List[ASN]]
    ) -> Cluster:
        members: Set[ASN] = set()
        for url in urls:
            members.update(by_final.get(url, ()))
        return frozenset(members)
