"""Simulated-web substrate.

Offline stand-in for the paper's live-web interactions (§4.3):

* :mod:`repro.web.url` — URL parsing/normalization and the brand-label
  extraction ("subdomain" in the paper's terminology) used by the favicon
  decision tree.
* :mod:`repro.web.http` — HTTP semantics: status codes, ``Location``
  redirects, ``<meta http-equiv="refresh">`` and JavaScript redirects.
* :mod:`repro.web.simweb` — a registry of simulated sites (the "web").
* :mod:`repro.web.scraper` — the headless-browser analogue that resolves
  final URLs through refreshes and redirects (R&R) and collects favicons.
* :mod:`repro.web.favicon` — favicon API client (Google Favicon API shape).
* :mod:`repro.web.blocklists` — Appendix D blocklists.
* :mod:`repro.web.faults` — :class:`FaultyWeb`, seeded fetch faults for
  chaos runs.
"""

from .url import (
    ParsedURL,
    brand_label,
    normalize_url,
    parse_url,
    registrable_domain,
)
from .http import HTTPResponse, RedirectKind
from .simweb import SimulatedWeb, Site
from .scraper import HeadlessScraper, ScrapeResult
from .favicon import FaviconAPI
from .faults import FaultyWeb

__all__ = [
    "ParsedURL",
    "brand_label",
    "normalize_url",
    "parse_url",
    "registrable_domain",
    "HTTPResponse",
    "RedirectKind",
    "SimulatedWeb",
    "Site",
    "HeadlessScraper",
    "ScrapeResult",
    "FaviconAPI",
    "FaultyWeb",
]
