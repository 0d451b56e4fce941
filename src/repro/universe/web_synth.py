"""Build the simulated web from ground truth + corporate history.

Every brand's landing page, every post-merger redirect chain, every
framework-default favicon and dead host is planted here, so the scraper
discovers them the way the paper's Selenium crawl discovered the real
ones.

The planting helpers operate on a plain ``host → Site`` dict so the
streaming generator (:mod:`repro.universe.stream`) can plant one org's
sites at a time with a per-org RNG substream.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..config import UniverseConfig
from ..web.http import RedirectKind
from ..web.simweb import Site, make_favicon
from .entities import Brand, Org, OrgCategory

_REDIRECT_KINDS = (
    RedirectKind.HTTP_301,
    RedirectKind.HTTP_302,
    RedirectKind.META_REFRESH,
    RedirectKind.JAVASCRIPT,
)


def plant_org_sites(
    sites: Dict[str, Site], org: Org, rng: random.Random, config: UniverseConfig
) -> None:
    """Landing pages and favicons for every brand of one org."""
    for brand in org.brands:
        if not brand.website_host or brand.website_host in sites:
            continue
        alive = rng.random() >= config.dead_site_rate
        sites[brand.website_host] = Site(
            host=brand.website_host,
            title=brand.name,
            favicon=(
                make_favicon(brand.favicon_brand)
                if brand.favicon_brand
                else b""
            ),
            alive=alive,
        )


def plant_org_redirects(
    sites: Dict[str, Site], org: Org, rng: random.Random, config: UniverseConfig
) -> None:
    """Turn one org's acquired brands' sites into redirects to the parent.

    Acquisition order matters: a brand acquired in year Y redirects to
    whatever the acquirer's flagship site was — which may itself have
    become a redirect after a later event, producing multi-hop chains
    (the Clearwire → Sprint → T-Mobile pattern).
    """
    flagship = _flagship_brand(org)
    if flagship is None:
        return
    # Carriers consolidate their web presence aggressively after
    # acquisitions (the Level3 → CenturyLink → Lumen pattern).
    redirect_rate = config.merger_redirect_rate
    if org.category is OrgCategory.TRANSIT:
        redirect_rate = min(0.9, redirect_rate * 2.2)
    for brand in org.brands:
        if brand is flagship or not brand.acquired:
            continue
        if not brand.website_host or not flagship.website_host:
            continue
        if rng.random() >= redirect_rate:
            continue
        site = sites.get(brand.website_host)
        if site is None or not site.alive:
            continue
        if site.redirect_kind != RedirectKind.NONE:
            continue  # already part of a chain
        site.redirect_kind = rng.choice(_REDIRECT_KINDS)
        site.redirect_target = flagship.website_url


def _flagship_brand(org: Org) -> Optional[Brand]:
    """The brand whose site the others redirect to (the current identity)."""
    candidates = [b for b in org.brands if b.website_host and not b.acquired]
    if not candidates:
        candidates = [b for b in org.brands if b.website_host]
    if not candidates:
        return None
    # Deterministic: the lowest-ASN non-acquired brand is the flagship.
    return min(candidates, key=lambda b: b.primary_asn)
