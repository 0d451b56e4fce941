"""URL parsing, normalization and brand-label extraction.

PeeringDB ``website`` fields are messy: missing schemes, mixed case,
trailing slashes, query junk.  This module canonicalizes them and
implements the "same subdomain" notion of §4.3.3 — the paper highlights
the brand token, e.g. ``www.orange.es`` and ``www.orange.pl`` share
**orange** — via :func:`brand_label`, which strips a public-suffix-aware
TLD and any ``www``-like prefix labels.

The public-suffix handling uses a built-in mini-list covering the
country-code second-level domains the synthetic universe (and the paper's
examples) use; a full PSL is unnecessary offline.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import URLError

#: Multi-label public suffixes recognized in addition to single-label TLDs.
#: Sorted longest-first at match time so ``riau.go.id`` beats ``go.id``.
_MULTI_SUFFIXES = frozenset(
    {
        "co.uk", "org.uk", "ac.uk", "gov.uk",
        "com.br", "net.br", "org.br", "gov.br",
        "com.ar", "net.ar", "com.mx", "com.co", "com.pe", "com.do",
        "com.py", "com.uy", "com.bo", "com.ec", "com.gt", "com.sv",
        "com.ni", "com.hn", "com.pa", "com.ve", "com.cl",
        "co.id", "go.id", "ac.id", "riau.go.id",
        "co.jp", "ne.jp", "or.jp", "ad.jp",
        "co.kr", "or.kr", "com.tw", "net.tw",
        "com.au", "net.au", "org.au",
        "co.nz", "net.nz", "co.za", "co.in", "net.in", "org.in",
        "com.sg", "com.my", "com.ph", "com.vn", "com.hk", "com.cn",
        "com.tr", "com.ru", "com.ua", "com.pl", "com.de",
        "co.il", "com.sa", "com.eg", "com.ng", "co.ke", "co.tz",
        "com.bd", "com.pk", "com.np", "com.lk",
        "ht.hr",
    }
)

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")

#: Hostname labels that carry no brand information when leading.
_GENERIC_PREFIXES = frozenset({"www", "web", "portal", "home", "m", "en", "es"})


@dataclass(frozen=True)
class ParsedURL:
    """A canonicalized URL split into its Borges-relevant parts."""

    scheme: str
    host: str
    path: str

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.host}{self.path}"

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.host.split("."))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.url


#: Distinct raw URLs whose parse is memoised.  A default-scale run
#: parses ~3k distinct URLs ~22k times (scrape, redirects, blocklists,
#: favicons); the bound keeps a larger universe's cache to a few MiB.
PARSE_CACHE_SIZE = 8192


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_url(raw: str) -> ParsedURL:
    """Parse and canonicalize *raw* into a :class:`ParsedURL`.

    Raises :class:`~repro.errors.URLError` on hosts that cannot be a DNS
    name.  A missing scheme defaults to ``http``.  The function is pure
    and its result frozen, so results are memoised in an LRU cache of
    :data:`PARSE_CACHE_SIZE` entries (failures are not cached).
    """
    if not raw or not raw.strip():
        raise URLError(raw, "empty")
    text = raw.strip()
    if not _SCHEME_RE.match(text):
        text = "http://" + text
    scheme, _, rest = text.partition("://")
    scheme = scheme.lower()
    if scheme not in ("http", "https"):
        raise URLError(raw, f"unsupported scheme {scheme!r}")
    host, slash, path = rest.partition("/")
    host = host.split("@")[-1].split(":")[0].strip().lower().rstrip(".")
    if not host or "." not in host:
        raise URLError(raw, "host is not a dotted DNS name")
    for label in host.split("."):
        if not _HOST_RE.match(label):
            raise URLError(raw, f"bad hostname label {label!r}")
    path = ("/" + path) if slash else "/"
    # Strip query/fragment; normalize trailing slash on the root only.
    path = path.split("?")[0].split("#")[0]
    if not path:
        path = "/"
    return ParsedURL(scheme=scheme, host=host, path=path)


def normalize_url(raw: str) -> str:
    """Canonical string form of *raw* (scheme-lowered, no query/fragment)."""
    return parse_url(raw).url


def public_suffix(host: str) -> str:
    """Return the public suffix of *host* using the built-in mini-list."""
    labels = host.lower().split(".")
    for take in (3, 2):
        if len(labels) > take:
            candidate = ".".join(labels[-take:])
            if candidate in _MULTI_SUFFIXES:
                return candidate
    return labels[-1]


def registrable_domain(host_or_url: str) -> str:
    """The registrable domain (eTLD+1), e.g. ``claro.com.pe``.

    Accepts either a bare host or a full URL.
    """
    host = host_or_url
    if "://" in host_or_url or "/" in host_or_url:
        host = parse_url(host_or_url).host
    host = host.lower().rstrip(".")
    suffix = public_suffix(host)
    suffix_labels = suffix.split(".")
    labels = host.split(".")
    if len(labels) <= len(suffix_labels):
        return host
    return ".".join(labels[-(len(suffix_labels) + 1):])


def brand_label(host_or_url: str) -> str:
    """The brand token of a host: ``www.orange.es`` → ``orange``.

    This is the "subdomain" the paper compares in the favicon decision
    tree: the leftmost label of the registrable domain.
    """
    domain = registrable_domain(host_or_url)
    return domain.split(".")[0]


def same_brand(url_a: str, url_b: str) -> bool:
    """True when both URLs share the brand token (§4.3.3 step 1)."""
    try:
        return brand_label(url_a) == brand_label(url_b)
    except URLError:
        return False


def host_of(url: str) -> Optional[str]:
    """Best-effort host extraction; ``None`` when unparsable."""
    try:
        return parse_url(url).host
    except URLError:
        return None
