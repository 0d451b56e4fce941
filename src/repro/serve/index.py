"""The immutable read-side index: one compiled blob per mapping.

A :class:`MappingIndex` is the serve-layer counterpart of the write-side
pipeline output.  :meth:`MappingIndex.compile` lays out org rows in one
pass into the flat snapshot blob that :mod:`repro.serve.shm.blob`
describes; :meth:`MappingIndex.build` feeds it an :class:`OrgMapping`,
and a release file's load feeds it the rows grouped from its records.
Every cluster becomes one org row with a stable ``BORGES-{lowest ASN}``
handle (the same handle scheme :mod:`repro.core.release` publishes),
every ASN resolves through a linear-probing slot table, and a sorted
token table answers free-text search.  The index then reads that buffer in place — the same class
serves a freshly built mapping, a blob file, or a worker's ``mmap`` of
a shared-memory segment — and hands back lazy ``__slots__`` record
views that decode strings and member spans only when accessed.

Indexes are immutable once built — the
:class:`~repro.serve.store.SnapshotStore` swaps whole generations rather
than mutating one in place, which is what lets readers run lock-free.
"""

from __future__ import annotations

import re
import struct
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.mapping import OrgMapping
from ..digest import stable_digest
from ..errors import UnknownASNError, UnknownOrgError
from ..types import ASN
from .shm.blob import (
    _ORG,
    _SLOT,
    _TOKEN,
    EMPTY_KEY,
    EMPTY_SLOT,
    ORG_SIZE,
    SLOT_SIZE,
    TOKEN_SIZE,
    BlobFormatError,
    BlobHeader,
    assemble_blob,
    mix64,
    read_header,
    slot_count_for,
    verify_blob,
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Tokens too common to discriminate between organizations; keeping them
#: out of the inverted index keeps search postings short.
_STOPWORDS = frozenset(
    {"inc", "llc", "ltd", "corp", "co", "sa", "ag", "gmbh", "the", "of"}
)

_U64 = struct.Struct("<Q")

#: One organization row for :meth:`MappingIndex.compile`: sorted member
#: ASNs, org name, country, and one (registry name, website) per member.
OrgRow = Tuple[Sequence[ASN], str, str, Iterable[Tuple[str, str]]]


def tokenize(text: str) -> List[str]:
    """Lowercase alphanumeric tokens of *text* (stopwords dropped)."""
    return [
        token
        for token in _TOKEN_RE.findall(text.lower())
        if token not in _STOPWORDS
    ]


def org_handle(cluster_min_asn: int) -> str:
    """The stable release handle of a cluster (see core/release.py)."""
    return f"BORGES-{cluster_min_asn}"


def _u64s(values: List[int]) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


class OrgRecord:
    """Lazy view of one organization row."""

    __slots__ = ("_index", "_row")

    def __init__(self, index: "MappingIndex", row: int) -> None:
        self._index = index
        self._row = row

    @property
    def org_id(self) -> str:
        return org_handle(self._index._org_fields(self._row)[6])

    @property
    def name(self) -> str:
        fields = self._index._org_fields(self._row)
        return self._index._string(fields[0], fields[1])

    @property
    def country(self) -> str:
        fields = self._index._org_fields(self._row)
        return self._index._string(fields[2], fields[3])

    @property
    def members(self) -> Tuple[ASN, ...]:
        return self._index._members(self._index._org_fields(self._row))

    @property
    def size(self) -> int:
        return self._index._org_fields(self._row)[5]

    def to_json(self) -> Dict[str, object]:
        index = self._index
        fields = index._org_fields(self._row)
        return {
            "org_id": org_handle(fields[6]),
            "name": index._string(fields[0], fields[1]),
            "country": index._string(fields[2], fields[3]),
            "size": fields[5],
            "members": list(index._members(fields)),
        }


class AsnRecord:
    """Lazy view of one ASN slot: registry name/website plus the org."""

    __slots__ = ("_index", "asn", "_slot")

    def __init__(self, index: "MappingIndex", asn: ASN, slot: int) -> None:
        self._index = index
        self.asn = asn
        self._slot = slot

    @property
    def name(self) -> str:
        fields = self._index._slot_fields(self._slot)
        return self._index._string(fields[1], fields[2])

    @property
    def website(self) -> str:
        fields = self._index._slot_fields(self._slot)
        return self._index._string(fields[3], fields[4])

    @property
    def org(self) -> OrgRecord:
        return OrgRecord(self._index, self._index._slot_fields(self._slot)[5])

    def to_json(self) -> Dict[str, object]:
        index = self._index
        fields = index._slot_fields(self._slot)
        return {
            "asn": self.asn,
            "name": index._string(fields[1], fields[2]),
            "website": index._string(fields[3], fields[4]),
            "org": OrgRecord(index, fields[5]).to_json(),
        }


class MappingIndex:
    """ASN→org / org→members lookups plus org-name search over one blob.

    Build from a mapping with :meth:`build`, or wrap an existing blob
    buffer — ``bytes`` or an ``mmap`` view of a segment file — with the
    constructor, which verifies it first unless *verify* is false.  The
    buffer must outlive the index; when it came from
    :func:`~repro.serve.shm.segment.map_blob_file` the mapping object is
    kept alive on ``_mapped``.
    """

    __slots__ = (
        "_buf",
        "header",
        "method",
        "digest",
        "_arena_off",
        "_slots_off",
        "_orgs_off",
        "_members_off",
        "_asns_off",
        "_tokens_off",
        "_postings_off",
        "_mask",
        "_mapped",
    )

    def __init__(self, buf, verify: bool = True) -> None:
        self._buf = buf
        self.header: BlobHeader = (
            verify_blob(buf) if verify else read_header(buf)
        )
        self._arena_off = self.header.section("arena")[0]
        self._slots_off = self.header.section("slots")[0]
        self._orgs_off = self.header.section("orgs")[0]
        self._members_off = self.header.section("members")[0]
        self._asns_off = self.header.section("asns")[0]
        self._tokens_off = self.header.section("tokens")[0]
        self._postings_off = self.header.section("postings")[0]
        self._mask = self.header.slot_count - 1
        self.method = self._string(*self.header.method_ref)
        self.digest = self.header.index_digest
        self._mapped = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        mapping: OrgMapping,
        whois=None,
        pdb=None,
    ) -> "MappingIndex":
        """Lower *mapping* (plus optional WHOIS/PeeringDB metadata).

        *whois* (a :class:`~repro.whois.WhoisDataset`) supplies per-ASN
        registry names and org countries; *pdb* (a
        :class:`~repro.peeringdb.PDBSnapshot`) supplies operator
        websites.  Both are optional so a bare mapping JSON is servable.
        Raises :class:`~repro.serve.shm.blob.BlobFormatError` for an ASN
        the slot table cannot store (negative, or ≥ ``EMPTY_KEY``).
        """
        delegations = whois.delegations if whois is not None else {}
        nets = pdb.nets if pdb is not None else {}

        def registry_names(asn: ASN) -> Tuple[str, str]:
            name = ""
            website = ""
            delegation = delegations.get(asn)
            if delegation is not None:
                name = delegation.name
            net = nets.get(asn)
            if net is not None:
                website = net.website
                name = name or net.name
            return name, website

        def rows() -> Iterator[OrgRow]:
            for cluster in mapping.clusters():
                members = sorted(cluster)
                representative = members[0]
                country = ""
                if representative in delegations:
                    country = whois.org_of(representative).country
                yield (
                    members,
                    mapping.org_name_of(representative),
                    country,
                    map(registry_names, members),
                )

        return cls.compile(mapping.method, mapping.universe_size, rows())

    @classmethod
    def compile(
        cls, method: str, asn_count: int, rows: Iterable[OrgRow]
    ) -> "MappingIndex":
        """Lay out *rows*, one per organization, as an index blob.

        The one compiler behind every generation: :meth:`build` feeds it
        the clusters of an :class:`OrgMapping`, and a release file's load
        feeds it rows grouped from its records
        (:meth:`~repro.whois.as2org_file.ReleaseRecords.org_rows`).  A
        row is ``(members, org name, country, names)``: the org's
        members in ascending order, and one (registry name, website)
        pair per member.  Rows are read once, in order; org row numbers
        follow it.  *asn_count* is the members' total, which sizes the
        slot table.
        """
        arena = bytearray()
        interned: Dict[str, Tuple[int, int]] = {}

        def ref(text: str) -> Tuple[int, int]:
            got = interned.get(text)
            if got is None:
                data = text.encode("utf-8")
                got = interned[text] = (len(arena), len(data))
                arena.extend(data)
            return got

        method_ref = ref(method)
        slot_count = slot_count_for(asn_count)
        mask = slot_count - 1
        slots = bytearray(EMPTY_SLOT * slot_count)
        taken = bytearray(slot_count)
        orgs = bytearray()
        clusters: List[Sequence[ASN]] = []
        postings: Dict[str, List[int]] = {}
        member_cursor = 0
        for row, (members, org_name, country, names) in enumerate(rows):
            representative = members[0]
            if representative < 0 or members[-1] >= EMPTY_KEY:
                raise BlobFormatError(
                    f"cluster of AS{representative} holds an ASN outside "
                    "the storable range [0, 2^64 - 1)"
                )
            if member_cursor + len(members) > asn_count:
                raise BlobFormatError(
                    f"rows hold more than the {asn_count} ASNs announced"
                )
            orgs += _ORG.pack(
                *ref(org_name),
                *ref(country),
                member_cursor,
                len(members),
                representative,
            )
            clusters.append(members)
            member_cursor += len(members)
            for token in set(tokenize(org_name)):
                postings.setdefault(token, []).append(row)
            for asn, (name, website) in zip(members, names):
                slot = mix64(asn) & mask
                while taken[slot]:
                    slot = (slot + 1) & mask
                taken[slot] = 1
                _SLOT.pack_into(
                    slots,
                    slot * SLOT_SIZE,
                    asn,
                    *ref(name),
                    *ref(website),
                    row,
                )
        if member_cursor != asn_count:
            raise BlobFormatError(
                f"rows hold {member_cursor} ASNs, {asn_count} announced"
            )

        tokens = bytearray(len(postings) * TOKEN_SIZE)
        postings_flat: List[int] = []
        for row, token in enumerate(sorted(postings)):
            orgs_of_token = postings[token]
            _TOKEN.pack_into(
                tokens,
                row * TOKEN_SIZE,
                *ref(token),
                len(postings_flat),
                len(orgs_of_token),
            )
            postings_flat.extend(orgs_of_token)

        members_flat = [asn for members in clusters for asn in members]
        digest = stable_digest({"method": method, "clusters": clusters})
        blob = assemble_blob(
            digest,
            method_ref,
            asn_count=asn_count,
            org_count=len(clusters),
            token_count=len(postings),
            slot_count=slot_count,
            sections={
                "arena": arena,
                "slots": slots,
                "orgs": orgs,
                "members": _u64s(members_flat),
                "asns": _u64s(sorted(members_flat)),
                "tokens": tokens,
                "postings": struct.pack(
                    f"<{len(postings_flat)}I", *postings_flat
                ),
            },
        )
        return cls(blob, verify=False)

    @property
    def blob(self):
        """The blob buffer this index reads (``bytes`` or an ``mmap``)."""
        return self._buf

    # -- raw decoding ------------------------------------------------------

    def _string(self, offset: int, length: int) -> str:
        start = self._arena_off + offset
        return str(self._buf[start:start + length], "utf-8")

    def _slot_fields(self, slot: int) -> tuple:
        return _SLOT.unpack_from(self._buf, self._slots_off + slot * SLOT_SIZE)

    def _org_fields(self, row: int) -> tuple:
        return _ORG.unpack_from(self._buf, self._orgs_off + row * ORG_SIZE)

    def _members(self, org_fields: tuple) -> Tuple[ASN, ...]:
        return struct.unpack_from(
            f"<{org_fields[5]}Q",
            self._buf,
            self._members_off + org_fields[4] * 8,
        )

    def _find_slot(self, asn: int) -> int:
        """The slot holding *asn*, or -1 on a miss."""
        if not 0 <= asn < EMPTY_KEY:
            return -1  # unstorable, and the sentinel must never match
        buf, base, mask = self._buf, self._slots_off, self._mask
        slot = mix64(asn) & mask
        while True:
            (stored,) = _U64.unpack_from(buf, base + slot * SLOT_SIZE)
            if stored == asn:
                return slot
            if stored == EMPTY_KEY:
                return -1
            slot = (slot + 1) & mask

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return self.header.org_count

    def __contains__(self, asn: int) -> bool:
        return self._find_slot(asn) >= 0

    @property
    def asn_count(self) -> int:
        return self.header.asn_count

    def asns(self) -> List[ASN]:
        return list(
            struct.unpack_from(
                f"<{self.header.asn_count}Q", self._buf, self._asns_off
            )
        )

    def first_asn(self) -> Optional[ASN]:
        """The lowest ASN, ``asns()[0]``, without unpacking the table
        (``None`` for an empty index)."""
        if not self.header.asn_count:
            return None
        return _U64.unpack_from(self._buf, self._asns_off)[0]

    def lookup_asn(self, asn: ASN) -> AsnRecord:
        slot = self._find_slot(asn)
        if slot < 0:
            raise UnknownASNError(asn)
        return AsnRecord(self, asn, slot)

    def org(self, org_id: str) -> OrgRecord:
        # Handles are derived ("BORGES-{lowest member}"), so resolving
        # one is an ASN lookup plus a representative check — no separate
        # org hash table needed.  The round-trip format check rejects
        # aliases like "BORGES-007" that parse but never get minted.
        if org_id.startswith("BORGES-"):
            raw = org_id[len("BORGES-"):]
            try:
                rep = int(raw)
            except ValueError:
                rep = -1
            if rep >= 0 and str(rep) == raw:
                slot = self._find_slot(rep)
                if slot >= 0:
                    row = self._slot_fields(slot)[5]
                    if self._org_fields(row)[6] == rep:
                        return OrgRecord(self, row)
        raise UnknownOrgError(org_id)

    def org_of(self, asn: ASN) -> OrgRecord:
        return self.lookup_asn(asn).org

    def are_siblings(self, a: ASN, b: ASN) -> bool:
        left = self._find_slot(a)
        right = self._find_slot(b)
        return (
            left >= 0
            and right >= 0
            and self._slot_fields(left)[5] == self._slot_fields(right)[5]
        )

    def org_members(self) -> Iterator[Tuple[ASN, ...]]:
        """Every organization's sorted members, in org-row order.

        One scan of the org rows and the members section — the bulk
        read :func:`~repro.serve.diff.diff_indexes` needs, without a
        record object per ASN.
        """
        header = self.header
        members = struct.unpack_from(
            f"<{header.asn_count}Q", self._buf, self._members_off
        )
        start = self._orgs_off
        rows = self._buf[start:start + header.org_count * ORG_SIZE]
        for fields in _ORG.iter_unpack(rows):
            yield members[fields[4]:fields[4] + fields[5]]

    # -- search ------------------------------------------------------------

    def _token_fields(self, row: int) -> tuple:
        return _TOKEN.unpack_from(
            self._buf, self._tokens_off + row * TOKEN_SIZE
        )

    def _token_at(self, row: int) -> str:
        fields = self._token_fields(row)
        return self._string(fields[0], fields[1])

    def _token_postings(self, row: int) -> Tuple[int, ...]:
        fields = self._token_fields(row)
        return struct.unpack_from(
            f"<{fields[3]}I", self._buf, self._postings_off + fields[2] * 4
        )

    def _token_lower_bound(self, token: str) -> int:
        """First token row ≥ *token* (bisect over the sorted table)."""
        lo, hi = 0, self.header.token_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._token_at(mid) < token:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search(self, query: str, limit: int = 10) -> List[OrgRecord]:
        """Organizations whose name matches *query* tokens, best first.

        Ranking: number of matched query tokens (an org matching every
        token outranks partial matches), then member count, then handle.
        The final query token also matches as a prefix, so incremental
        queries ("teli", "telia") behave like an autocomplete box; the
        token table is sorted, so that expansion is a binary search plus
        a contiguous scan.
        """
        tokens = tokenize(query)
        if not tokens or limit <= 0:
            return []
        token_count = self.header.token_count
        scores: Dict[int, int] = {}
        for position, token in enumerate(tokens):
            row = self._token_lower_bound(token)
            matched: Set[int] = set()
            if row < token_count and self._token_at(row) == token:
                matched.update(self._token_postings(row))
            if position == len(tokens) - 1 and len(token) >= 2:
                while row < token_count and self._token_at(row).startswith(
                    token
                ):
                    matched.update(self._token_postings(row))
                    row += 1
            for org_row in matched:
                scores[org_row] = scores.get(org_row, 0) + 1
        ranked = sorted(
            scores.items(),
            key=lambda item: (
                -item[1],
                -self._org_fields(item[0])[5],
                org_handle(self._org_fields(item[0])[6]),
            ),
        )
        return [OrgRecord(self, row) for row, _ in ranked[:limit]]

    # -- accounting --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "digest": self.digest,
            "orgs": self.header.org_count,
            "asns": self.header.asn_count,
            "search_tokens": self.header.token_count,
        }
