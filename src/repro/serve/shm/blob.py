"""The snapshot blob format: layout, assembly and verification.

A blob is one flat byte string that N serve workers can map read-only
and query without deserializing anything.  Layout::

    +----------------------------+
    | header (fixed size)        |  magic, version, payload SHA-256,
    +----------------------------+  logical index digest, counts,
    | string arena               |  section offsets/lengths
    +----------------------------+
    | ASN slots     (28 B × m)   |  asn, name ref, website ref, org idx
    +----------------------------+
    | org records   (36 B × o)   |  name/country refs, members span,
    +----------------------------+  representative (lowest) ASN
    | members       (u64 × a)    |  concatenated per-org sorted ASNs
    +----------------------------+
    | sorted ASNs   (u64 × a)    |  the full universe, ascending
    +----------------------------+
    | token table   (20 B × t)   |  token ref + postings span, sorted
    +----------------------------+  lexicographically (prefix ranges
    | postings      (u32 × p)    |  are contiguous)
    +----------------------------+

Everything is little-endian and offset-indexed: strings are ``(offset,
length)`` references into the arena (deduplicated at build time),
members and postings are ``(start, count)`` spans into their flat
arrays.  There are no pointers and no per-record framing, so the same
bytes are valid in a file, an ``mmap`` view, or a test's ``bytes``
object.  :meth:`~repro.serve.index.MappingIndex.build` lowers a mapping
into these bytes and :class:`~repro.serve.index.MappingIndex` reads
them; this module owns only the format.

**ASN lookup** is linear probing in a power-of-two slot table at most
half full: a key starts at ``mix64(key) & (m - 1)`` and walks forward
(wrapping) until it finds its own slot or an empty one.  Empty slots
hold :data:`EMPTY_KEY`, which is therefore not a storable ASN; the
slot stores the key, so misses are detected exactly.  At ≤ 50% load
the expected probe length is 1.5 slots for a hit and 2.5 for a miss.

**Integrity** is stamped twice: ``payload_sha256`` covers every byte
after the header (a truncated or bit-flipped segment fails
:func:`verify_blob` before it can serve), and ``index_digest`` carries
the *logical* mapping digest that ``stats()`` reports.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from ...errors import SnapshotError

#: First 8 bytes of every blob.
BLOB_MAGIC = b"BORGBLOB"

#: Bumped on any layout change; readers refuse other versions.
BLOB_VERSION = 2

#: Conventional filename suffix for compiled snapshot blobs.
BLOB_SUFFIX = ".blob"

#: Key stored in unused slots; no ASN may equal it (or exceed it).
EMPTY_KEY = 0xFFFFFFFFFFFFFFFF

_MASK64 = (1 << 64) - 1

# Header: magic, version, flags, total size, payload SHA-256 (raw),
# logical index digest (hex ascii), counts (asns/orgs/tokens/slots),
# method string ref, then (offset, length) per section in blob order.
_HEADER = struct.Struct("<8sIIQ32s64sQQQQII" + "QQ" * 7)

_SLOT = struct.Struct("<QIIIII")  # asn, name ref, website ref, org idx
_ORG = struct.Struct("<IIIIQIQ")  # name ref, country ref, members span, rep
_TOKEN = struct.Struct("<IIQI")  # token ref, postings span

SLOT_SIZE = _SLOT.size
ORG_SIZE = _ORG.size
TOKEN_SIZE = _TOKEN.size
HEADER_SIZE = _HEADER.size

#: The bytes of one unused slot.
EMPTY_SLOT = _SLOT.pack(EMPTY_KEY, 0, 0, 0, 0, 0)

_SECTIONS = (
    "arena",
    "slots",
    "orgs",
    "members",
    "asns",
    "tokens",
    "postings",
)


class BlobFormatError(SnapshotError):
    """A blob failed structural or digest verification."""


def mix64(x: int) -> int:
    """MurmurHash3's 64-bit finalizer: the blob's one hash function."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def slot_count_for(keys: int) -> int:
    """The slot-table size for *keys* ASNs: a power of two ≥ 2 × keys."""
    return 1 << (2 * keys - 1).bit_length() if keys else 1


@dataclass(frozen=True)
class BlobHeader:
    """The decoded fixed-size header of one blob."""

    version: int
    flags: int
    blob_size: int
    payload_sha256: bytes
    index_digest: str
    asn_count: int
    org_count: int
    token_count: int
    slot_count: int
    method_ref: Tuple[int, int]
    sections: Dict[str, Tuple[int, int]]

    def section(self, name: str) -> Tuple[int, int]:
        return self.sections[name]


def assemble_blob(
    digest: str,
    method_ref: Tuple[int, int],
    asn_count: int,
    org_count: int,
    token_count: int,
    slot_count: int,
    sections: Dict[str, bytes],
) -> bytes:
    """Header + payload for already-encoded *sections* (keyed by name,
    any bytes-like object)."""
    if len(sections["arena"]) > 0xFFFFFFFF:  # string refs are u32
        raise BlobFormatError(
            f"string arena of {len(sections['arena'])} bytes exceeds the "
            "4 GiB limit"
        )
    payload = [sections[name] for name in _SECTIONS]
    payload_sha256 = hashlib.sha256()
    flat = []
    cursor = HEADER_SIZE
    for data in payload:
        payload_sha256.update(data)
        flat += (cursor, len(data))
        cursor += len(data)
    header = _HEADER.pack(
        BLOB_MAGIC,
        BLOB_VERSION,
        0,
        cursor,
        payload_sha256.digest(),
        digest.encode("ascii"),
        asn_count,
        org_count,
        token_count,
        slot_count,
        method_ref[0],
        method_ref[1],
        *flat,
    )
    return b"".join([header, *payload])


# Compatibility name: perfbench/layers.py times it as "blob.compile".
def compile_index(index) -> bytes:
    """The blob bytes of a built index (a copy of ``index.blob``)."""
    return bytes(index.blob)


def read_header(buf) -> BlobHeader:
    """Decode the header of *buf* (no payload digest check)."""
    if len(buf) < HEADER_SIZE:
        raise BlobFormatError(
            f"blob of {len(buf)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    fields = _HEADER.unpack_from(buf, 0)
    magic, version = fields[0], fields[1]
    if magic != BLOB_MAGIC:
        raise BlobFormatError(f"bad blob magic: {bytes(magic)!r}")
    if version != BLOB_VERSION:
        raise BlobFormatError(
            f"unsupported blob version {version} (expected {BLOB_VERSION})"
        )
    sections = {
        name: (fields[12 + 2 * i], fields[13 + 2 * i])
        for i, name in enumerate(_SECTIONS)
    }
    return BlobHeader(
        version=version,
        flags=fields[2],
        blob_size=fields[3],
        payload_sha256=fields[4],
        index_digest=fields[5].decode("ascii"),
        asn_count=fields[6],
        org_count=fields[7],
        token_count=fields[8],
        slot_count=fields[9],
        method_ref=(fields[10], fields[11]),
        sections=sections,
    )


def verify_blob(buf) -> BlobHeader:
    """Structural + digest verification; returns the decoded header.

    Checks the magic/version, the declared size against the actual
    buffer, section bounds, the slot table's shape (a power of two at
    most half full, so every probe ends), and the payload SHA-256 — the
    same fail-before-swap discipline the store applies to every other
    snapshot source.
    """
    header = read_header(buf)
    if header.blob_size > len(buf):
        raise BlobFormatError(
            f"blob declares {header.blob_size} bytes but only "
            f"{len(buf)} are present (truncated segment)"
        )
    cursor = HEADER_SIZE
    for name in _SECTIONS:
        offset, length = header.sections[name]
        if offset != cursor or offset + length > header.blob_size:
            raise BlobFormatError(
                f"section {name!r} at ({offset}, {length}) breaks the "
                f"declared layout"
            )
        cursor = offset + length
    if cursor != header.blob_size:
        raise BlobFormatError(
            f"sections end at {cursor}, not the declared {header.blob_size}"
        )
    slots = header.slot_count
    if (
        slots != slot_count_for(header.asn_count)
        or header.sections["slots"][1] != slots * SLOT_SIZE
    ):
        raise BlobFormatError(
            f"slot table of {slots} slots does not fit "
            f"{header.asn_count} ASNs at the declared layout"
        )
    actual = hashlib.sha256(
        bytes(memoryview(buf)[HEADER_SIZE:header.blob_size])
    ).digest()
    if actual != header.payload_sha256:
        raise BlobFormatError(
            "blob payload digest mismatch (bit rot or tampering): "
            f"expected {header.payload_sha256.hex()[:16]}…, "
            f"got {actual.hex()[:16]}…"
        )
    return header


def blob_stats(buf) -> Dict[str, object]:
    """Accounting for one blob: counts and per-section byte sizes."""
    header = read_header(buf)
    return {
        "version": header.version,
        "bytes": header.blob_size,
        "asns": header.asn_count,
        "orgs": header.org_count,
        "search_tokens": header.token_count,
        "index_digest": header.index_digest,
        "sections": {
            name: header.sections[name][1] for name in _SECTIONS
        },
    }
