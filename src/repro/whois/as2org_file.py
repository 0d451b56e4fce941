"""Reader/writer for CAIDA's AS2Org JSON-lines file format.

CAIDA publishes AS2Org as a text file of JSON records, one per line, of
two types distinguished by a ``type`` field::

    {"type": "Organization", "organizationId": "...", "name": "...", ...}
    {"type": "ASN", "asn": "3356", "organizationId": "...", ...}

We reproduce that layout (including string-typed ASNs) so the pipeline
reads the same wire format the real system would.

Files written here additionally start with an integrity header — a
``#`` comment line (ignored by any CAIDA-compatible reader, including
:func:`load_as2org_file`) carrying a content digest over the record
lines plus record counts::

    # borges-release {"schema": 1, "digest": "...", "orgs": 10, "asns": 42}

The serve tier verifies that digest before hot-swapping a release file
in (:mod:`repro.serve.store`); files from other producers simply have
no header and skip verification.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import SchemaError, SnapshotError
from .dataset import WhoisDataset
from .models import ASNDelegation, WhoisOrg, delegation_fields, org_fields

#: Marks the integrity header comment line of a borges-written release.
RELEASE_HEADER_PREFIX = "# borges-release "

#: Bump when the header payload changes incompatibly.
RELEASE_HEADER_SCHEMA = 1


def release_digest(record_lines: Iterable[str]) -> str:
    """Content digest over a release's record lines (order-sensitive).

    The digest is :func:`~repro.digest.stable_digest` of the lines as a
    list: SHA-256 over ``"[" + ",".join(encode_basestring_ascii(line))
    + "]"``, the canonical JSON of a list of strings.  It is hashed line
    by line, so neither that text nor the list is ever built.
    """
    sha = hashlib.sha256(b"[")
    separator = b""
    for line in record_lines:
        sha.update(separator + encode_basestring_ascii(line).encode("ascii"))
        separator = b","
    sha.update(b"]")
    return sha.hexdigest()


def _read_text(path: Path) -> str:
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                return fh.read()
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read as2org file {path}: {exc}") from exc


def parse_release_header(lines: Iterable[str]) -> Optional[Dict[str, object]]:
    """The integrity header among a file's *lines*, or ``None`` when
    there isn't one (it must come before the first record).

    A malformed header (truncated JSON, wrong schema) raises
    :class:`SnapshotError` — a file claiming to carry a digest but
    failing to parse one is corruption, not absence.
    """
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            return None
        if stripped.startswith(RELEASE_HEADER_PREFIX):
            raw = stripped[len(RELEASE_HEADER_PREFIX):]
            try:
                header = json.loads(raw)
            except ValueError as exc:
                raise SnapshotError(
                    f"malformed borges-release header: {exc}"
                ) from exc
            if not isinstance(header, dict) or "digest" not in header:
                raise SnapshotError(
                    "malformed borges-release header: missing digest"
                )
            return header
    return None


def record_lines(lines: Iterable[str]) -> Iterator[str]:
    """The non-comment, non-blank *lines*, stripped: what digests are
    computed over."""
    return (
        line for line in map(str.strip, lines) if line and not line.startswith("#")
    )


def save_as2org_file(dataset: WhoisDataset, path: Union[str, Path]) -> None:
    """Write *dataset* in CAIDA's JSON-lines format (gzip if ``.gz``).

    The file starts with the integrity header described in the module
    docstring; every record line is digested so the serve tier can
    detect truncation or tampering before swapping the file in.
    """
    path = Path(path)
    lines: List[str] = []
    for org_id in sorted(dataset.orgs):
        lines.append(json.dumps(dataset.orgs[org_id].to_json(), ensure_ascii=False))
    for asn in sorted(dataset.delegations):
        lines.append(
            json.dumps(dataset.delegations[asn].to_json(), ensure_ascii=False)
        )
    header = RELEASE_HEADER_PREFIX + json.dumps(
        {
            "schema": RELEASE_HEADER_SCHEMA,
            "digest": release_digest(lines),
            "orgs": len(dataset.orgs),
            "asns": len(dataset.delegations),
        },
        sort_keys=True,
    )
    payload = header + "\n" + "\n".join(lines) + "\n"
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_as2org_text(text: str, origin: str = "<string>") -> WhoisDataset:
    """Parse as2org JSON-lines *text* into a :class:`WhoisDataset`."""
    return load_as2org_lines(text.splitlines(), origin)


def _parse_record(line: str, lineno: int, origin: str) -> Tuple[str, tuple]:
    """``(type, fields)`` of one stripped record *line*: the validated
    fields of a :class:`WhoisOrg` or an :class:`ASNDelegation`."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{origin}:{lineno}: bad JSON: {exc}") from exc
    kind = record.get("type")
    if kind == "Organization":
        return kind, org_fields(record)
    if kind == "ASN":
        return kind, delegation_fields(record)
    raise SchemaError(f"{origin}:{lineno}: unknown record type {kind!r}")


def load_as2org_lines(
    lines: Iterable[str], origin: str = "<string>"
) -> WhoisDataset:
    """Parse the *lines* of an as2org file into a :class:`WhoisDataset`;
    errors name the line by its number in *lines*."""
    orgs: List[WhoisOrg] = []
    delegations: List[ASNDelegation] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, fields = _parse_record(line, lineno, origin)
        if kind == "Organization":
            orgs.append(WhoisOrg(*fields))
        else:
            delegations.append(ASNDelegation(*fields))
    return WhoisDataset.build(orgs, delegations)


def split_lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one line at a time, without the list."""
    start = 0
    end = text.find("\n")
    while end >= 0:
        # The piece keeps its "\n", so a line break just before it (a
        # "\r", or U+2028) still yields the empty line splitlines() does.
        yield from text[start:end + 1].splitlines()
        start = end + 1
        end = text.find("\n", start)
    yield from text[start:].splitlines()


class ReleaseRecords:
    """The records of one release file, held as plain values.

    :func:`scan_release` fills it in one pass over the file's lines; the
    serve tier compiles :meth:`org_rows` straight into its index blob,
    with no :class:`WhoisDataset` and no record instances.  Every
    rejection names the same reason :func:`load_as2org_lines` and
    :meth:`WhoisDataset.build` give for the same file.
    """

    __slots__ = (
        "header", "digest", "error", "duplicate_org", "orgs", "delegations"
    )

    def __init__(self) -> None:
        #: The integrity header, or ``None`` for a headerless file.
        self.header: Optional[Dict[str, object]] = None
        #: :func:`release_digest` of the record lines.
        self.digest = ""
        #: The first record that failed to parse.  It is raised by
        #: :meth:`org_rows`, after the caller has checked the digest, so
        #: a truncated or tampered file is reported as such.
        self.error: Optional[Exception] = None
        #: The first org_id given twice; like :meth:`WhoisDataset.build`,
        #: it is reported only once every record has parsed.
        self.duplicate_org: Optional[str] = None
        #: org_id → (name, country), in file order.
        self.orgs: Dict[str, Tuple[str, str]] = {}
        #: (asn, org_id, registry name), in file order.
        self.delegations: List[Tuple[int, str, str]] = []

    def org_rows(self) -> Tuple[int, Iterator[tuple]]:
        """``(asn_count, rows)``: one row per organization holding ASNs.

        Rows have the shape :meth:`~repro.serve.index.MappingIndex.compile`
        reads (sorted members, name, country, and a (registry name, "")
        pair per member) and come in the order of
        :meth:`OrgMapping.clusters` over the WHOIS clusters: multi-ASN
        orgs by size, then lowest ASN; then single ASNs in order.
        Raises the deferred parse error first, then the checks of
        :meth:`WhoisDataset.build`, in its order.
        """
        if self.error is not None:
            raise self.error
        if self.duplicate_org is not None:
            raise SchemaError(f"duplicate WHOIS org_id {self.duplicate_org}")
        orgs, delegations = self.orgs, self.delegations
        seen: Set[int] = set()
        for asn, org_id, _ in delegations:
            if asn in seen:
                raise SchemaError(f"duplicate delegation for AS{asn}")
            if org_id not in orgs:
                raise SchemaError(
                    f"AS{asn} delegated to unknown org {org_id!r}"
                )
            seen.add(asn)
        del seen
        delegations.sort()  # by ASN, which is unique by now
        sizes = Counter(org_id for _, org_id, _ in delegations)
        # Multi-ASN orgs by size, then lowest member; the single-ASN
        # orgs follow in ASN order, straight from the sorted list.
        multi: Dict[str, List[Tuple[int, str, str]]] = {}
        for delegation in delegations:
            if sizes[delegation[1]] > 1:
                multi.setdefault(delegation[1], []).append(delegation)
        groups = sorted(
            multi.values(), key=lambda group: (-len(group), group[0][0])
        )
        del multi

        def row(group: Sequence[Tuple[int, str, str]]) -> tuple:
            name, country = orgs[group[0][1]]
            return (
                tuple(asn for asn, _, _ in group),
                name,
                country,
                ((registry_name, "") for _, _, registry_name in group),
            )

        def rows() -> Iterator[tuple]:
            for group in groups:
                yield row(group)
            for delegation in delegations:
                if sizes[delegation[1]] == 1:
                    yield row((delegation,))

        return len(delegations), rows()


def scan_release(lines: Iterable[str], origin: str) -> ReleaseRecords:
    """Read a release file's *lines* once: its integrity header, the
    digest of its record lines and its records.

    A malformed header raises :class:`SnapshotError` at once, as
    :func:`parse_release_header` does; a record that fails to parse is
    kept on :attr:`ReleaseRecords.error` while the digest reads on.
    """
    release = ReleaseRecords()
    release.digest = release_digest(_read_records(release, lines, origin))
    return release


def _read_records(
    release: ReleaseRecords, lines: Iterable[str], origin: str
) -> Iterator[str]:
    """The record lines of *lines* (what :func:`record_lines` yields),
    each parsed into *release* on the way."""
    orgs, delegations = release.orgs, release.delegations
    # Org ids, names and countries repeat across records (an ASN's
    # registry name is often its org's name); one string each.
    strings: Dict[str, str] = {}
    preamble = True
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if preamble and release.header is None:
                release.header = parse_release_header((line,))
            continue
        preamble = False
        yield line
        if release.error is not None:
            continue
        try:
            kind, fields = _parse_record(line, lineno, origin)
        except Exception as exc:  # noqa: BLE001 — re-raised by org_rows
            release.error = exc
            continue
        if kind == "Organization":
            org_id, name, country, _ = fields
            org_id = strings.setdefault(org_id, org_id)
            if org_id not in orgs:
                orgs[org_id] = (
                    strings.setdefault(name, name),
                    strings.setdefault(country, country),
                )
            elif release.duplicate_org is None:
                release.duplicate_org = org_id
        else:
            asn, org_id, name, _ = fields
            delegations.append(
                (
                    asn,
                    strings.setdefault(org_id, org_id),
                    strings.setdefault(name, name),
                )
            )


def load_as2org_file(path: Union[str, Path]) -> WhoisDataset:
    """Load a CAIDA-format AS2Org file into a :class:`WhoisDataset`."""
    path = Path(path)
    return load_as2org_text(_read_text(path), origin=str(path))


def read_as2org_file_text(path: Union[str, Path]) -> str:
    """Raw text of an as2org file (gz-transparent), for verification."""
    return _read_text(Path(path))
