"""WHOIS data objects: organizations and ASN delegations.

The model follows the shape of CAIDA's AS2Org inputs: an ``organization``
record keyed by ``org_id`` (a registry handle such as ``"LEVEL3-ARIN"``)
and an ``asn`` record linking each allocated ASN to exactly one org.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..errors import SchemaError
from ..types import ASN, CountryCode, WhoisOrgID, is_valid_asn

#: The five Regional Internet Registries.
RIRS = ("arin", "ripencc", "apnic", "lacnic", "afrinic")


@dataclass(frozen=True)
class WhoisOrg:
    """A WHOIS organization record (the legal/contractual entity)."""

    org_id: WhoisOrgID
    name: str
    country: CountryCode = ""
    source: str = "arin"

    def validate(self) -> "WhoisOrg":
        _check_org(self.org_id, self.name, self.source)
        return self

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "Organization",
            "organizationId": self.org_id,
            "name": self.name,
            "country": self.country,
            "source": self.source.upper(),
        }

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "WhoisOrg":
        return cls(*org_fields(record))


@dataclass(frozen=True)
class ASNDelegation:
    """A WHOIS ASN record: the allocation of one ASN to one organization."""

    asn: ASN
    org_id: WhoisOrgID
    name: str = ""
    source: str = "arin"

    def validate(self) -> "ASNDelegation":
        _check_delegation(self.asn, self.org_id, self.source)
        return self

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "ASN",
            "asn": str(self.asn),
            "organizationId": self.org_id,
            "name": self.name,
            "source": self.source.upper(),
        }

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "ASNDelegation":
        return cls(*delegation_fields(record))


# The record checks work on plain values, so a reader that keeps no
# instances (the serve tier's release load) validates exactly as
# ``from_json`` does.


def _check_org(org_id: WhoisOrgID, name: str, source: str) -> None:
    if not org_id:
        raise SchemaError("WHOIS org with empty org_id")
    if not name:
        raise SchemaError(f"WHOIS org {org_id}: empty name")
    if source not in RIRS:
        raise SchemaError(f"WHOIS org {org_id}: unknown RIR {source!r}")


def _check_delegation(asn: ASN, org_id: WhoisOrgID, source: str) -> None:
    if not is_valid_asn(asn):
        raise SchemaError(f"delegation with invalid ASN {asn!r}")
    if not org_id:
        raise SchemaError(f"AS{asn}: empty org_id")
    if source not in RIRS:
        raise SchemaError(f"AS{asn}: unknown RIR {source!r}")


def org_fields(
    record: Dict[str, Any]
) -> Tuple[WhoisOrgID, str, CountryCode, str]:
    """The validated ``(org_id, name, country, source)`` of an
    ``Organization`` record (:class:`WhoisOrg`'s fields, in order)."""
    try:
        fields = (
            str(record["organizationId"]),
            str(record["name"]),
            str(record.get("country", "") or ""),
            str(record.get("source", "arin")).lower(),
        )
    except KeyError as exc:
        raise SchemaError(f"bad Organization record: {record!r}") from exc
    _check_org(fields[0], fields[1], fields[3])
    return fields


def delegation_fields(record: Dict[str, Any]) -> Tuple[ASN, WhoisOrgID, str, str]:
    """The validated ``(asn, org_id, name, source)`` of an ``ASN`` record
    (:class:`ASNDelegation`'s fields, in order)."""
    try:
        fields = (
            int(record["asn"]),
            str(record["organizationId"]),
            str(record.get("name", "") or ""),
            str(record.get("source", "arin")).lower(),
        )
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad ASN record: {record!r}") from exc
    _check_delegation(fields[0], fields[1], fields[3])
    return fields
