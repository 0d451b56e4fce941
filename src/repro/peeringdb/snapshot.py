"""PeeringDB snapshot container and JSON (de)serialization.

A snapshot is the unit CAIDA archives daily: the full set of ``org`` and
``net`` objects at one instant.  The on-disk layout mirrors PeeringDB's
bulk-export shape::

    {"meta": {"generated": "...", "source": "..."},
     "org": {"data": [ {...}, ... ]},
     "net": {"data": [ {...}, ... ]}}
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..errors import SchemaError, SnapshotError
from ..types import ASN, PdbOrgID
from .models import Network, Organization

#: ``Organization.to_json()`` and ``Network.to_json()`` of a record with
#: no ``extra`` as field specs: the content digest writes exactly those
#: records, column by column.
_ORG_FIELDS = (
    ("id", attrgetter("org_id")),
    ("name", attrgetter("name")),
    ("website", attrgetter("website")),
    ("country", attrgetter("country")),
)
_NET_FIELDS = tuple(
    (name, attrgetter(name))
    for name in ("asn", "name", "org_id", "aka", "notes", "website", "info_type")
)
_HAS_EXTRA = attrgetter("extra")


@dataclass
class PDBSnapshot:
    """An in-memory PeeringDB snapshot with indexed lookups."""

    orgs: Dict[PdbOrgID, Organization] = field(default_factory=dict)
    nets: Dict[ASN, Network] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        orgs: Iterable[Organization],
        nets: Iterable[Network],
        meta: Optional[Dict[str, Any]] = None,
    ) -> "PDBSnapshot":
        """Index orgs and nets, validating referential integrity."""
        snapshot = cls(meta=dict(meta or {}))
        for org in orgs:
            if org.org_id in snapshot.orgs:
                raise SchemaError(f"duplicate org_id {org.org_id}")
            snapshot.orgs[org.org_id] = org.validate()
        for net in nets:
            if net.asn in snapshot.nets:
                raise SchemaError(f"duplicate net ASN {net.asn}")
            if net.org_id not in snapshot.orgs:
                raise SchemaError(
                    f"net AS{net.asn} references unknown org_id {net.org_id}"
                )
            snapshot.nets[net.asn] = net.validate()
        return snapshot

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nets)

    def __contains__(self, asn: int) -> bool:
        return asn in self.nets

    def networks(self) -> Iterator[Network]:
        """All net records in ascending-ASN order (deterministic)."""
        for asn in sorted(self.nets):
            yield self.nets[asn]

    def organizations(self) -> Iterator[Organization]:
        for org_id in sorted(self.orgs):
            yield self.orgs[org_id]

    def org_of(self, asn: ASN) -> Organization:
        try:
            net = self.nets[asn]
        except KeyError:
            raise SnapshotError(f"AS{asn} not in snapshot") from None
        return self.orgs[net.org_id]

    def org_members(self) -> Dict[PdbOrgID, List[ASN]]:
        """org_id → sorted list of member ASNs (the OID_P clustering)."""
        members: Dict[PdbOrgID, List[ASN]] = {}
        for net in self.networks():
            members.setdefault(net.org_id, []).append(net.asn)
        return members

    def nets_with_websites(self) -> List[Network]:
        return [n for n in self.networks() if n.has_website]

    def nets_with_text(self) -> List[Network]:
        """Nets with non-empty notes or aka (paper: 17,633 of 30,955)."""
        return [n for n in self.networks() if n.freeform_text]

    def stats(self) -> Dict[str, int]:
        """Headline counts used by Table 3 and sanity checks."""
        nets = list(self.networks())
        with_text = [n for n in nets if n.freeform_text]
        with_digits = [
            n for n in with_text if any(ch.isdigit() for ch in n.freeform_text)
        ]
        return {
            "orgs": len(self.orgs),
            "nets": len(nets),
            "nets_with_website": sum(1 for n in nets if n.has_website),
            "nets_with_text": len(with_text),
            "nets_with_numeric_text": len(with_digits),
            "nets_numeric_aka": sum(
                1 for n in nets if any(ch.isdigit() for ch in n.aka)
            ),
            "nets_numeric_notes": sum(
                1 for n in nets if any(ch.isdigit() for ch in n.notes)
            ),
        }

    def content_digest(self) -> str:
        """Stable content hash; anchors stage-artifact fingerprints.

        ``meta`` (generation timestamps, source labels) is excluded: two
        snapshots with identical org/net data are the same input.
        """
        from ..digest import json_digest, records_json

        # The canonical form of to_json() without "meta"; a record with
        # ``extra`` is written from its own to_json().
        return json_digest(
            '{"net":{"data":%s},"org":{"data":%s}}'
            % (
                records_json(self.nets, _NET_FIELDS, fallback_if=_HAS_EXTRA),
                records_json(self.orgs, _ORG_FIELDS, fallback_if=_HAS_EXTRA),
            )
        )

    def restricted_to(self, asns: Iterable[ASN]) -> "PDBSnapshot":
        """Return a sub-snapshot containing only the given ASNs.

        Orgs without any surviving net are dropped; referential
        integrity is preserved by construction.  ``meta`` is carried
        over unchanged so a restriction of a snapshot is comparable to
        its source.
        """
        keep = set(asns)
        nets = [n for asn, n in self.nets.items() if asn in keep]
        org_ids = {n.org_id for n in nets}
        orgs = [o for oid, o in self.orgs.items() if oid in org_ids]
        return PDBSnapshot.build(orgs, nets, meta=dict(self.meta))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "meta": self.meta,
            "org": {"data": [o.to_json() for o in self.organizations()]},
            "net": {"data": [n.to_json() for n in self.networks()]},
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "PDBSnapshot":
        try:
            org_records = payload["org"]["data"]
            net_records = payload["net"]["data"]
        except (KeyError, TypeError) as exc:
            raise SnapshotError("snapshot JSON missing org/net data") from exc
        return cls.build(
            orgs=(Organization.from_json(r) for r in org_records),
            nets=(Network.from_json(r) for r in net_records),
            meta=payload.get("meta", {}),
        )


def save_snapshot(snapshot: PDBSnapshot, path: Union[str, Path]) -> None:
    """Write a snapshot as (optionally gzipped) JSON, inferred from suffix."""
    path = Path(path)
    payload = json.dumps(snapshot.to_json(), ensure_ascii=False, indent=1)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_snapshot(path: Union[str, Path]) -> PDBSnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot load snapshot {path}: {exc}") from exc
    return PDBSnapshot.from_json(payload)
