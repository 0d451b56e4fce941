"""In-memory WHOIS dataset: delegations indexed both ways.

This is the compulsory substrate the paper leans on: the Organization
Factor graph's vertex set is *all networks appearing in WHOIS records*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import SchemaError, UnknownASNError
from ..types import ASN, WhoisOrgID
from .models import ASNDelegation, WhoisOrg

#: ``WhoisOrg.to_json()`` and ``ASNDelegation.to_json()`` as field specs:
#: the content digest writes exactly those records, column by column.
_ORG_FIELDS = (
    ("type", "Organization"),
    ("organizationId", attrgetter("org_id")),
    ("name", attrgetter("name")),
    ("country", attrgetter("country")),
    ("source", lambda org: org.source.upper()),
)
_DELEGATION_FIELDS = (
    ("type", "ASN"),
    ("asn", lambda delegation: str(delegation.asn)),
    ("organizationId", attrgetter("org_id")),
    ("name", attrgetter("name")),
    ("source", lambda delegation: delegation.source.upper()),
)


@dataclass
class WhoisDataset:
    """All WHOIS organizations and ASN delegations at one snapshot."""

    orgs: Dict[WhoisOrgID, WhoisOrg] = field(default_factory=dict)
    delegations: Dict[ASN, ASNDelegation] = field(default_factory=dict)
    # Cached org_id→members index, keyed by the delegation count it was
    # built from so a dataset assembled incrementally (more delegations
    # added after a lookup) invalidates instead of serving a stale index.
    _members_cache: Optional[
        Tuple[int, Dict[WhoisOrgID, Tuple[ASN, ...]]]
    ] = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        orgs: Iterable[WhoisOrg],
        delegations: Iterable[ASNDelegation],
    ) -> "WhoisDataset":
        dataset = cls()
        for org in orgs:
            if org.org_id in dataset.orgs:
                raise SchemaError(f"duplicate WHOIS org_id {org.org_id}")
            dataset.orgs[org.org_id] = org.validate()
        for delegation in delegations:
            if delegation.asn in dataset.delegations:
                raise SchemaError(f"duplicate delegation for AS{delegation.asn}")
            if delegation.org_id not in dataset.orgs:
                raise SchemaError(
                    f"AS{delegation.asn} delegated to unknown org "
                    f"{delegation.org_id!r}"
                )
            dataset.delegations[delegation.asn] = delegation.validate()
        return dataset

    def __len__(self) -> int:
        return len(self.delegations)

    def __contains__(self, asn: int) -> bool:
        return asn in self.delegations

    def asns(self) -> List[ASN]:
        """All delegated ASNs in ascending order (the θ vertex set)."""
        return sorted(self.delegations)

    def org_id_of(self, asn: ASN) -> WhoisOrgID:
        try:
            return self.delegations[asn].org_id
        except KeyError:
            raise UnknownASNError(asn) from None

    def org_of(self, asn: ASN) -> WhoisOrg:
        return self.orgs[self.org_id_of(asn)]

    def org_name_of(self, asn: ASN) -> str:
        return self.org_of(asn).name

    def members(self) -> Dict[WhoisOrgID, Tuple[ASN, ...]]:
        """org_id → sorted member ASNs (the OID_W clustering / AS2Org),
        orgs in order of their smallest ASN.  This is the cached index
        itself, so it is read-only: do not mutate the dict.

        Built in one sort with no list per org: a tuple of ints is
        untracked by the cycle collector, so the index adds nothing to
        what it scans.
        """
        cache = self._members_cache
        if cache is None or cache[0] != len(self.delegations):
            delegations = self.delegations
            lowest: Dict[WhoisOrgID, ASN] = {}
            for asn, delegation in delegations.items():
                if lowest.get(delegation.org_id, asn) >= asn:
                    lowest[delegation.org_id] = asn
            # Each org's members lie together, ascending, and the orgs
            # follow their smallest ASN; that ASN names the org.
            ordered = sorted(
                delegations,
                key=lambda asn: (lowest[delegations[asn].org_id], asn),
            )
            index = {
                delegations[first].org_id: tuple(run)
                for first, run in groupby(
                    ordered, key=lambda asn: lowest[delegations[asn].org_id]
                )
            }
            self._members_cache = cache = (len(delegations), index)
        return cache[1]

    def siblings_of(self, asn: ASN) -> Set[ASN]:
        """All ASNs sharing *asn*'s WHOIS org (including *asn* itself)."""
        return set(self.members()[self.org_id_of(asn)])

    def stats(self) -> Dict[str, float]:
        members = self.members()
        sizes = [len(v) for v in members.values()]
        return {
            "asns": float(len(self.delegations)),
            "orgs": float(len(members)),
            "mean_asns_per_org": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_asns_per_org": float(max(sizes)) if sizes else 0.0,
        }

    def content_digest(self) -> str:
        """Stable content hash; anchors stage-artifact fingerprints."""
        from ..digest import json_digest, records_json

        # The canonical form of {"orgs": [...], "delegations": [...]}.
        return json_digest(
            '{"delegations":%s,"orgs":%s}'
            % (
                records_json(self.delegations, _DELEGATION_FIELDS),
                records_json(self.orgs, _ORG_FIELDS),
            )
        )

    def restricted_to(self, asns: Iterable[ASN]) -> "WhoisDataset":
        """Return a sub-dataset containing only the given ASNs."""
        keep = set(asns)
        delegations = [
            d for asn, d in self.delegations.items() if asn in keep
        ]
        org_ids = {d.org_id for d in delegations}
        orgs = [o for oid, o in self.orgs.items() if oid in org_ids]
        return WhoisDataset.build(orgs, delegations)
