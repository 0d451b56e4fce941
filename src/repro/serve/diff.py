"""Per-generation diffs: what actually changed between two mappings.

The unit of change is the paper's own unit — the organization (a
cluster of ASNs).  Given two generations the diff reports:

* ``orgs_merged`` — organizations in *to* whose members came from two or
  more *from*-organizations (an M&A event, as the longitudinal universe
  models it);
* ``orgs_split`` — organizations in *from* whose members landed in two
  or more *to*-organizations (a divestiture, or an upstream retraction);
* ``asns_moved`` — ASNs present in both generations whose sibling set
  changed (the operator-visible churn);
* ``asns_added`` / ``asns_removed`` — universe drift between snapshots;
* ``churn_fraction`` — moved / common, the publish gate's churn input.

Everything is computed from the read-side :class:`MappingIndex` (the
structure the serve tier already holds): one scan of each index's org
rows and member spans, so the HTTP ``/v1/diff`` endpoint costs two
linear sweeps, not a pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .index import MappingIndex, org_handle

#: Most example org handles carried per diff category in the JSON form —
#: enough for an operator to spot-check, bounded so a pathological diff
#: cannot balloon a response.
EXAMPLE_LIMIT = 20


@dataclass(frozen=True)
class GenerationDiff:
    """The structured delta between two mapping generations."""

    from_orgs: int
    to_orgs: int
    common_asns: int
    asns_added: int
    asns_removed: int
    asns_moved: int
    orgs_merged: int
    orgs_split: int
    merged_examples: Tuple[str, ...] = field(default=())
    split_examples: Tuple[str, ...] = field(default=())

    @property
    def churn_fraction(self) -> float:
        return self.asns_moved / self.common_asns if self.common_asns else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "from_orgs": self.from_orgs,
            "to_orgs": self.to_orgs,
            "common_asns": self.common_asns,
            "asns_added": self.asns_added,
            "asns_removed": self.asns_removed,
            "asns_moved": self.asns_moved,
            "orgs_merged": self.orgs_merged,
            "orgs_split": self.orgs_split,
            "churn_fraction": round(self.churn_fraction, 6),
            "merged_examples": list(self.merged_examples),
            "split_examples": list(self.split_examples),
        }


def _assignment(
    index: MappingIndex,
) -> Tuple[List[Tuple[int, ...]], Dict[int, int]]:
    """(members per org row, ASN → org row) from one scan of *index*."""
    spans = list(index.org_members())
    org_of: Dict[int, int] = {}
    for row, members in enumerate(spans):
        org_of.update(dict.fromkeys(members, row))
    return spans, org_of


def diff_indexes(old: MappingIndex, new: MappingIndex) -> GenerationDiff:
    """Diff two read-side indexes (see module docstring for semantics)."""
    old_spans, old_org_of = _assignment(old)
    new_spans, new_org_of = _assignment(new)
    common = old_org_of.keys() & new_org_of.keys()

    # Every common ASN sits in one (old org, new org) pair; all ASNs of
    # a pair share one verdict, so membership is compared once per pair.
    pairs: Dict[Tuple[int, int], int] = {}
    for asn in common:
        pair = (old_org_of[asn], new_org_of[asn])
        pairs[pair] = pairs.get(pair, 0) + 1
    # An ASN "moved" when its sibling set changed, not merely when its
    # handle did — handles are derived from the lowest member, so a
    # handle change without membership change is impossible, but a
    # membership change can keep the handle.
    moved = sum(
        count
        for (old_row, new_row), count in pairs.items()
        if old_spans[old_row] != new_spans[new_row]
    )

    # Merge/split detection over the common-ASN projection: restricting
    # to shared ASNs keeps universe drift (added/removed ASNs) out of
    # the merge/split counts.
    sources_of_new: Dict[int, int] = {}
    targets_of_old: Dict[int, int] = {}
    for old_row, new_row in pairs:
        sources_of_new[new_row] = sources_of_new.get(new_row, 0) + 1
        targets_of_old[old_row] = targets_of_old.get(old_row, 0) + 1
    merged: List[str] = sorted(
        org_handle(new_spans[row][0])
        for row, sources in sources_of_new.items()
        if sources > 1
    )
    split: List[str] = sorted(
        org_handle(old_spans[row][0])
        for row, targets in targets_of_old.items()
        if targets > 1
    )

    return GenerationDiff(
        from_orgs=len(old_spans),
        to_orgs=len(new_spans),
        common_asns=len(common),
        asns_added=len(new_org_of) - len(common),
        asns_removed=len(old_org_of) - len(common),
        asns_moved=moved,
        orgs_merged=len(merged),
        orgs_split=len(split),
        merged_examples=tuple(merged[:EXAMPLE_LIMIT]),
        split_examples=tuple(split[:EXAMPLE_LIMIT]),
    )
