"""The AS-to-Organization mapping produced by any method.

:class:`OrgMapping` is a partition of a fixed ASN universe (the WHOIS
delegation set — the Organization Factor's vertex set) into
organizations.  ASNs never mentioned by any feature stay singletons, as
in the paper's graph construction.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Dict, Iterable, List, Optional, Set, Union

from ..errors import DataError, UnknownASNError
from ..types import ASN, Cluster
from .merge import merge_clusters


class OrgMapping:
    """An immutable ASN partition with per-org lookups and serialization."""

    def __init__(
        self,
        universe: Iterable[ASN],
        clusters: Iterable[Collection[ASN]],
        method: str = "",
        org_names: Optional[Dict[ASN, str]] = None,
    ) -> None:
        """Build a mapping over *universe*.

        *clusters* may overlap (they are consolidated) and may mention
        ASNs outside the universe (those members are dropped — the θ graph
        only contains delegated networks).  Universe ASNs not covered by
        any cluster become singleton organizations.
        """
        universe_set: Set[ASN] = {int(a) for a in universe}
        self._method = method
        # Only multi-ASN clusters can join two ASNs; a singleton either
        # becomes a singleton org anyway or is dropped with the universe.
        merged = merge_clusters([[c for c in clusters if len(c) > 1]])
        # Multi-ASN organizations, largest first.  Singletons stay bare
        # ASNs (a frozenset costs ~200 bytes) and become clusters on demand.
        self._multi: List[Cluster] = []
        covered: Set[ASN] = set()
        for cluster in merged:
            kept = frozenset(a for a in cluster if a in universe_set)
            if not kept:
                continue
            overlap = kept & covered
            if overlap:
                raise DataError(
                    f"ASNs in two clusters after merge: {sorted(overlap)[:5]}"
                )
            covered |= kept
            if len(kept) > 1:
                self._multi.append(kept)
        self._multi.sort(key=lambda c: (-len(c), min(c)))
        self._singles = sorted(universe_set.difference(*self._multi))
        # Org index of every ASN: the multi-ASN orgs, then the singletons.
        self._by_asn: Dict[ASN, int] = {}
        for index, cluster in enumerate(self._multi):
            for asn in cluster:
                self._by_asn[asn] = index
        for index, asn in enumerate(self._singles, len(self._multi)):
            self._by_asn[asn] = index
        #: Optional display names per ASN (the WHOIS/PDB org names).
        self._org_names = dict(org_names or {})
        # Lazily-built per-cluster cache.  The mapping is immutable after
        # construction, so it is computed at most once; read paths that
        # hammer it (the serve index, metrics) become O(1) per call.
        self._display_names: Optional[List[str]] = None

    # -- basic queries -----------------------------------------------------

    @property
    def method(self) -> str:
        return self._method

    @property
    def universe_size(self) -> int:
        return len(self._by_asn)

    def __len__(self) -> int:
        """Number of organizations (including singletons)."""
        return len(self._multi) + len(self._singles)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def clusters(self) -> List[Cluster]:
        return self._multi + [frozenset((asn,)) for asn in self._singles]

    def multi_asn_clusters(self) -> List[Cluster]:
        return list(self._multi)

    def cluster_of(self, asn: ASN) -> Cluster:
        index = self.org_index_of(asn)
        if index < len(self._multi):
            return self._multi[index]
        return frozenset((asn,))

    def org_index_of(self, asn: ASN) -> int:
        try:
            return self._by_asn[asn]
        except KeyError:
            raise UnknownASNError(asn) from None

    def are_siblings(self, a: ASN, b: ASN) -> bool:
        if a not in self._by_asn or b not in self._by_asn:
            return False
        return self._by_asn[a] == self._by_asn[b]

    def sizes(self) -> List[int]:
        """Cluster sizes, descending — the θ input."""
        return [len(c) for c in self._multi] + [1] * len(self._singles)

    def _display_name_of(self, index: int) -> str:
        """Display name for cluster *index*, built once per cluster."""
        if self._display_names is None:
            names: List[str] = []
            for cluster in self.clusters():
                chosen = ""
                for member in sorted(cluster):
                    name = self._org_names.get(member)
                    if name:
                        chosen = name
                        break
                names.append(chosen or f"AS{min(cluster)}")
            self._display_names = names
        return self._display_names[index]

    def org_name_of(self, asn: ASN) -> str:
        """Display name: the recorded name of any cluster member."""
        return self._display_name_of(self.org_index_of(asn))

    def stats(self) -> Dict[str, float]:
        sizes = self.sizes()
        multi = [s for s in sizes if s > 1]
        return {
            "asns": float(self.universe_size),
            "orgs": float(len(sizes)),
            "multi_asn_orgs": float(len(multi)),
            "mean_asns_per_org": (
                sum(sizes) / len(sizes) if sizes else 0.0
            ),
            "max_asns_per_org": float(max(sizes)) if sizes else 0.0,
        }

    # -- comparisons -----------------------------------------------------------

    def changed_clusters_vs(self, baseline: "OrgMapping") -> List[Cluster]:
        """Clusters of *self* that are not identical to a baseline cluster.

        The unit Table 7 counts: organizations whose composition changed.
        """
        baseline_set = set(baseline.clusters())
        return [c for c in self.clusters() if c not in baseline_set]

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "method": self._method,
            "universe": sorted(self._by_asn),
            "clusters": [sorted(c) for c in self._multi],
            "org_names": {str(k): v for k, v in self._org_names.items()},
        }

    def save(self, path: Union[str, Path]) -> None:
        # sort_keys so the bytes don't depend on dict insertion order —
        # two runs producing the same mapping save identical files.  The
        # embedded digest covers every other key, so a truncated or
        # edited file is rejected at load time rather than silently
        # served (see verify_mapping_payload).
        from ..digest import stable_digest

        payload = self.to_json()
        payload["digest"] = stable_digest(
            {k: v for k, v in payload.items() if k != "digest"}
        )
        Path(path).write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "OrgMapping":
        return cls(
            universe=payload["universe"],  # type: ignore[arg-type]
            clusters=payload.get("clusters", ()),  # type: ignore[arg-type]
            method=str(payload.get("method", "")),
            org_names={
                int(k): str(v)
                for k, v in dict(payload.get("org_names", {})).items()  # type: ignore[arg-type]
            },
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "OrgMapping":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        verify_mapping_payload(payload, origin=str(path))
        return cls.from_json(payload)


def verify_mapping_payload(
    payload: object, origin: str = "<payload>"
) -> None:
    """Schema + digest checks for a serialized :class:`OrgMapping`.

    Raises :class:`~repro.errors.SnapshotIntegrityError` when the
    payload is not the shape :meth:`OrgMapping.save` writes or when an
    embedded ``digest`` does not match the content.  Files without a
    digest (pre-digest saves, hand-written mappings) pass the schema
    checks only — verification is opt-out by absence, never silently
    skipped when a digest is present.
    """
    from ..digest import stable_digest
    from ..errors import SnapshotIntegrityError

    def _fail(reason: str, **kwargs: str) -> None:
        raise SnapshotIntegrityError(
            source="mapping", reason=reason, path=origin, **kwargs
        )

    if not isinstance(payload, dict):
        _fail(f"mapping payload must be an object, got {type(payload).__name__}")
    universe = payload.get("universe")
    if not isinstance(universe, list) or not universe:
        _fail("mapping 'universe' must be a non-empty list of ASNs")
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in universe):
        _fail("mapping 'universe' contains non-integer ASNs")
    clusters = payload.get("clusters", [])
    if not isinstance(clusters, list) or any(
        not isinstance(c, list)
        or any(not isinstance(a, int) or isinstance(a, bool) for a in c)
        for c in clusters
    ):
        _fail("mapping 'clusters' must be lists of integer ASNs")
    org_names = payload.get("org_names", {})
    if not isinstance(org_names, dict):
        _fail("mapping 'org_names' must be an object")
    expected = payload.get("digest")
    if expected is not None:
        actual = stable_digest(
            {k: v for k, v in payload.items() if k != "digest"}
        )
        if actual != expected:
            _fail(
                "mapping digest mismatch (truncated or tampered file)",
                expected_digest=str(expected),
                actual_digest=actual,
            )
