"""The Organization Factor graph, as an actual graph.

§5.4 defines θ over a graph G = (V, E): vertices are all WHOIS-delegated
networks, and each organization forms a clique.  This module materializes
that graph with :mod:`networkx` — for interoperability (researchers can
join it with AS-relationship graphs), for graph-theoretic sanity checks
(components ↔ organizations), and for an independent θ computation that
cross-validates the fast size-vector implementation.
"""

from __future__ import annotations

from typing import Dict

import networkx as nx

from ..core.mapping import OrgMapping
from .org_factor import org_factor


def mapping_to_graph(mapping: OrgMapping) -> "nx.Graph":
    """Build the §5.4 clique graph of one mapping.

    Every ASN is a node (singletons included); each organization's
    members form a clique; no edges cross organizations.  Node attribute
    ``org`` carries the organization index, ``org_name`` its display name.
    """
    graph = nx.Graph()
    for index, cluster in enumerate(mapping.clusters()):
        members = sorted(cluster)
        name = mapping.org_name_of(members[0])
        for asn in members:
            graph.add_node(asn, org=index, org_name=name)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                graph.add_edge(a, b)
    return graph


def graph_org_factor(graph: "nx.Graph", normalization: str = "normalized") -> float:
    """θ computed from a clique graph's connected components.

    Independent of :func:`repro.metrics.org_factor.org_factor_from_mapping`
    — used in tests to cross-validate the two paths.
    """
    sizes = [len(component) for component in nx.connected_components(graph)]
    return org_factor(sizes, normalization=normalization)


def graph_stats(graph: "nx.Graph") -> Dict[str, float]:
    """Clique-graph summary: the quantities the θ construction implies."""
    components = [len(c) for c in nx.connected_components(graph)]
    n = graph.number_of_nodes()
    return {
        "nodes": float(n),
        "edges": float(graph.number_of_edges()),
        "organizations": float(len(components)),
        "largest_organization": float(max(components)) if components else 0.0,
        # Each org is a clique: the edge count must be Σ s(s-1)/2.
        "expected_clique_edges": float(
            sum(s * (s - 1) // 2 for s in components)
        ),
    }


def is_valid_clique_graph(graph: "nx.Graph") -> bool:
    """Check the §5.4 structural invariant: every component is a clique."""
    for component in nx.connected_components(graph):
        size = len(component)
        subgraph = graph.subgraph(component)
        if subgraph.number_of_edges() != size * (size - 1) // 2:
            return False
    return True
