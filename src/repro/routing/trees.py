"""Store-and-forward multicast trees: the routing-only (Non-NC) baseline.

Without coding, a multicast session is served over a distribution tree;
its rate is the minimum residual capacity of the tree's edges.  Finding
the best single tree is the (NP-hard) bottleneck Steiner problem, but on
the paper's small candidate graphs exhaustive search over relay subsets
is exact and instant.  ``best_multicast_tree`` does that: for each
subset of allowed relay nodes it builds a maximum-bottleneck arborescence
heuristic and keeps the best.

The gap between :func:`tree_throughput` and
:func:`repro.routing.maxflow.multicast_capacity` on the butterfly *is*
the coding advantage the paper's Fig. 7 demonstrates.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import networkx as nx


def _widest_paths(graph: nx.DiGraph, source: str) -> tuple[dict[str, float], dict[str, str | None]]:
    """Maximum-bottleneck (widest) paths from source to every node.

    Dijkstra variant maximizing the minimum edge capacity along the path.
    Returns (bottleneck, parent) maps.
    """
    bottleneck: dict[str, float] = {source: float("inf")}
    parent: dict[str, str | None] = {source: None}
    visited: set[str] = set()
    frontier = {source}
    while frontier:
        u = max(frontier, key=lambda n: bottleneck[n])
        frontier.discard(u)
        if u in visited:
            continue
        visited.add(u)
        for _, v, data in graph.out_edges(u, data=True):
            cap = float(data.get("capacity_mbps", 0.0))
            width = min(bottleneck[u], cap)
            if width > bottleneck.get(v, 0.0):
                bottleneck[v] = width
                parent[v] = u
                frontier.add(v)
    return bottleneck, parent


def _tree_from_parents(
    parent: dict[str, str | None], destinations: Iterable[str]
) -> set[tuple[str, str]]:
    """Union of parent-pointer paths to the destinations (edge set)."""
    edges: set[tuple[str, str]] = set()
    for dst in destinations:
        node = dst
        while True:
            prev = parent.get(node)
            if prev is None:
                break
            edges.add((prev, node))
            node = prev
    return edges


def tree_throughput(graph: nx.DiGraph, edges: set[tuple[str, str]]) -> float:
    """Rate a single store-and-forward tree sustains: its bottleneck edge.

    In store-and-forward multicast the same stream crosses every tree
    edge once, so the sustainable session rate is the minimum capacity
    over the tree's edges.
    """
    if not edges:
        return 0.0
    return min(float(graph.edges[e]["capacity_mbps"]) for e in edges)


def best_multicast_tree(
    graph: nx.DiGraph,
    source: str,
    destinations: Iterable[str],
    relay_nodes: set[str] | None = None,
) -> tuple[set[tuple[str, str]], float]:
    """Best single distribution tree by exhaustive relay-subset search.

    For every subset of ``relay_nodes`` (all intermediate nodes by
    default) we restrict the graph to source ∪ subset ∪ destinations,
    compute widest paths, assemble the induced tree and score its
    bottleneck.  Exact on the ≤20-node graphs the system targets; the
    paper's Non-NC comparison corresponds to the best of these trees.

    Returns ``(tree_edges, throughput_mbps)``; (set(), 0.0) if no tree
    spans all destinations.
    """
    destinations = list(destinations)
    if not destinations:
        raise ValueError("a multicast session needs at least one destination")
    if relay_nodes is None:
        relay_nodes = set(graph.nodes) - {source} - set(destinations)
    relay_list = sorted(relay_nodes)

    best_edges: set[tuple[str, str]] = set()
    best_rate = 0.0
    for r in range(len(relay_list) + 1):
        for subset in itertools.combinations(relay_list, r):
            allowed = {source, *subset, *destinations}
            sub = graph.subgraph(allowed)
            bottleneck, parent = _widest_paths(sub, source)
            if any(dst not in bottleneck for dst in destinations):
                continue
            edges = _tree_from_parents(parent, destinations)
            rate = tree_throughput(graph, edges)
            if rate > best_rate:
                best_rate = rate
                best_edges = edges
    return best_edges, best_rate
