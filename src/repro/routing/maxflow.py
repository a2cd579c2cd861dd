"""Max-flow and the network-coding multicast capacity bound.

The celebrated result of Ahlswede et al. [1]: with network coding a
multicast session achieves rate equal to the *minimum over receivers of
the source→receiver max-flow* — strictly more than fractional Steiner
tree packing on graphs like the butterfly.  The paper computes this
bound with Ford–Fulkerson (69.9 Mbps on its butterfly) and shows the
implementation approaching it (Fig. 7).

We implement Edmonds–Karp (BFS Ford–Fulkerson) directly over capacity
dicts so tests can cross-check networkx, and a helper evaluating the
multicast capacity of a session.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import networkx as nx


def max_flow(graph: nx.DiGraph, source: str, sink: str) -> float:
    """Edmonds–Karp max flow from ``source`` to ``sink``.

    Edge capacities are read from ``capacity_mbps``; antiparallel edges
    are supported (residuals are tracked per directed pair).
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    if source not in graph or sink not in graph:
        return 0.0
    residual: dict[tuple[str, str], float] = {}
    # Neighbours as insertion-ordered dict keys, not a set: which shortest
    # augmenting path BFS finds follows neighbour order and the bottlenecks
    # are summed in that order, so set iteration moved the result's last
    # ulp with PYTHONHASHSEED.
    adj: dict[str, dict[str, None]] = {n: {} for n in graph.nodes}
    for u, v, data in graph.edges(data=True):
        cap = float(data.get("capacity_mbps", 0.0))
        if cap < 0:
            raise ValueError(f"negative capacity on {u}->{v}")
        residual[(u, v)] = residual.get((u, v), 0.0) + cap
        residual.setdefault((v, u), 0.0)
        adj[u][v] = None
        adj[v][u] = None

    flow = 0.0
    while True:
        # BFS for the shortest augmenting path in the residual graph.
        parent: dict[str, str | None] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual.get((u, v), 0.0) > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        # Find the bottleneck and augment.
        bottleneck = float("inf")
        v = sink
        while True:
            u = parent[v]
            if u is None:
                break
            bottleneck = min(bottleneck, residual[(u, v)])
            v = u
        v = sink
        while True:
            u = parent[v]
            if u is None:
                break
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def multicast_capacity(
    graph: nx.DiGraph,
    source: str,
    destinations: Iterable[str],
) -> float:
    """Network-coding multicast capacity: min over receivers of max-flow."""
    destinations = list(destinations)
    if not destinations:
        raise ValueError("a multicast session needs at least one destination")
    return min(max_flow(graph, source, d) for d in destinations)
