"""The Non-NC baseline: relays forward, nobody codes.

Flow-level: the best rate a forwarding-only relay overlay can deliver
is the fractional multicast tree-packing optimum
(:func:`repro.routing.packing.tree_packing_rate`), with the best single
tree (:func:`repro.routing.trees.best_multicast_tree`) as the simpler
variant.  Packet-level Non-NC behaviour — relays in FORWARDER role,
receivers needing every distinct block — lives in the experiment
harness (:mod:`repro.experiments.butterfly`), since it shares all the
machinery of the coded pipeline.
"""

from __future__ import annotations

import networkx as nx

from repro.routing.packing import tree_packing_rate
from repro.routing.trees import best_multicast_tree


def non_nc_multicast_rate(
    graph: nx.DiGraph,
    source: str,
    destinations: list,
    relay_nodes: set | None = None,
    multipath: bool = True,
) -> float:
    """Best routing-only multicast rate (Mbps).

    ``multipath=True`` gives the fractional tree-packing optimum (what a
    well-engineered forwarding overlay can reach by striping blocks over
    several trees); ``multipath=False`` the best single distribution
    tree (a classic application-layer multicast).
    """
    if multipath:
        return tree_packing_rate(graph, source, destinations, relay_nodes)
    _, rate = best_multicast_tree(graph, source, destinations, relay_nodes)
    return rate
