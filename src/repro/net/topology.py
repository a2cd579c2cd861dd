"""Topology container: named nodes plus directed, attributed links.

The controller's optimization consumes a *graph view* of the world —
data centers, sources, destinations and the measured (bandwidth, delay)
of the links between them — while the data plane needs live
:class:`~repro.net.link.Link` objects.  :class:`Topology` provides both:
it builds the simulator objects and exports a ``networkx.DiGraph`` for
the routing and optimization layers.

The module also ships the **OS3E wide-area graph** — the Internet2 Open
Science, Scholarship and Services Exchange backbone (34 PoP cities, 42
WAN spans) that the controller-placement literature standardized on.
Link weights are propagation latencies derived from great-circle
distances at fiber speed, so the fleet-scale experiments
(:mod:`repro.fleet`) run over realistic continental delays instead of
the hand-drawn butterfly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Any

import networkx as nx
import numpy as np

from repro.net.events import EventScheduler
from repro.net.link import Link
from repro.net.loss import LossModel
from repro.net.node import Host, Node
from repro.util.rng import child_rng, derive_rng


@dataclass
class LinkSpec:
    """Declarative description of one directed link."""

    src: str
    dst: str
    capacity_mbps: float
    delay_ms: float
    loss: LossModel | None = None
    queue_bytes: int = 256 * 1024
    jitter_s: float = 0.0

    @property
    def capacity_bps(self) -> float:
        return self.capacity_mbps * 1e6

    @property
    def delay_s(self) -> float:
        return self.delay_ms / 1e3


@dataclass
class Topology:
    """A set of nodes and the directed links between them."""

    scheduler: EventScheduler = dataclass_field(default_factory=EventScheduler)
    rng: np.random.Generator = dataclass_field(default_factory=lambda: derive_rng("net.topology"))

    def __post_init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node_or_name: Node | str) -> Node:
        """Add a node (a :class:`Node` instance or a name for a Host)."""
        node = node_or_name if isinstance(node_or_name, Node) else Host(node_or_name, self.scheduler)
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name}")
        self.nodes[node.name] = node
        return node

    def get(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def replace_node(self, node: Node) -> None:
        """Swap ``node`` in for the node of the same name, rewiring its links."""
        self.get(node.name)
        self.nodes[node.name] = node
        for (src, dst), link in self.links.items():
            if src == node.name:
                node.attach_out(link)
            if dst == node.name:
                node.attach_in(link)

    def add_link(self, spec: LinkSpec) -> Link:
        """Instantiate one directed link from a spec and wire it up."""
        key = (spec.src, spec.dst)
        if key in self.links:
            raise ValueError(f"duplicate link {spec.src}->{spec.dst}")
        src = self.get(spec.src)
        dst = self.get(spec.dst)
        link = Link(
            scheduler=self.scheduler,
            src=spec.src,
            dst=spec.dst,
            capacity_bps=spec.capacity_bps,
            delay_s=spec.delay_s,
            loss=spec.loss,
            queue_bytes=spec.queue_bytes,
            rng=child_rng(self.rng, spec.src, spec.dst),
            jitter_s=spec.jitter_s,
        )
        src.attach_out(link)
        dst.attach_in(link)
        self.links[key] = link
        return link

    def add_duplex(self, a: str, b: str, capacity_mbps: float, delay_ms: float, **kwargs: Any) -> tuple[Link, Link]:
        """Add symmetric links in both directions."""
        fwd = self.add_link(LinkSpec(a, b, capacity_mbps, delay_ms, **kwargs))
        rev = self.add_link(LinkSpec(b, a, capacity_mbps, delay_ms, **kwargs))
        return fwd, rev

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None

    # -- views ---------------------------------------------------------------

    def graph(self) -> nx.DiGraph:
        """Export a networkx view with capacity/delay edge attributes.

        Capacities are in Mbps and delays in ms, the units used by the
        optimization layer throughout.
        """
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        for (src, dst), link in self.links.items():
            g.add_edge(src, dst, capacity_mbps=link.capacity_bps / 1e6, delay_ms=link.delay_s * 1e3)
        return g

    def run(self, until: float | None = None) -> None:
        """Convenience passthrough to the scheduler."""
        self.scheduler.run(until=until)

    def __repr__(self) -> str:
        return f"Topology({len(self.nodes)} nodes, {len(self.links)} links)"


# ---------------------------------------------------------------------------
# OS3E: the Internet2 Open Science, Scholarship and Services Exchange WAN.
# ---------------------------------------------------------------------------

#: PoP city -> (latitude, longitude).  34 sites, the node set the
#: controller-placement studies use.
OS3E_SITES: dict[str, tuple[float, float]] = {
    "Albuquerque": (35.08, -106.65),
    "Ashburn": (39.04, -77.49),
    "Atlanta": (33.75, -84.39),
    "Baton Rouge": (30.45, -91.19),
    "Boston": (42.36, -71.06),
    "Buffalo": (42.89, -78.88),
    "Chicago": (41.88, -87.63),
    "Cleveland": (41.50, -81.69),
    "Dallas": (32.78, -96.80),
    "Denver": (39.74, -104.98),
    "El Paso": (31.76, -106.49),
    "Houston": (29.76, -95.37),
    "Indianapolis": (39.77, -86.16),
    "Jackson": (32.30, -90.18),
    "Jacksonville": (30.33, -81.66),
    "Kansas City": (39.10, -94.58),
    "Los Angeles": (34.05, -118.24),
    "Louisville": (38.25, -85.76),
    "Memphis": (35.15, -90.05),
    "Miami": (25.76, -80.19),
    "Minneapolis": (44.98, -93.27),
    "Missoula": (46.87, -113.99),
    "Nashville": (36.16, -86.78),
    "New York": (40.71, -74.01),
    "Philadelphia": (39.95, -75.17),
    "Pittsburgh": (40.44, -79.99),
    "Portland": (45.52, -122.68),
    "Raleigh": (35.78, -78.64),
    "Salt Lake City": (40.76, -111.89),
    "Seattle": (47.61, -122.33),
    "Sunnyvale": (37.37, -122.04),
    "Tucson": (32.22, -110.97),
    "Vancouver": (49.26, -123.11),
    "Washington": (38.91, -77.04),
}

#: Undirected WAN spans (each becomes a duplex link pair in the graph).
OS3E_SPANS: tuple[tuple[str, str], ...] = (
    ("Vancouver", "Seattle"),
    ("Seattle", "Missoula"),
    ("Missoula", "Minneapolis"),
    ("Minneapolis", "Chicago"),
    ("Seattle", "Salt Lake City"),
    ("Seattle", "Portland"),
    ("Portland", "Sunnyvale"),
    ("Sunnyvale", "Salt Lake City"),
    ("Sunnyvale", "Los Angeles"),
    ("Los Angeles", "Salt Lake City"),
    ("Los Angeles", "Tucson"),
    ("Tucson", "El Paso"),
    ("Salt Lake City", "Denver"),
    ("Denver", "Albuquerque"),
    ("Albuquerque", "El Paso"),
    ("Denver", "Kansas City"),
    ("Kansas City", "Chicago"),
    ("Kansas City", "Dallas"),
    ("El Paso", "Houston"),
    ("Dallas", "Houston"),
    ("Houston", "Jackson"),
    ("Jackson", "Memphis"),
    ("Memphis", "Nashville"),
    ("Houston", "Baton Rouge"),
    ("Baton Rouge", "Jacksonville"),
    ("Nashville", "Atlanta"),
    ("Atlanta", "Jacksonville"),
    ("Jacksonville", "Miami"),
    ("Chicago", "Indianapolis"),
    ("Indianapolis", "Louisville"),
    ("Louisville", "Nashville"),
    ("Chicago", "Cleveland"),
    ("Cleveland", "Buffalo"),
    ("Buffalo", "Boston"),
    ("Boston", "New York"),
    ("New York", "Philadelphia"),
    ("Philadelphia", "Washington"),
    ("Cleveland", "Pittsburgh"),
    ("Pittsburgh", "Ashburn"),
    ("Ashburn", "Washington"),
    ("Washington", "Raleigh"),
    ("Raleigh", "Atlanta"),
)

#: Propagation speed in fiber, km per millisecond (~2/3 c).
FIBER_KM_PER_MS = 200.0

_EARTH_RADIUS_KM = 6371.0


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Haversine distance between two (lat, lon) pairs in kilometres."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def os3e_span_delay_ms(a: str, b: str) -> float:
    """One-way propagation latency of the direct WAN span a—b."""
    return great_circle_km(OS3E_SITES[a], OS3E_SITES[b]) / FIBER_KM_PER_MS


def os3e_graph(capacity_mbps: float = 10_000.0) -> nx.DiGraph:
    """The weighted OS3E WAN as an optimization-layer ``DiGraph``.

    Every span appears in both directions with ``capacity_mbps`` and a
    ``delay_ms`` computed from the great-circle distance at fiber speed
    — the same units the deployment LP consumes everywhere else.
    """
    if capacity_mbps <= 0:
        raise ValueError("capacity must be positive")
    g = nx.DiGraph()
    g.add_nodes_from(OS3E_SITES)
    for a, b in OS3E_SPANS:
        delay = os3e_span_delay_ms(a, b)
        g.add_edge(a, b, capacity_mbps=capacity_mbps, delay_ms=delay)
        g.add_edge(b, a, capacity_mbps=capacity_mbps, delay_ms=delay)
    return g


def os3e_latency_ms() -> dict[str, dict[str, float]]:
    """All-pairs shortest propagation latency over the OS3E WAN.

    Returns ``{city: {city: delay_ms}}``; the diagonal is 0.  This is
    the latency matrix the fleet layer uses to weight its overlay edges
    (an overlay hop between two PoPs rides the shortest WAN route).
    """
    return {src: dict(dsts) for src, dsts in _os3e_default_latency()}  # the caller's own copy


@functools.lru_cache(maxsize=1)
def _os3e_default_latency() -> tuple[tuple[str, dict[str, float]], ...]:
    """The graph never changes: its Dijkstra runs once per process."""
    return tuple(nx.all_pairs_dijkstra_path_length(os3e_graph(), weight="delay_ms"))
