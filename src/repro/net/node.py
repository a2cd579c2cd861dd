"""Simulated hosts and the node interface.

A :class:`Node` owns its outgoing links and receives datagrams from its
incoming ones.  Delivery is port-based: handlers register for a UDP
port, mirroring the paper's VNFs that "create a UDP socket listening at
a designated port".  Subclasses (coding VNF, source app, receiver app)
override or register handlers; :class:`Host` is the plain concrete node.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.events import EventScheduler
from repro.net.link import Link
from repro.net.packet import Datagram

Handler = Callable[[Datagram], None]


class Node:
    """A named network endpoint with port-demultiplexed delivery."""

    def __init__(self, name: str, scheduler: EventScheduler) -> None:
        self.name = name
        self.scheduler = scheduler
        self._out: dict[str, Link] = {}
        self._handlers: dict[int, Handler] = {}
        self._default_handler: Handler | None = None
        self.received_packets = 0
        self.received_bytes = 0

    # -- wiring --------------------------------------------------------

    def attach_out(self, link: Link) -> None:
        """Register an outgoing link (one per destination node)."""
        if link.src != self.name:
            raise ValueError(f"link source {link.src} is not {self.name}")
        if link.dst in self._out:
            raise ValueError(f"{self.name} already has a link to {link.dst}")
        self._out[link.dst] = link

    def attach_in(self, link: Link) -> None:
        """Register as the receiver of an incoming link."""
        if link.dst != self.name:
            raise ValueError(f"link destination {link.dst} is not {self.name}")
        link.connect(self._on_receive)

    def neighbors(self) -> list[str]:
        """Destinations reachable over a direct outgoing link."""
        return list(self._out)

    # -- sockets ---------------------------------------------------------

    def listen(self, port: int, handler: Handler) -> None:
        """Register ``handler`` for datagrams addressed to ``port``."""
        if port in self._handlers:
            raise ValueError(f"{self.name} port {port} already bound")
        self._handlers[port] = handler

    def unlisten(self, port: int) -> None:
        self._handlers.pop(port, None)

    def listen_default(self, handler: Handler) -> None:
        """Catch-all handler for ports with no specific binding."""
        self._default_handler = handler

    # -- data path ---------------------------------------------------------

    def send(self, dst: str, payload: Any, payload_bytes: int, dst_port: int = 0) -> bool:
        """Send one datagram to a directly connected neighbour."""
        dgram = Datagram(self.name, dst, payload, payload_bytes, dst_port, 0, self.scheduler.now)
        link = self._out.get(dst)
        if link is None:
            raise KeyError(f"{self.name} has no link to {dst}")
        return link.send(dgram)

    def _on_receive(self, dgram: Datagram) -> None:
        self.received_packets += 1
        self.received_bytes += dgram.wire_bytes
        handler = self._handlers.get(dgram.dst_port, self._default_handler)
        if handler is not None:
            handler(dgram)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, out={sorted(self._out)})"


class Host(Node):
    """A plain endpoint (source or destination machine)."""
