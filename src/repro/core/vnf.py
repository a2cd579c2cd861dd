"""The data-plane coding VNF (paper §III-B2).

A :class:`CodingVnf` is a simulated node running the network coding
function.  Per session it acts in one of four roles:

- ``FORWARDER`` — pass packets through unchanged (the controller assigns
  this when only one flow of the session reaches the data center, where
  coding would be pointless).
- ``RECODER`` — the pipelined relay: buffer, emit a fresh random
  combination per arrival, forward to the next hops in the forwarding
  table (an *independent* recode per next hop, so downstream nodes get
  diverse combinations).
- ``DECODER`` — progressive Gaussian elimination; on completing a
  generation, deliver it to the local receiver application.
- ``ENCODER`` — reserved for source-side use (source apps typically use
  :class:`repro.rlnc.Encoder` directly; a VNF encoder re-codes
  systematic input into dense combinations).

Packet processing is modelled as a single-server queue whose per-packet
service time is derived from the VNF's coding capacity C(v) and its NIC
model, so a VNF saturates realistically instead of having infinite
throughput.  Forwarding-table reloads pause the function (SIGUSR1
cycle, §III-A); packets arriving during the pause are queued and
processed on resume.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from repro.core.forwarding import ForwardingTable, ForwardingUpdateModel
from repro.core.session import CodingConfig
from repro.net.buffer import GenerationBuffer
from repro.net.events import EventScheduler
from repro.net.nic import PollModeNic
from repro.net.node import Node
from repro.net.packet import Datagram
from repro.rlnc.decoder import Decoder
from repro.rlnc.generation import Generation
from repro.rlnc.packet import CodedPacket, MalformedPacketError
from repro.rlnc.recoder import Recoder
from repro.util.rng import derive_rng

NC_PORT = 52017  # the designated UDP port coding VNFs listen on


class VnfRole(enum.Enum):
    ENCODER = "encoder"
    RECODER = "recoder"
    DECODER = "decoder"
    FORWARDER = "forwarder"


class _RelayState:
    """What a recoding VNF keeps for one buffered (session, generation)."""

    __slots__ = ("recoder", "hop_progress")

    def __init__(self, recoder: Recoder) -> None:
        self.recoder = recoder
        #: shaped next hop -> arrivals so far
        self.hop_progress: dict[str, int] = {}


class CodingVnf(Node):
    """One coding function instance on one VM."""

    def __init__(
        self,
        name: str,
        scheduler: EventScheduler,
        coding_capacity_mbps: float = 900.0,
        rng: np.random.Generator | None = None,
        payload_mode: str = "full",
        coding_overhead_s: float = 90e-6,
    ) -> None:
        super().__init__(name, scheduler)
        if coding_capacity_mbps <= 0:
            raise ValueError("coding capacity must be positive")
        if payload_mode not in ("full", "coefficients-only"):
            raise ValueError("payload_mode must be 'full' or 'coefficients-only'")
        if coding_overhead_s < 0:
            raise ValueError("coding overhead cannot be negative")
        self.coding_capacity_mbps = coding_capacity_mbps
        self.coding_overhead_s = coding_overhead_s
        self.nic = PollModeNic()
        # The poll-mode NIC is frozen and rate-independent: its
        # per-packet cost is a constant of the VNF.
        self._nic_s = self.nic.cpu_seconds_per_packet()
        self.update_model = ForwardingUpdateModel()
        self.payload_mode = payload_mode
        self._rng = rng if rng is not None else derive_rng("core.vnf", name)

        self.roles: dict[int, VnfRole] = {}
        self.configs: dict[int, CodingConfig] = {}
        # Per-hop output shaping.  By default a recoder emits one packet
        # per arrival per next hop (the paper's pipelining).  At a merge
        # point whose out-link is allocated less than its inflow, the
        # controller installs a shape (skip S arrivals, then emit up to E
        # packets per generation): skipping the first arrivals guarantees
        # the first recode already mixes both incoming branches, and the
        # emission cap matches the conceptual-flow allocation instead of
        # flooding the link.
        # session -> hop -> skip_arrivals
        self._hop_shapes: dict[int, dict[str, int]] = {}
        self._payload_bytes: dict[int, int] = {}    # session -> last seen wire payload size
        self.forwarding_table = ForwardingTable()
        self.buffers: dict[int, GenerationBuffer] = {}
        # session -> generation -> relay state / decoder, one entry per
        # generation the session's buffer holds; the buffer owns
        # eviction and reports it (GenerationBuffer.last_evicted), so
        # steady-state cost per packet does not depend on how many are
        # buffered.  The recoder's rows are the only stored copy of a
        # relay's packets — the buffer keeps counts, not packets.
        self._relays: dict[int, dict[int, _RelayState]] = {}
        self._decoders: dict[int, dict[int, Decoder]] = {}
        self._delivery: dict[int, Callable[[int, Generation], None]] = {}

        # Staged mid-session coding retunes (DESIGN.md §15): applied at
        # the next generation boundary, never to in-flight generations.
        self._pending_retunes: dict[int, CodingConfig] = {}

        self._busy_until = 0.0
        self._paused_until = 0.0
        self._pause_queue: list[Datagram] = []
        self.processed_packets = 0
        self.emitted_packets = 0
        self.decoded_generations = 0
        self.retunes_applied = 0
        # Dirty-wire containment counters (DESIGN.md §11).
        self.corrupt_dropped = 0
        self.duplicate_dropped = 0
        self.stale_dropped = 0
        self.malformed_dropped = 0

        self.listen(NC_PORT, self._on_data)

    # -- configuration (driven by the daemon via NC_SETTINGS etc.) -------

    def configure_session(
        self,
        session_id: int,
        role: VnfRole,
        config: CodingConfig,
        deliver: Callable[[int, Generation], None] | None = None,
    ) -> None:
        """Install a session's role and coding parameters."""
        self.roles[session_id] = role
        self.configs[session_id] = config
        self.buffers[session_id] = GenerationBuffer(config.buffer_generations)
        self._relays.setdefault(session_id, {})
        self._decoders.setdefault(session_id, {})
        self._hop_shapes.setdefault(session_id, {})
        self._pending_retunes.pop(session_id, None)
        if deliver is not None:
            self._delivery[session_id] = deliver

    def retune_session(self, session_id: int, config: CodingConfig) -> None:
        """Stage a mid-session coding retune (adaptive redundancy, §15).

        Per-generation recoder/decoder state is immutable once created
        — its dimensions come from the packet headers of the generation
        it serves — so the new config is *not* applied to in-flight
        generations.  It takes effect the next time per-generation
        state is built for a generation this node has not seen, which
        is the generation-boundary guarantee the adaptive controller
        and the mid-block retune tests rely on.  Staging twice before a
        boundary keeps only the newest config.
        """
        if session_id not in self.configs:
            raise KeyError(f"session {session_id} is not configured on {self.name}")
        self._pending_retunes[session_id] = config

    def _config_at_boundary(self, session_id: int) -> CodingConfig:
        """Consume any staged retune; only call at a generation boundary."""
        pending = self._pending_retunes.pop(session_id, None)
        if pending is not None:
            self.configs[session_id] = pending
            self.retunes_applied += 1
        return self.configs[session_id]

    def set_hop_shape(self, session_id: int, next_hop: str, skip_arrivals: int) -> None:
        """Shape a recoder's output toward one next hop.

        Per generation: ignore the first ``skip_arrivals`` packets, then
        emit one fresh recode per arrival.  A merge point whose inflow is
        n packets per generation but whose out-link is allocated n − s of
        them uses ``skip_arrivals = s``: the skipped head guarantees
        every emitted recode mixes both incoming branches, and the
        steady-state emission count follows from the arrivals.  There is
        no cap, so late extra arrivals — end-to-end repair packets —
        flow through instead of being silently absorbed.

        ``skip_arrivals=0`` *clears* the shape: the hop
        returns to default verbatim-first pipelining.  Re-optimization
        after a failure relies on this — a stale merge shape left on a
        hop whose merge is gone would silently starve the surviving
        branch of degrees of freedom.
        """
        if skip_arrivals < 0:
            raise ValueError("skip_arrivals cannot be negative")
        if skip_arrivals == 0:
            self._hop_shapes.get(session_id, {}).pop(next_hop, None)
            for relay in self._relays.get(session_id, {}).values():
                relay.hop_progress.pop(next_hop, None)
            return
        self._hop_shapes.setdefault(session_id, {})[next_hop] = skip_arrivals

    def emit_repair(self, session_id: int, generation_id: int, count: int) -> int:
        """Emit up to ``count`` fresh recodes of a buffered generation.

        The relay-side half of generation-level feedback: a recoding VNF
        already holds coded state for recent generations, so it can
        answer a downstream NACK locally instead of waiting a full
        round-trip to the source.  Packets go to every configured next
        hop (duplicate degrees of freedom are harmless under RLNC).
        Returns the number of packets sent; 0 when the generation is no
        longer buffered — the caller then relies on the source repair.
        """
        if count <= 0:
            return 0
        relay = self._relays.get(session_id, {}).get(generation_id)
        payload_bytes = self._payload_bytes.get(session_id)
        if relay is None or relay.recoder.buffered == 0 or payload_bytes is None:
            return 0
        recoder = relay.recoder
        hops = self.forwarding_table.next_hops(session_id)
        if not hops:
            return 0
        # One batch matmul covers every (round, hop) emission; packets go
        # out in the same (round-major) order the per-call loop produced.
        packets = recoder.recode_batch(count * len(hops))
        sent = 0
        for packet in packets:
            hop = hops[sent % len(hops)]
            self.emitted_packets += 1
            self.send(hop, packet, payload_bytes, dst_port=NC_PORT)
            sent += 1
        return sent

    def drop_session(self, session_id: int) -> None:
        """Remove all state for a finished session."""
        self.roles.pop(session_id, None)
        self.configs.pop(session_id, None)
        self.buffers.pop(session_id, None)
        self._pending_retunes.pop(session_id, None)
        self._delivery.pop(session_id, None)
        self._payload_bytes.pop(session_id, None)
        self._hop_shapes.pop(session_id, None)
        self._relays.pop(session_id, None)
        self._decoders.pop(session_id, None)

    def apply_forwarding_table(self, new_table: ForwardingTable) -> float:
        """Replace the forwarding table; returns the pause duration.

        Models the SIGUSR1 pause/reload/resume cycle: the function stops
        processing for the Tab. III-calibrated duration, then drains
        packets that queued up meanwhile.
        """
        pause = self.update_model.pause_for_update(self.forwarding_table, new_table)
        self.forwarding_table = new_table.copy()
        if pause > 0:
            resume_at = max(self.scheduler.now, self._paused_until) + pause
            self._paused_until = resume_at
            self.scheduler.schedule_at(resume_at, self._drain_pause_queue)
        return pause

    # -- the packet path ----------------------------------------------------

    def inject(self, dgram: Datagram) -> None:
        """Hand a datagram to the coding function (used by dispatchers)."""
        self._on_data(dgram)

    def _on_data(self, dgram: Datagram) -> None:
        if self.scheduler.now < self._paused_until:
            self._pause_queue.append(dgram)
            return
        self._process(dgram)

    def _drain_pause_queue(self) -> None:
        if self.scheduler.now < self._paused_until:
            return  # a later reload extended the pause
        queued, self._pause_queue = self._pause_queue, []
        for dgram in queued:
            self._process(dgram)

    def _service_time(self, dgram: Datagram, role: VnfRole) -> float:
        """Per-packet processing time: NIC I/O, plus coding cost for coding roles.

        The coding term has a throughput component (wire bits over C(v))
        and a fixed per-packet overhead (coefficient generation, GF setup
        — the part of the Kodo pipeline that does not amortize), which is
        what produces the paper's 0.9–1.5 % relayed-path delay increment.
        """
        service = self._nic_s
        if role is not VnfRole.FORWARDER:
            service += dgram.wire_bits / (self.coding_capacity_mbps * 1e6) + self.coding_overhead_s
        return service

    def _process(self, dgram: Datagram) -> None:
        packet = dgram.payload
        if not isinstance(packet, CodedPacket):
            return  # not for the coding layer
        role = self.roles.get(packet.header.session_id)
        if role is None:
            return  # unknown session: drop (no NC_SETTINGS received)
        scheduler = self.scheduler
        now = scheduler.now
        start = self._busy_until
        if now > start:
            start = now
        finish = self._busy_until = start + self._service_time(dgram, role)
        # schedule_at's own arithmetic, without its extra call frame.
        scheduler.schedule(finish - now, self._handle_packet, packet, dgram.payload_bytes)

    def _handle_packet(self, packet: CodedPacket, payload_bytes: int) -> None:
        if not packet.verify():
            # Bit-flipped in flight: drop before it can reach a recoder
            # or decoder.  One polluted packet mixed into a recode would
            # contaminate every downstream derivative (classic RLNC
            # pollution); dropped here it degrades into plain loss,
            # which the NACK-repair path already heals.
            self.corrupt_dropped += 1
            return
        self.processed_packets += 1
        role = self.roles[packet.header.session_id]
        if role is VnfRole.FORWARDER:
            self._forward(packet, payload_bytes)
        elif role is VnfRole.RECODER or role is VnfRole.ENCODER:
            self._recode_and_forward(packet, payload_bytes)
        elif role is VnfRole.DECODER:
            self._decode(packet)

    def _forward(self, packet: CodedPacket, payload_bytes: int) -> None:
        for hop in self.forwarding_table.next_hops(packet.header.session_id):
            self.emitted_packets += 1
            self.send(hop, packet, payload_bytes, NC_PORT)

    def _recode_and_forward(self, original: CodedPacket, payload_bytes: int) -> None:
        header = original.header
        session_id = header.session_id
        generation_id = header.generation_id
        buffer = self.buffers[session_id]
        self._payload_bytes[session_id] = payload_bytes
        relays = self._relays[session_id]
        relay = relays.get(generation_id)
        if relay is None or generation_id not in buffer:
            # New generation: the buffer arbitrates first — a straggler
            # for an already-evicted generation is refused rather than
            # allowed to evict live state for a dead one.
            if not buffer.add(generation_id):
                self.stale_dropped += 1
                return
            config = self._config_at_boundary(session_id)
            recoder = Recoder(
                session_id,
                generation_id,
                header.block_count,
                field=config.galois_field,
                rng=self._rng,
            )
            recoder.add(original)
            first = True
            if relay is None:
                relay = relays[generation_id] = _RelayState(recoder)
            else:
                # configure_session() replaced the buffer under a
                # generation in flight: recoding restarts from this
                # packet, the per-hop shaping counts carry on.
                relay.recoder = recoder
            if buffer.last_evicted is not None:
                relays.pop(buffer.last_evicted, None)
        else:
            recoder = relay.recoder
            try:
                fresh = recoder.add(original)
            except MalformedPacketError:
                # Shaped unlike the generation it names: dropped before
                # the buffer counts it, like a corrupt packet.
                self.malformed_dropped += 1
                return
            if not buffer.add(generation_id, duplicate=not fresh):
                # A wire-duplicated copy adds no degree of freedom: emitting
                # a recode for it would just burn downstream bandwidth.
                self.duplicate_dropped += 1
                return
            first = False
        # Default pipelining: one packet out per packet in on every next
        # hop, the very first packet of a generation forwarded verbatim.
        # A shaped hop instead skips its first ``skip`` arrivals and
        # then always emits a fresh recode.
        shapes = self._hop_shapes[session_id]
        emitting = self.forwarding_table.next_hops(session_id)
        if shapes:
            progress = relay.hop_progress
            unskipped: list[str] = []
            for hop in emitting:
                skip = shapes.get(hop)
                if skip is not None:
                    arrivals = progress[hop] = progress.get(hop, 0) + 1
                    if arrivals <= skip:
                        continue
                unskipped.append(hop)
            emitting = unskipped
        if not first:
            recodes = len(emitting)
        else:
            recodes = sum(hop in shapes for hop in emitting)
        # One draw and one product cover every hop that emits a recode.
        fresh_recodes = iter(recoder.recode_batch(recodes))
        self.emitted_packets += len(emitting)
        for hop in emitting:
            self.send(hop, next(fresh_recodes) if not first or hop in shapes else original, payload_bytes, NC_PORT)

    def _decode(self, packet: CodedPacket) -> None:
        header = packet.header
        session_id = header.session_id
        generation_id = header.generation_id
        buffer = self.buffers[session_id]
        decoders = self._decoders[session_id]
        decoder = decoders.get(generation_id)
        if decoder is None or generation_id not in buffer:
            # New generation: same arbitration as a relay's — FIFO over
            # buffer_generations, and a straggler for an evicted
            # generation is refused, not given a fresh decoder.
            if not buffer.add(generation_id):
                self.stale_dropped += 1
                return
            if decoder is None:
                config = self._config_at_boundary(session_id)
                block_bytes = (
                    packet.payload.shape[0] if self.payload_mode == "coefficients-only" else config.block_bytes
                )
                decoder = decoders[generation_id] = Decoder(
                    session_id,
                    generation_id,
                    header.block_count,
                    block_bytes,
                    field=config.galois_field,
                )
            if buffer.last_evicted is not None:
                decoders.pop(buffer.last_evicted, None)
        if decoder.complete:
            return  # late redundant packet
        try:
            decoder.add(packet)
        except MalformedPacketError:
            self.malformed_dropped += 1
            return
        if decoder.complete:
            self.decoded_generations += 1
            generation = decoder.decode()
            deliver = self._delivery.get(session_id)
            if deliver is not None:
                deliver(session_id, generation)
            # Also forward decoded payloads to any configured next hops
            # (decoder VNFs "forward the recovered payload to the
            # destinations", §III-A).
            for hop in self.forwarding_table.next_hops(session_id):
                self.emitted_packets += 1
                self.send(hop, generation, generation.size_bytes, NC_PORT)

    # -- introspection --------------------------------------------------------

    @property
    def is_paused(self) -> bool:
        return self.scheduler.now < self._paused_until

    def decoder_state(self, session_id: int, generation_id: int) -> Decoder | None:
        return self._decoders.get(session_id, {}).get(generation_id)


class VnfDispatcher(Node):
    """Entry point of a data center running several VNF instances.

    When multiple VNFs are launched in one data center, incoming packets
    are spread across them "based on session id and generation id.
    Packets belonging to the same generation are dispatched to the same
    VNF instance" (§IV-A) — necessary because recoding state is
    per-generation.  The dispatcher hashes (session, generation) onto
    the instance list; it represents intra-DC switching and adds no
    delay of its own.
    """

    def __init__(self, name: str, scheduler: EventScheduler) -> None:
        super().__init__(name, scheduler)
        self.instances: list[CodingVnf] = []
        self.listen(NC_PORT, self._dispatch)
        self.dispatched = 0

    def add_instance(self, vnf: CodingVnf) -> None:
        self.instances.append(vnf)

    def _dispatch(self, dgram: Datagram) -> None:
        if not self.instances:
            return
        packet = dgram.payload
        if isinstance(packet, CodedPacket):
            index = hash((packet.session_id, packet.generation_id)) % len(self.instances)
        else:
            index = self.dispatched % len(self.instances)
        self.dispatched += 1
        self.instances[index].inject(dgram)
