"""File transmission over the coding system (the paper's driver app).

Cast of characters:

- :class:`NcSourceApp` — segments a message into generations and paces
  packets onto its outgoing links.  In ``coded`` mode (default) it
  emits RLNC packets per the conceptual-flow link shares; with
  ``coded=False`` it emits the *original* blocks (the Non-NC source),
  striping them across links with the same credit accounting.
- :class:`NcReceiverApp` — progressive decoder per generation with
  goodput accounting, periodic cumulative ACKs, and NACK-based repair
  requests for stalled generations (the "wait for retransmissions"
  behaviour the paper attributes to NC0 under loss, §V-B3).
- :class:`StripedSourceApp` / :class:`TreeForwarder` — the strong
  routing-only baseline: generations assigned to distribution trees
  from the fractional tree-packing solution, relays duplicating along
  each generation's tree.

Reliability model (matching a windowed UDP file transfer):

* The source keeps a send window of ``window_generations``; it stalls
  when the oldest unacknowledged generation falls that far behind.
* Receivers send cumulative ACKs every ``ack_interval_s`` and NACKs for
  generations that stayed incomplete while newer data arrived.  A NACK
  carries the number of missing degrees of freedom and (for the uncoded
  mode) the missing block indices.
* On NACK the source emits fresh coded packets (or the named original
  blocks) for that generation down every outgoing link.

``payload_mode="coefficients-only"`` runs the full coding control flow
(real coefficient algebra, real decodability) with tiny payload arrays,
charging links for full-size packets — the honest speed trick described
in DESIGN.md §2.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import NC_PORT
from repro.net.events import EventScheduler
from repro.net.node import Node
from repro.net.packet import Datagram
from repro.rlnc.decoder import Decoder
from repro.rlnc.encoder import Encoder
from repro.rlnc.generation import Generation
from repro.rlnc.header import FIXED_HEADER_BYTES, NCHeader
from repro.rlnc.packet import CodedPacket, MalformedPacketError
from repro.util.rng import derive_rng

ACK_PORT = 52018
CONTROL_PAYLOAD_BYTES = 64


def _make_generation(generation_id: int, blocks: int, block_bytes: int, rng: np.random.Generator) -> Generation:
    """A generation of pseudo-random file data."""
    data = rng.integers(0, 256, size=(blocks, block_bytes), dtype=np.uint8)
    return Generation(generation_id=generation_id, blocks=data)


def _is_nack(message: object) -> bool:
    """A well-formed ``("nack", session, generation, missing_dof, missing_indices)``."""
    return (
        isinstance(message, tuple)
        and len(message) == 5
        and message[0] == "nack"
        and all(isinstance(field, int) for field in message[1:4])
        and isinstance(message[4], tuple)
    )


@dataclass
class LinkShare:
    """One outgoing link of the source with its conceptual-flow rate."""

    next_hop: str
    rate_mbps: float
    credit: float = 0.0


class NcSourceApp:
    """Paced (optionally windowed) source for one multicast session.

    Parameters
    ----------
    node:
        The simulated host to send from.
    session:
        Coding configuration and session id come from here.
    link_shares:
        ``{next_hop: rate_mbps}`` — the conceptual-flow allocation of
        the source's outgoing links (from the deployment plan, or the
        static butterfly labels).
    data_rate_mbps:
        λ: the goodput rate at which generations are produced.
    coded:
        True → RLNC packets; False → original blocks (Non-NC source).
    window_generations:
        Flow-control window; ``None`` disables windowing (pure pacing).
    payload_mode:
        "full" carries real block bytes; "coefficients-only" carries
        4-byte stand-ins (links are still charged the logical size).
    """

    def __init__(
        self,
        node: Node,
        session: MulticastSession,
        link_shares: dict,
        data_rate_mbps: float,
        coded: bool = True,
        window_generations: int | None = None,
        payload_mode: str = "full",
        rng: np.random.Generator | None = None,
        total_generations: int | None = None,
        cache_generations: int = 4096,
    ):
        if data_rate_mbps <= 0:
            raise ValueError("data rate must be positive")
        if not link_shares:
            raise ValueError("the source needs at least one outgoing link share")
        if window_generations is not None and window_generations <= 0:
            raise ValueError("window must be positive when given")
        self.node = node
        self.session = session
        self.shares = [LinkShare(hop, rate) for hop, rate in link_shares.items()]
        self.data_rate_mbps = data_rate_mbps
        self.coded = coded
        self.window_generations = window_generations
        self.payload_mode = payload_mode
        self._rng = rng if rng is not None else derive_rng(
            "apps.file_transfer.source", node.name, session.session_id
        )
        self.total_generations = total_generations
        self.sent_generations = 0
        self.sent_packets = 0
        self.repair_packets = 0
        self.coding_retunes = 0
        self.malformed_control = 0
        self.first_generation_sent_at: float | None = None
        self._pending_coding: tuple[CodingConfig, dict | None] | None = None
        self._running = False
        self._stalled = False
        self._receiver_cum_ack: dict[str, int] = {}

        config = session.coding
        self._gen_interval_s = config.generation_bytes * 8 / (data_rate_mbps * 1e6)
        # Logical wire size of one NC packet (header + full block).
        self._packet_payload_bytes = config.block_bytes + FIXED_HEADER_BYTES + config.blocks_per_generation
        self._effective_block_bytes = 4 if payload_mode == "coefficients-only" else config.block_bytes
        self._cache: "OrderedDict[int, Generation]" = OrderedDict()
        self._cache_limit = cache_generations
        self._repair_debt_s = 0.0          # pacing debt repairs owe the data stream
        self._repair_rr = 0                # round-robin link index for repairs
        # (next_hop, packet), drained paced from the head
        self._repair_queue: deque[tuple[str, CodedPacket]] = deque()
        self._repair_drain_running = False
        self._last_repair_at: dict[int, float] = {}
        self.repair_dedupe_s = 0.08        # collapse duplicate NACKs (two receivers)
        node.listen(ACK_PORT, self._on_control)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.node.scheduler.schedule(0.0, self._emit_generation)

    def stop(self) -> None:
        self._running = False

    def reconfigure(self, data_rate_mbps: float | None = None, link_shares: dict | None = None) -> None:
        """Apply a controller re-route mid-run (the recovery path).

        Takes effect from the next generation: the pacing interval and
        the per-link conceptual-flow shares are recomputed.  Credits of
        surviving links carry over so the largest-remainder packet
        allocation stays exact across the switch.
        """
        if data_rate_mbps is not None:
            if data_rate_mbps <= 0:
                raise ValueError("data rate must be positive")
            self.data_rate_mbps = data_rate_mbps
            self._gen_interval_s = self.session.coding.generation_bytes * 8 / (data_rate_mbps * 1e6)
        if link_shares is not None:
            if not link_shares:
                raise ValueError("the source needs at least one outgoing link share")
            old_credit = {share.next_hop: share.credit for share in self.shares}
            self.shares = [
                LinkShare(hop, rate, credit=old_credit.get(hop, 0.0))
                for hop, rate in link_shares.items()
            ]

    def retune_coding(self, config: CodingConfig, link_shares: dict | None = None) -> None:
        """Stage an adaptive coding retune (DESIGN.md §15).

        The new generation size / redundancy — and, when given, the
        matching rescaled link shares that express the redundancy on
        the wire (shares totalling λ·(k+r)/k) — apply atomically at the
        start of the *next* generation.  A generation in flight is
        never reshaped: its packets were all scheduled in one
        ``_emit_generation`` pass under the old config.  Staging twice
        before a boundary keeps only the newest retune.
        """
        self._pending_coding = (config, link_shares)

    def _apply_pending_coding(self) -> None:
        if self._pending_coding is None:
            return
        config, link_shares = self._pending_coding
        self._pending_coding = None
        self.session.coding = config
        self._gen_interval_s = config.generation_bytes * 8 / (self.data_rate_mbps * 1e6)
        self._packet_payload_bytes = config.block_bytes + FIXED_HEADER_BYTES + config.blocks_per_generation
        self._effective_block_bytes = 4 if self.payload_mode == "coefficients-only" else config.block_bytes
        if link_shares is not None:
            self.reconfigure(link_shares=link_shares)
        self.coding_retunes += 1

    # -- flow control -----------------------------------------------------

    @property
    def min_cum_ack(self) -> int:
        """Oldest cumulative ACK across receivers (-1 before any ACK)."""
        if not self._receiver_cum_ack:
            return -1
        return min(self._receiver_cum_ack.values())

    def _window_open(self) -> bool:
        if self.window_generations is None:
            return True
        return self.sent_generations - (self.min_cum_ack + 1) < self.window_generations

    def _on_control(self, dgram: Datagram) -> None:
        """ACK/NACK intake: anything but a well-formed message for this
        session is a counted drop, never an exception out of the event loop."""
        message = dgram.payload
        if not isinstance(message, tuple) or len(message) < 2 or message[1] != self.session.session_id:
            self.malformed_control += 1
        elif message[0] == "cum_ack" and len(message) == 4 and isinstance(message[3], int):
            _, _, receiver, upto = message
            previous = self._receiver_cum_ack.get(receiver, -1)
            self._receiver_cum_ack[receiver] = max(previous, upto)
            if self._stalled and self._window_open():
                self._stalled = False
                self.node.scheduler.schedule(0.0, self._emit_generation)
        elif _is_nack(message):
            self._repair(message[2], message[3], message[4])
        else:
            self.malformed_control += 1

    # -- generation pacing -----------------------------------------------------

    def _emit_generation(self) -> None:
        if not self._running:
            return
        if self.total_generations is not None and self.sent_generations >= self.total_generations:
            self._running = False
            return
        if not self._window_open():
            self._stalled = True  # resumed by the next ACK that opens the window
            return
        self._apply_pending_coding()
        config = self.session.coding
        generation = _make_generation(
            self.sent_generations, config.blocks_per_generation, self._effective_block_bytes, self._rng
        )
        self._remember(generation)
        if self.sent_generations == 0:
            self.first_generation_sent_at = self.node.scheduler.now
        if self.coded:
            self._emit_coded(generation)
        else:
            self._emit_original(generation)
        self.sent_generations += 1
        # Repair traffic displaces data: the debt it accrued delays the
        # next generation, keeping total egress at the configured rate.
        delay = self._gen_interval_s + self._repair_debt_s
        self._repair_debt_s = 0.0
        self.node.scheduler.schedule(delay, self._emit_generation)

    def _emit_coded(self, generation: Generation) -> None:
        config = self.session.coding
        encoder = Encoder(
            self.session.session_id, generation, field=config.galois_field, systematic=True, rng=self._rng
        )
        k = config.blocks_per_generation
        total_rate = sum(s.rate_mbps for s in self.shares)
        # Packets this generation contributes to each link: the link's
        # share of k·(total/λ) packets.  Redundancy (NC1/NC2) is expressed
        # through the link shares: a source sending k+r packets per
        # generation for k blocks of data allocates shares totalling
        # λ·(k+r)/k.  Allocation is largest-remainder with carried
        # credits so BOTH the per-link rates and the per-generation total
        # are exact — rounding links independently would give some
        # generations k−1 packets (undecodable) and others k+1 (waste).
        budget = k * total_rate / self.data_rate_mbps
        packet_interval = self._gen_interval_s / max(budget, 1.0)
        raw = [share.credit + budget * share.rate_mbps / total_rate for share in self.shares]
        counts = [int(q) for q in raw]
        target_total = int(sum(raw) + 1e-9)
        extras = target_total - sum(counts)
        by_remainder = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
        for i in by_remainder[:max(0, extras)]:
            counts[i] += 1
        # All of the generation's packets come from one batched draw (one
        # matmul for the coded tail); shares then consume the list in the
        # same order the per-packet loop did.
        burst = encoder.next_packets(sum(counts))
        delay = 0.0
        emitted = 0
        for share, quota, count in zip(self.shares, raw, counts):
            share.credit = quota - count
            for packet in burst[emitted : emitted + count]:
                self.node.scheduler.schedule(delay, self._send, share.next_hop, packet)
                delay += packet_interval
            emitted += count
        # Systematic-first only makes sense when a single link carries the
        # whole generation; across links every receiver sees a mixture, so
        # the Encoder's coded fallback after k packets is exactly right.

    def _emit_original(self, generation: Generation) -> None:
        k = self.session.coding.blocks_per_generation
        total_rate = sum(s.rate_mbps for s in self.shares)
        packet_interval = self._gen_interval_s / k
        index = 0
        for share in self.shares:
            share.credit += k * share.rate_mbps / total_rate
            count = int(share.credit)
            share.credit -= count
            for _ in range(count):
                if index >= k:
                    break
                self.node.scheduler.schedule(
                    index * packet_interval, self._send, share.next_hop, self._block_packet(generation, index)
                )
                index += 1
        # Credit rounding can leave a straggler block; round-robin it.
        while index < k:
            share = self.shares[index % len(self.shares)]
            self.node.scheduler.schedule(
                index * packet_interval, self._send, share.next_hop, self._block_packet(generation, index)
            )
            index += 1

    def _block_packet(self, generation: Generation, index: int) -> CodedPacket:
        k = generation.block_count
        coeffs = np.zeros(k, dtype=np.uint8)
        coeffs[index] = 1
        return CodedPacket(
            header=NCHeader(
                session_id=self.session.session_id,
                generation_id=generation.generation_id,
                coefficients=coeffs,
                systematic=True,
            ),
            payload=generation.blocks[index].copy(),
        )

    # -- repair --------------------------------------------------------------------

    def _remember(self, generation: Generation) -> None:
        self._cache[generation.generation_id] = generation
        while len(self._cache) > self._cache_limit:
            self._cache.popitem(last=False)

    def _repair(self, generation_id: int, missing_dof: int, missing_indices: tuple) -> None:
        generation = self._cache.get(generation_id)
        if generation is None:
            return  # too old; the receiver will eventually give up
        now = self.node.scheduler.now
        last = self._last_repair_at.get(generation_id, -1e9)
        if now - last < self.repair_dedupe_s:
            return  # both receivers NACKed the same generation; one repair serves all
        self._last_repair_at[generation_id] = now
        if len(self._last_repair_at) > 8192:
            cutoff = now - 10.0
            self._last_repair_at = {g: t for g, t in self._last_repair_at.items() if t > cutoff}
        config = self.session.coding
        if self.coded:
            encoder = Encoder(
                self.session.session_id, generation, field=config.galois_field, systematic=False, rng=self._rng
            )
            # One extra packet of margin; repairs round-robin across links
            # so repeated NACKs try different paths.  The whole burst is
            # one batch matmul over the cached generation.
            for packet in encoder.coded_packets(max(1, missing_dof) + 1):
                share = self.shares[self._repair_rr % len(self.shares)]
                self._repair_rr += 1
                self._repair_queue.append((share.next_hop, packet))
        else:
            # Uncoded repair: the named block must reach the NACKing
            # receiver, and only some links lead there — send it down all
            # of them (any coded packet would do from any link; this is
            # precisely the flexibility Non-NC gives up).
            indices = missing_indices or tuple(range(config.blocks_per_generation))
            for index in indices:
                packet = self._block_packet(generation, index)
                for share in self.shares:
                    self._repair_queue.append((share.next_hop, packet))
        self._kick_repair_drain()

    def _kick_repair_drain(self) -> None:
        if self._repair_drain_running or not self._repair_queue:
            return
        self._repair_drain_running = True
        self.node.scheduler.schedule(0.0, self._drain_one_repair)

    def _drain_one_repair(self) -> None:
        if not self._repair_queue:
            self._repair_drain_running = False
            return
        next_hop, packet = self._repair_queue.popleft()
        self.repair_packets += 1
        self._send(next_hop, packet)
        # Paced at the aggregate link rate; each repair also pushes the
        # next data generation back by its wire time.
        total_rate_bps = sum(s.rate_mbps for s in self.shares) * 1e6
        wire_s = (self._packet_payload_bytes + 28) * 8 / total_rate_bps
        self._repair_debt_s += wire_s
        self.node.scheduler.schedule(wire_s * len(self.shares), self._drain_one_repair)

    def _send(self, next_hop: str, packet: CodedPacket) -> None:
        self.sent_packets += 1
        self.node.send(next_hop, packet, self._packet_payload_bytes, dst_port=NC_PORT)


class NcReceiverApp:
    """Decoding receiver with goodput accounting, ACKs and NACK repair."""

    def __init__(
        self,
        node: Node,
        session: MulticastSession,
        payload_mode: str = "full",
        ack_to: str | None = None,
        ack_interval_s: float = 0.03,
        stall_generations: int = 128,
        stall_timeout_s: float = 0.25,
        nack_retry_s: float = 0.4,
        nack_backoff: float = 2.0,
        nack_retry_max_s: float = 3.2,
        max_nacks_per_generation: int = 8,
        ack_immediately: bool = False,
        retain_decoded: bool = False,
    ):
        if nack_backoff < 1.0:
            raise ValueError("nack_backoff must be >= 1 (retry intervals cannot shrink)")
        self.node = node
        self.session = session
        self.payload_mode = payload_mode
        self.ack_to = ack_to
        self.ack_immediately = ack_immediately
        self.ack_interval_s = ack_interval_s
        self.stall_generations = stall_generations
        self.stall_timeout_s = stall_timeout_s
        self.nack_retry_s = nack_retry_s
        self.nack_backoff = nack_backoff
        self.nack_retry_max_s = nack_retry_max_s
        self.max_nacks_per_generation = max_nacks_per_generation
        config = session.coding
        self._block_bytes = 4 if payload_mode == "coefficients-only" else config.block_bytes
        self._decoders: dict[int, Decoder] = {}
        self.completed: dict[int, float] = {}  # generation id -> completion time
        # Decoded payload bytes per generation: goodput stays honest
        # when the adaptive loop retunes the generation size mid-run
        # (generations then differ in k, so counting them is not enough).
        self.completed_bytes: dict[int, int] = {}
        self.retain_decoded = retain_decoded
        self.decoded_generations: dict[int, Generation] = {}  # only when retain_decoded
        self.received_packets = 0
        self.redundant_packets = 0
        self.corrupt_dropped = 0
        self.malformed_dropped = 0
        self.nacks_sent = 0
        self.nacks_suppressed = 0
        self.highest_seen = -1
        self._last_packet_at = -1e9
        self._cum_ack = -1
        self._nack_state: dict[int, tuple] = {}  # gen -> (count, last_sent_at, rank_at_last)
        self._ack_timer_running = False
        node.listen(NC_PORT, self._on_packet)
        if ack_to is not None:
            self._start_ack_timer()

    # -- data path -------------------------------------------------------

    def _on_packet(self, dgram: Datagram) -> None:
        packet = dgram.payload
        if not isinstance(packet, CodedPacket):
            return
        header = packet.header
        if header.session_id != self.session.session_id:
            return
        if not packet.verify():
            # Bit-flipped in flight: dropping it turns corruption into
            # plain loss, which the NACK-repair machinery below already
            # heals — the decoder never sees a polluted row.
            self.corrupt_dropped += 1
            return
        self.received_packets += 1
        self._last_packet_at = self.node.scheduler.now
        gen_id = header.generation_id
        if gen_id > self.highest_seen:
            self.highest_seen = gen_id
        if gen_id in self.completed:
            self.redundant_packets += 1
            return
        decoder = self._decoders.get(gen_id)
        if decoder is None:
            decoder = Decoder(
                header.session_id,
                gen_id,
                header.block_count,
                self._block_bytes,
                field=self.session.coding.galois_field,
            )
            self._decoders[gen_id] = decoder
        try:
            innovative = decoder.add(packet)
        except MalformedPacketError:
            # Shaped unlike the generation it names (hostile or confused
            # sender): dropped like a corrupt packet, the run goes on.
            self.malformed_dropped += 1
            return
        if not innovative:
            self.redundant_packets += 1
        if decoder.complete:
            self.completed[gen_id] = self.node.scheduler.now
            self.completed_bytes[gen_id] = decoder.block_count * self.session.coding.block_bytes
            if self.retain_decoded:
                # Integrity assertions compare these bit-for-bit against
                # the source's generations (tests only; throughput runs
                # leave retention off to keep memory flat).
                self.decoded_generations[gen_id] = decoder.decode()
            del self._decoders[gen_id]
            self._nack_state.pop(gen_id, None)
            self._advance_cum_ack()
            if self.ack_immediately:
                self._send_control(("cum_ack", self.session.session_id, self.node.name, self._cum_ack))

    def _advance_cum_ack(self) -> None:
        while (self._cum_ack + 1) in self.completed:
            self._cum_ack += 1

    # -- control path ------------------------------------------------------------

    def _start_ack_timer(self) -> None:
        if self._ack_timer_running:
            return
        self._ack_timer_running = True
        self.node.scheduler.schedule(self.ack_interval_s, self._ack_tick)

    def _ack_tick(self) -> None:
        if not self._ack_timer_running:
            return
        self._send_control(("cum_ack", self.session.session_id, self.node.name, self._cum_ack))
        self._send_nacks()
        self.node.scheduler.schedule(self.ack_interval_s, self._ack_tick)

    def _stalled_generations(self) -> list:
        """Generations that should have arrived but are incomplete.

        Includes *ghost* generations — ids inside the seen range for
        which not a single packet arrived (every copy was dropped); the
        decoder map alone would never notice those.
        """
        horizon = self.highest_seen - self.stall_generations
        if (
            self.highest_seen > self._cum_ack
            and self.node.scheduler.now - self._last_packet_at > self.stall_timeout_s
        ):
            # Dead air with work outstanding: the count-based horizon
            # assumes a flowing pipeline, but here the stream itself has
            # stopped (an upstream failure stalled the source's window —
            # highest_seen will never advance on its own).  Everything
            # outstanding is fair NACK game; the repairs are what
            # reopen the window.
            horizon = self.highest_seen
        stalled = [g for g in self._decoders if g <= horizon]
        start = self._cum_ack + 1
        if horizon - start < 4 * self.stall_generations:
            # Scan the gap range for ghosts only while it is small; a
            # huge gap means wholesale outage and the per-decoder NACKs
            # already dominate.
            stalled.extend(
                g for g in range(start, horizon + 1) if g not in self.completed and g not in self._decoders
            )
        return sorted(set(stalled))

    def nack_retry_interval_s(self, retries_sent: int) -> float:
        """Wait before the NACK after ``retries_sent`` earlier ones.

        Exponential backoff, capped: repeated losses of the same repair
        (a loss burst, a link flap mid-recovery, a repair still in
        flight) progressively widen the retry spacing instead of
        flooding the reverse path, and ``max_nacks_per_generation``
        bounds the total so a truly unservable generation ends as a
        typed giveup rather than a NACK loop.
        """
        return min(self.nack_retry_s * self.nack_backoff ** max(0, retries_sent - 1), self.nack_retry_max_s)

    def nack_backoff_schedule(self) -> list:
        """The full retry-wait schedule, one entry per permitted NACK."""
        return [self.nack_retry_interval_s(i) for i in range(1, self.max_nacks_per_generation + 1)]

    def _send_nacks(self) -> None:
        now = self.node.scheduler.now
        k = self.session.coding.blocks_per_generation
        for gen_id in self._stalled_generations():
            count, last, rank_at_last = self._nack_state.get(gen_id, (0, -1e9, -1))
            if count >= self.max_nacks_per_generation:
                continue
            if now - last < self.nack_retry_interval_s(count):
                continue
            decoder = self._decoders.get(gen_id)
            rank = decoder.rank if decoder is not None else 0
            if count > 0 and rank > rank_at_last:
                # Degrees of freedom arrived since the last NACK — a
                # repair, or extra redundancy the adaptive controller
                # raised mid-generation, is already covering this gap.
                # Re-requesting now would double-repair packets the new
                # redundancy covers; restart the backoff clock instead
                # (without spending the NACK budget) and only retry if
                # progress stalls again at this rank.
                self.nacks_suppressed += 1
                self._nack_state[gen_id] = (count, now, rank)
                continue
            if decoder is not None:
                missing_dof = decoder.block_count - decoder.rank
                missing_indices = decoder.missing_pivots()
            else:
                missing_dof = k
                missing_indices = tuple(range(k))
            self._send_control(("nack", self.session.session_id, gen_id, missing_dof, missing_indices))
            self.nacks_sent += 1
            self._nack_state[gen_id] = (count + 1, now, rank)

    def _send_control(self, message: tuple) -> None:
        if self.ack_to is None:
            return
        self.node.send(self.ack_to, message, CONTROL_PAYLOAD_BYTES, dst_port=ACK_PORT)

    def stop_acks(self) -> None:
        self._ack_timer_running = False

    def retarget_acks(self, next_hop: str | None) -> None:
        """Point the feedback channel at a new first hop.

        Recovery support: when the node that used to carry this
        receiver's ACK/NACK traffic dies, the control plane re-routes
        the reverse path and re-targets the receiver here.  Passing
        ``None`` silences control traffic (the timer keeps ticking so a
        later retarget resumes it).
        """
        self.ack_to = next_hop
        if next_hop is not None:
            self._start_ack_timer()

    # -- metrics ---------------------------------------------------------------

    def goodput_mbps(self, start_s: float = 0.0, end_s: float | None = None) -> float:
        """Decoded-data rate over [start, end] (defaults to the whole run).

        Byte-accurate: each generation contributes the bytes it
        actually decoded, so mixed generation sizes (adaptive retunes)
        are accounted correctly.
        """
        end = end_s if end_s is not None else self.node.scheduler.now
        if end <= start_s:
            return 0.0
        default_bytes = self.session.coding.generation_bytes
        done = sum(
            self.completed_bytes.get(g, default_bytes)
            for g, t in self.completed.items()
            if start_s <= t <= end
        )
        return done * 8 / (end - start_s) / 1e6

    def throughput_series(self, window_s: float, duration_s: float) -> tuple:
        """(window centers, Mbps per window) over [0, duration]."""
        if window_s <= 0 or duration_s <= 0:
            raise ValueError("window and duration must be positive")
        edges = np.arange(0.0, duration_s + window_s, window_s)
        window_bytes = np.zeros(len(edges) - 1)
        default_bytes = self.session.coding.generation_bytes
        for g, t in self.completed.items():
            index = int(t / window_s)
            if index < len(window_bytes):
                window_bytes[index] += self.completed_bytes.get(g, default_bytes)
        rates = window_bytes * 8 / window_s / 1e6
        centers = (edges[:-1] + edges[1:]) / 2
        return centers, rates


class ControlRelay:
    """Bounce ACK/NACK control messages one hop toward the source.

    Re-targetable: after a failure the recovery plan may route this
    node's control traffic through a different upstream neighbour;
    :meth:`retarget` swaps the next hop without re-binding the port.
    """

    def __init__(self, node: Node, next_hop: str):
        self.node = node
        self.next_hop = next_hop
        node.listen(ACK_PORT, self._on_control)

    def retarget(self, next_hop: str) -> None:
        self.next_hop = next_hop

    def _on_control(self, dgram: Datagram) -> None:
        self.node.send(self.next_hop, dgram.payload, dgram.payload_bytes, dst_port=ACK_PORT)


class RepairingControlRelay(ControlRelay):
    """A control relay on a recoding VNF that answers NACKs locally.

    The relay still forwards every control message upstream — the
    source remains the repairer of last resort, so correctness never
    depends on relay state.  But a recoding VNF already buffers coded
    packets for recent generations, so when a NACK passes through it
    *also* emits fresh recodes downstream immediately, cutting the
    repair latency from a full source round-trip to one hop.  Local
    service is capped per generation; once the cap is hit the relay
    degrades to pure forwarding and the source repair takes over.
    """

    def __init__(self, node: Node, next_hop: str, vnf, max_served_nacks_per_generation: int = 2):
        super().__init__(node, next_hop)
        self.vnf = vnf
        self.max_served_nacks_per_generation = max_served_nacks_per_generation
        self.nacks_seen = 0
        self.local_repair_packets = 0
        self._served: dict[tuple, int] = {}  # (session, generation) -> NACKs served locally

    def _on_control(self, dgram: Datagram) -> None:
        super()._on_control(dgram)
        # Everything went upstream (the source counts what is malformed);
        # only a well-formed NACK is served from this relay's buffer.
        message = dgram.payload
        if not _is_nack(message):
            return
        _, session_id, generation_id, missing_dof, _ = message
        self.nacks_seen += 1
        key = (session_id, generation_id)
        if self._served.get(key, 0) >= self.max_served_nacks_per_generation:
            return
        sent = self.vnf.emit_repair(session_id, generation_id, max(1, missing_dof))
        if sent:
            self._served[key] = self._served.get(key, 0) + 1
            self.local_repair_packets += sent


class StripedSourceApp:
    """Tree-striped Non-NC source: generations assigned to packing trees.

    ``trees`` is a list of (tree_id, rate_mbps); each generation is
    assigned to one tree by largest-remainder credits (long-run share ∝
    rate), its blocks are sent *uncoded* to the tree's first hop(s), and
    downstream :class:`TreeForwarder` nodes duplicate along the tree.
    """

    def __init__(
        self,
        node: Node,
        session: MulticastSession,
        trees: list,
        tree_first_hops: dict,
        data_rate_mbps: float,
        payload_mode: str = "full",
        rng: np.random.Generator | None = None,
    ):
        if data_rate_mbps <= 0:
            raise ValueError("data rate must be positive")
        if not trees:
            raise ValueError("need at least one distribution tree")
        self.node = node
        self.session = session
        self.trees = list(trees)
        self.tree_first_hops = dict(tree_first_hops)
        self.data_rate_mbps = data_rate_mbps
        self._rng = rng if rng is not None else derive_rng(
            "apps.file_transfer.striped", node.name, session.session_id
        )
        self._credits = {tree_id: 0.0 for tree_id, _ in self.trees}
        self._total_rate = sum(rate for _, rate in self.trees)
        config = session.coding
        self._gen_interval_s = config.generation_bytes * 8 / (data_rate_mbps * 1e6)
        self._packet_payload_bytes = config.block_bytes + FIXED_HEADER_BYTES + config.blocks_per_generation
        self._effective_block_bytes = 4 if payload_mode == "coefficients-only" else config.block_bytes
        self.sent_generations = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.node.scheduler.schedule(0.0, self._emit_generation)

    def stop(self) -> None:
        self._running = False

    def _pick_tree(self):
        # Largest-remainder: deterministic long-run shares ∝ tree rates.
        for tree_id, rate in self.trees:
            self._credits[tree_id] += rate / self._total_rate
        best = max(self.trees, key=lambda t: self._credits[t[0]])
        self._credits[best[0]] -= 1.0
        return best[0]

    def _emit_generation(self) -> None:
        if not self._running:
            return
        config = self.session.coding
        tree_id = self._pick_tree()
        generation = _make_generation(
            self.sent_generations, config.blocks_per_generation, self._effective_block_bytes, self._rng
        )
        k = config.blocks_per_generation
        packet_interval = self._gen_interval_s / k
        for index in range(k):
            coeffs = np.zeros(k, dtype=np.uint8)
            coeffs[index] = 1
            packet = CodedPacket(
                header=NCHeader(
                    session_id=self.session.session_id,
                    generation_id=self.sent_generations,
                    coefficients=coeffs,
                    systematic=True,
                ),
                payload=generation.blocks[index].copy(),
            )
            for hop in self.tree_first_hops[tree_id]:
                self.node.scheduler.schedule(index * packet_interval, self._send, hop, packet, tree_id)
        self.sent_generations += 1
        self.node.scheduler.schedule(self._gen_interval_s, self._emit_generation)

    def _send(self, hop: str, packet: CodedPacket, tree_id: int) -> None:
        self.node.send(hop, (tree_id, packet), self._packet_payload_bytes, dst_port=NC_PORT)


class TreeForwarder(Node):
    """Non-NC relay: duplicate each packet along its generation's tree."""

    def __init__(self, name: str, scheduler: EventScheduler, tree_next_hops: dict):
        super().__init__(name, scheduler)
        # tree_id -> list of next hops from this node
        self.tree_next_hops = dict(tree_next_hops)
        self.forwarded = 0
        self.listen(NC_PORT, self._on_packet)

    def _on_packet(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        tree_id, packet = payload
        for hop in self.tree_next_hops.get(tree_id, []):
            self.forwarded += 1
            self.send(hop, (tree_id, packet), dgram.payload_bytes, dst_port=NC_PORT)


class StripedReceiverAdapter:
    """Unwraps (tree_id, packet) tuples into a plain NcReceiverApp."""

    def __init__(self, receiver: NcReceiverApp):
        self.receiver = receiver
        node = receiver.node
        node.unlisten(NC_PORT)
        node.listen(NC_PORT, self._on_packet)

    def _on_packet(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, tuple) and len(payload) == 2:
            dgram = Datagram(
                src=dgram.src,
                dst=dgram.dst,
                payload=payload[1],
                payload_bytes=dgram.payload_bytes,
                dst_port=dgram.dst_port,
                created_at=dgram.created_at,
            )
        self.receiver._on_packet(dgram)
