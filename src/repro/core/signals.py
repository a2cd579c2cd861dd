"""Control-plane signal protocol (paper §III-A).

Six signal types; five travel from the controller to daemons (one,
NC_VNF_START, the controller sends to itself to trigger cloud API
calls) and one, NC_HEARTBEAT, travels the other way:

========================  ====================================================
``NC_START``              begin network-coded transmission for a session
``NC_VNF_START``          launch N new VNFs (VMs) in a data center
``NC_VNF_END``            VNF no longer needed; shut down after τ
``NC_FORWARD_TAB``        replace a VNF's forwarding table
``NC_SETTINGS``           VNF roles, session ids, UDP ports, generation/block
                          sizes — the initialization bundle
``NC_HEARTBEAT``          daemon liveness beacon, daemon → controller; the
                          controller's failure detector counts misses
========================  ====================================================

Beyond the paper's six, two grown signals ride the same bus:
``NC_SHARD_LEASE`` (controller ↔ controller lease gossip, DESIGN.md
§14) and ``NC_LINK_REPORT`` (receiver/VNF → adaptive controller link
condition feedback, DESIGN.md §15).

:class:`SignalBus` delivers signals with a configurable control-plane
latency (controller → daemon RTTs are real in the paper's testbed) and
keeps a bounded flight recorder (the last ``KEPT_RECORDS`` sends) for
experiments to assert on, plus exact counters that never wrap.

Delivery is no longer fire-and-forget: a signal addressed to a node
with no registered daemon is retried (``max_retries`` attempts spaced
``retry_interval_s`` apart — a dead daemon may be restarting) and, if
every attempt fails, recorded on ``SignalBus.undeliverable`` with
``status="undeliverable"`` instead of vanishing without trace.  The
fault injector can interpose on deliveries through ``fault_hook`` to
drop or delay individual signals deterministically.

Staleness defense (DESIGN.md §11): retries and fault-hook delays mean
delivery is at-least-once and out-of-order.  Two fields make that safe:

- every signal carries a process-unique ``signal_id`` so daemons can
  drop re-deliveries of a signal they already acted on (idempotent
  at-least-once), and
- configuration signals (``NC_FORWARD_TAB``/``NC_SETTINGS``) carry the
  controller's monotonically increasing ``epoch``; a daemon rejects any
  config older than the newest it has applied, so a pre-failure table
  delayed across a healing replan cannot clobber the recovery state.

Fencing (DESIGN.md §14): with sharded controllers a *deposed* primary
is a third staleness source — its epochs kept counting while it was
partitioned, so an epoch comparison alone cannot tell its configs from
the live primary's.  Config signals therefore also carry a ``fence``:
the shard lease generation, bumped on every takeover.  Receivers order
configs by ``(fence, epoch)`` lexicographically
(:class:`ConfigEpochGate`), so anything a zombie primary pushes under
an old lease loses to the first config of the new one, regardless of
how far its private epoch counter ran ahead.

``signal_id`` is excluded from equality/repr so signal values compare
by content and experiment fingerprints stay stable; ``epoch`` and
``fence`` default to 0, which pre-epoch senders (tests, ad-hoc pushes)
can keep using — an epoch-0 signal is never *older* than an applied
epoch-0 config, it ties, and ties are accepted.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.net.events import EventScheduler

_signal_seq = itertools.count(1)
_signal_ids = itertools.count(1)


@dataclass(frozen=True)
class Signal:
    """Base class: every signal is addressed to a daemon by node name.

    ``signal_id`` is a process-unique delivery-dedup token: at-least-once
    retry machinery may deliver the same signal twice, and daemons use
    the id to act on it exactly once.  It is excluded from ``==`` and
    ``repr`` so signals still compare by content.
    """

    target: str
    signal_id: int = field(default_factory=lambda: next(_signal_ids), compare=False, repr=False)

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class NcStart(Signal):
    """Start network-coding-enabled transmission of a session."""

    session_id: int = 0


@dataclass(frozen=True)
class NcVnfStart(Signal):
    """Launch ``count`` new VNFs (VMs) in data center ``datacenter``."""

    datacenter: str = ""
    count: int = 1


@dataclass(frozen=True)
class NcVnfEnd(Signal):
    """The VNF is no longer used; shut down in τ seconds."""

    vnf_name: str = ""
    tau_s: float = 600.0


@dataclass(frozen=True)
class NcForwardTab(Signal):
    """Push a new forwarding table (serialized text, §III-A).

    ``epoch`` is the controller's config epoch at send time; daemons
    reject tables older than the newest config they have applied.
    ``fence`` is the sender's shard-lease generation — a table from a
    deposed primary carries a stale fence and loses to any config of
    the successor, whatever its epoch says.
    """

    table_text: str = ""
    epoch: int = 0
    fence: int = 0


@dataclass(frozen=True)
class NcSettings(Signal):
    """Initial settings: roles, session ids, ports, generation/block sizes.

    ``shapes`` carries the controller's output-shaping directives for
    merge points: ((session_id, next_hop, skip_arrivals), ...).

    Mid-session retunes (DESIGN.md §15): the adaptive-redundancy
    controller re-uses NC_SETTINGS as the carrier for per-session coding
    retunes.  ``blocks_per_generation`` (0 = unchanged) and
    ``redundancy_extra`` (−1 = unchanged) apply to sessions the daemon
    has *already* configured, at the next generation boundary — a
    retune never reshapes a generation that is mid-block on the wire.
    """

    session_ids: tuple[int, ...] = ()
    roles: tuple[tuple[int, str], ...] = ()  # (session_id, role) pairs
    udp_port: int = 0
    generation_bytes: int = 0
    block_bytes: int = 0
    shapes: tuple[tuple[int, str, int], ...] = ()
    epoch: int = 0  # controller config epoch; stale settings are rejected
    fence: int = 0  # shard-lease generation; deposed-primary settings are rejected
    blocks_per_generation: int = 0  # retune: new generation size (0 = keep)
    redundancy_extra: int = -1      # retune: new extra coded packets (-1 = keep)


@dataclass(frozen=True)
class NcHeartbeat(Signal):
    """Daemon → controller liveness beacon (basis of failure detection)."""

    vnf_name: str = ""
    beat: int = 0


@dataclass(frozen=True)
class NcLinkReport(Signal):  # repro-lint: disable=RL004 — dispatched in repro.adapt.controller, not by daemons
    """Reporter → adaptive controller: measured link conditions.

    The feedback half of the adaptive-redundancy loop (DESIGN.md §15):
    receivers and VNFs fold their per-generation loss / NACK /
    corruption counters into one periodic, EWMA-smoothed report.  Like
    every other config-plane signal it is safe under at-least-once
    out-of-order delivery: ``report_epoch`` increases monotonically per
    reporter, and the controller drops any report not newer than the
    last one it accepted from that reporter, so a bus retry or a
    delayed duplicate can never drag the smoothed estimate backwards.

    ``loss_ewma`` is the reporter's smoothed loss estimate in [0, 1];
    the window counters (``packets``/``generations``/``nacks``/
    ``corrupt``) are the raw deltas behind it, reported so the
    controller can weigh confidence (a report spanning two generations
    says less than one spanning forty).
    """

    reporter: str = ""
    session_id: int = 0
    report_epoch: int = 0
    loss_ewma: float = 0.0
    packets: int = 0
    generations: int = 0
    nacks: int = 0
    corrupt: int = 0


@dataclass(frozen=True)
class NcShardLease(Signal):  # repro-lint: disable=RL004 — dispatched in repro.shard.plane, not by daemons
    """Controller ↔ controller: a shard lease changed hands.

    Emitted by the replica that wins a takeover, addressed to every
    peer shard's controller endpoint (over the cross-shard channel) so
    the rest of the control plane learns which replica now speaks for
    ``shard_id`` — and at which fence, letting peers discard anything
    the deposed primary still says under an older one.
    """

    shard_id: str = ""
    holder: str = ""
    fence: int = 0


class ConfigEpochGate:
    """Tracks the newest ``(fence, epoch)`` applied; rejects older configs.

    The shared staleness defense of every config consumer (VNF daemons,
    shard config stores): configuration is ordered lexicographically by
    ``(fence, epoch)`` — the lease generation first, the sender's own
    monotonic epoch second.  Equal pairs are accepted (one push fans a
    table and its settings out under one epoch), strictly older pairs
    are counted in ``stale_rejected`` and refused.
    """

    __slots__ = ("fence", "epoch", "stale_rejected")

    def __init__(self) -> None:
        self.fence = 0
        self.epoch = 0
        self.stale_rejected = 0

    def accepts(self, fence: int, epoch: int) -> bool:
        """Apply-or-reject one config signal's ``(fence, epoch)`` stamp."""
        if (fence, epoch) < (self.fence, self.epoch):
            self.stale_rejected += 1
            return False
        self.fence = fence
        self.epoch = epoch
        return True


#: SignalRecord.status values.
PENDING = "pending"
DELIVERED = "delivered"
DROPPED = "dropped"            # a fault hook ate the delivery
UNDELIVERABLE = "undeliverable"  # no handler after every retry


@dataclass
class SignalRecord:
    """One delivered (or pending) signal, for experiment assertions."""

    seq: int
    sent_at: float
    signal: Signal
    delivered_at: float | None = None
    status: str = PENDING
    attempts: int = 0


#: A fault hook inspects a record at delivery time and returns ``None``
#: (deliver normally), the string ``"drop"`` (swallow this delivery), or
#: a positive float (postpone delivery by that many seconds).
FaultHook = Callable[[SignalRecord], "str | float | None"]


class SignalPort(Protocol):
    """The bus surface a daemon needs: register, unregister, send.

    Structurally satisfied by :class:`SignalBus` and by facades such as
    the orchestrator's cluster fan-out bus, which intercepts member
    registrations while forwarding sends.
    """

    def register(self, name: str, handler: Callable[[Signal], None]) -> None: ...

    def unregister(self, name: str) -> None: ...

    def send(self, signal: Signal) -> SignalRecord: ...


#: Records each flight recorder of a bus (``log``, ``undeliverable``,
#: ``dropped``) keeps, newest last; the ``*_count`` beside each is exact.  Not
#: a tunable: it clears, four times over, the longest history any test,
#: benchmark or example reads whole (a chaos-soak butterfly, ≈ 250 sends),
#: and stops a long-lived bus (a shard's sees ≈ 130 sends per 20 sim-s of
#: churn) from costing more at hour ten than at minute one (DESIGN.md §14).
KEPT_RECORDS = 1024


class SignalBus:
    """Delivers control signals to registered daemons with latency."""

    def __init__(
        self,
        scheduler: EventScheduler,
        latency_s: float = 0.05,
        max_retries: int = 3,
        retry_interval_s: float = 0.25,
    ) -> None:
        if latency_s < 0:
            raise ValueError("latency cannot be negative")
        if max_retries < 0:
            raise ValueError("retry count cannot be negative")
        if retry_interval_s <= 0:
            raise ValueError("retry interval must be positive")
        self.scheduler = scheduler
        self.latency_s = latency_s
        self.max_retries = max_retries
        self.retry_interval_s = retry_interval_s
        self._handlers: dict[str, Callable[[Signal], None]] = {}
        self.log: deque[SignalRecord] = deque(maxlen=KEPT_RECORDS)
        self.undeliverable: deque[SignalRecord] = deque(maxlen=KEPT_RECORDS)
        self.dropped: deque[SignalRecord] = deque(maxlen=KEPT_RECORDS)
        self.sent_count = 0
        self.undeliverable_count = 0
        self.dropped_count = 0
        self.fault_hook: FaultHook | None = None
        self.on_undeliverable: Callable[[SignalRecord], None] | None = None

    def register(self, name: str, handler: Callable[[Signal], None]) -> None:
        """Attach a daemon's signal handler under its node name."""
        if name in self._handlers:
            raise ValueError(f"daemon {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def is_registered(self, name: str) -> bool:
        return name in self._handlers

    def send(self, signal: Signal) -> SignalRecord:
        """Dispatch a signal; delivery happens after the bus latency."""
        record = SignalRecord(seq=next(_signal_seq), sent_at=self.scheduler.now, signal=signal)
        self.log.append(record)
        self.sent_count += 1
        self.scheduler.schedule(self.latency_s, self._deliver, record)
        return record

    def _deliver(self, record: SignalRecord) -> None:
        if self.fault_hook is not None:
            action = self.fault_hook(record)
            if action == "drop":
                record.status = DROPPED
                self.dropped.append(record)
                self.dropped_count += 1
                return
            if isinstance(action, (int, float)) and action > 0:
                self.scheduler.schedule(float(action), self._deliver, record)
                return
        handler = self._handlers.get(record.signal.target)
        if handler is None:
            # The daemon may be mid-restart: retry before giving up, and
            # leave a trace either way — a lost control signal that
            # "succeeded" silently is exactly the bug class the fault
            # injector exists to expose.
            record.attempts += 1
            if record.attempts <= self.max_retries:
                self.scheduler.schedule(self.retry_interval_s, self._deliver, record)
                return
            record.status = UNDELIVERABLE
            self.undeliverable.append(record)
            self.undeliverable_count += 1
            if self.on_undeliverable is not None:
                self.on_undeliverable(record)
            return
        record.delivered_at = self.scheduler.now
        record.status = DELIVERED
        record.attempts += 1
        handler(record.signal)

    def sent_of_kind(self, kind: str) -> list[SignalRecord]:
        """Recorded sends of one signal class: every one while the bus has sent ≤ ``KEPT_RECORDS``."""
        return [r for r in self.log if r.signal.kind == kind]

    def undeliverable_of_kind(self, kind: str) -> list[SignalRecord]:
        """Recorded undeliverables of one signal class: every one while ≤ ``KEPT_RECORDS`` were lost."""
        return [r for r in self.undeliverable if r.signal.kind == kind]
