"""The per-node daemon (paper §III-A).

"A daemon program runs on each network coding node."  The daemon is the
control-plane agent: it registers with the :class:`SignalBus`, brings
the coding function up when NC_SETTINGS arrives (starting a coding
function on a launched VM costs ~376 ms, §V-C5), applies forwarding
tables (the SIGUSR1 cycle), and tears the VNF down on NC_VNF_END after
the τ grace.

Fault model: the daemon is a process, and processes die.  ``kill()``
models a crash — the daemon unregisters from the bus (in-flight signals
addressed to it go through the bus's retry-then-undeliverable path),
stops its heartbeat, and forgets any queued-but-unapplied forwarding
table.  ``restart()`` brings a fresh daemon process up on the same
node: it re-registers and resumes heartbeats, but the coding function
is *not* running until the controller re-sends NC_SETTINGS — exactly
the amnesia a real supervisor restart has.

When ``heartbeat_interval_s`` is set, the daemon emits periodic
``NC_HEARTBEAT`` signals to the controller; the controller's failure
detector declares the VNF dead after a configurable number of misses.

Staleness defense (DESIGN.md §11, §14): the bus delivers at-least-once
and possibly out of order (retries, fault-hook delays), so the daemon
keeps the highest ``(fence, epoch)`` config stamp it has applied — the
shard-lease fence orders configs across controller takeovers, the
epoch within one primary's reign — and rejects older
``NC_FORWARD_TAB``/``NC_SETTINGS`` (``stale_rejected``), and it
remembers recently seen ``signal_id``s so a re-delivered signal is
acted on exactly once (``duplicate_dropped``).  Both defenses die with
the process — a restarted daemon accepts whatever epoch the controller
sends next, matching real supervisor-restart amnesia.

Hostile boundary: an ``NC_SETTINGS`` naming a role outside
:class:`VnfRole`, or an ``NC_FORWARD_TAB`` whose text does not parse, is
a counted drop (``malformed_config``) that changes nothing — roles,
shapes, table and the ``(fence, epoch)`` stamp stay as they were.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.forwarding import ForwardingTable, ForwardingTableError
from repro.core.session import CodingConfig
from repro.core.signals import (
    ConfigEpochGate,
    NcForwardTab,
    NcHeartbeat,
    NcSettings,
    NcStart,
    NcVnfEnd,
    Signal,
    SignalPort,
)
from repro.core.vnf import CodingVnf, VnfRole
from repro.net.events import PeriodicEvent
from repro.rlnc.redundancy import RedundancyPolicy

VNF_START_LATENCY_S = 0.37621  # measured average in §V-C5

CONTROLLER_NAME = "controller"  # the bus address failure reports go to

#: Upper bound on remembered signal_ids for delivery dedup.  Re-delivery
#: windows are short (bus retries span ~a second), so a small bounded
#: set is plenty; the cap only exists to keep long soaks memory-flat.
SEEN_SIGNALS_LIMIT = 512


def _are_session_ids(value: object) -> bool:
    """NC_SETTINGS ``session_ids``: a sequence of int session ids."""
    return isinstance(value, (tuple, list)) and all(isinstance(sid, int) for sid in value)


def _are_shapes(value: object) -> bool:
    """NC_SETTINGS ``shapes``: (int session, str next hop, int skip >= 0) triples."""
    return isinstance(value, (tuple, list)) and all(
        isinstance(shape, tuple)
        and len(shape) == 3
        and isinstance(shape[0], int)
        and isinstance(shape[1], str)
        and isinstance(shape[2], int)
        and shape[2] >= 0
        for shape in value
    )


class VnfDaemon:
    """Control-plane agent colocated with one coding VNF."""

    def __init__(
        self,
        vnf: CodingVnf,
        bus: SignalPort,
        session_configs: dict[int, CodingConfig] | None = None,
        on_shutdown: Callable[["VnfDaemon"], None] | None = None,
        heartbeat_interval_s: float | None = None,
    ) -> None:
        self.vnf = vnf
        self.bus = bus
        self.session_configs = dict(session_configs or {})
        self.on_shutdown = on_shutdown
        self.vnf_start_latency_s = VNF_START_LATENCY_S
        self.heartbeat_interval_s = heartbeat_interval_s
        self.controller_name = CONTROLLER_NAME
        self.alive = True
        self.function_running = False
        self.started_at: float | None = None
        self.killed_at: float | None = None
        self.restarts = 0
        self.pending_table: ForwardingTable | None = None
        self.applied_tables = 0
        self.retunes_staged = 0
        self.total_pause_s = 0.0
        self.heartbeats_sent = 0
        # Staleness / duplicate defense (per daemon process lifetime).
        self._config_gate = ConfigEpochGate()
        self.duplicate_dropped = 0
        self.malformed_config = 0
        self._seen_signal_ids: dict[int, None] = {}  # insertion-ordered bounded set
        self._heartbeat: PeriodicEvent | None = None
        bus.register(vnf.name, self.handle_signal)
        self._start_heartbeat()

    # -- liveness --------------------------------------------------------

    def _start_heartbeat(self) -> None:
        if self.heartbeat_interval_s is None:
            return
        # First beat after one interval: a daemon that just came up has
        # nothing to report yet, and the offset keeps beats of daemons
        # created at the same instant from colliding in the event order.
        self._heartbeat = self.vnf.scheduler.schedule_every(self.heartbeat_interval_s, self._beat)

    def _beat(self) -> None:
        if not self.alive:
            return
        self.heartbeats_sent += 1
        self.bus.send(
            NcHeartbeat(target=self.controller_name, vnf_name=self.vnf.name, beat=self.heartbeats_sent)
        )

    def kill(self) -> None:
        """Crash the daemon process (fault injection / VM failure).

        Queued state dies with the process: the pending forwarding table
        is lost and the bus forgets the registration, so signals headed
        here hit the retry-then-undeliverable path instead of a void.
        """
        if not self.alive:
            return
        self.alive = False
        self.function_running = False
        self.killed_at = self.vnf.scheduler.now
        self.pending_table = None
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            self._heartbeat = None
        self.bus.unregister(self.vnf.name)

    def restart(self) -> None:
        """Bring a fresh daemon process up on the same node.

        Re-registers and resumes heartbeats; the coding function stays
        down until the controller re-sends NC_SETTINGS.
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        # Process amnesia: a fresh daemon has no epoch/fence memory and
        # no dedup window — it accepts whatever the controller sends
        # next (the stale_rejected tally survives; it is telemetry, not
        # process state).
        rejected = self._config_gate.stale_rejected
        self._config_gate = ConfigEpochGate()
        self._config_gate.stale_rejected = rejected
        self._seen_signal_ids.clear()
        self.bus.register(self.vnf.name, self.handle_signal)
        self._start_heartbeat()

    # -- signal dispatch ------------------------------------------------

    def handle_signal(self, signal: Signal) -> None:
        if not self.alive:
            return  # a racing delivery to a corpse
        if self._already_seen(signal):
            # At-least-once delivery re-sent a signal this process
            # already acted on: applying a forwarding table (and paying
            # its pause) twice is not idempotent, so drop the re-run.
            self.duplicate_dropped += 1
            return
        if isinstance(signal, NcSettings):
            self._on_settings(signal)
        elif isinstance(signal, NcForwardTab):
            self._on_forward_tab(signal)
        elif isinstance(signal, NcVnfEnd):
            self._on_vnf_end(signal)
        elif isinstance(signal, NcStart):
            pass  # meaningful to source applications; a relay VNF is driven by traffic
        # NC_VNF_START and NC_HEARTBEAT are consumed by the controller.

    def _already_seen(self, signal: Signal) -> bool:
        if signal.signal_id in self._seen_signal_ids:
            return True
        self._seen_signal_ids[signal.signal_id] = None
        while len(self._seen_signal_ids) > SEEN_SIGNALS_LIMIT:
            self._seen_signal_ids.pop(next(iter(self._seen_signal_ids)))
        return False

    @property
    def config_epoch(self) -> int:
        """Highest config epoch applied by this daemon process."""
        return self._config_gate.epoch

    @property
    def config_fence(self) -> int:
        """Shard-lease fence of the newest config applied (0 pre-shard)."""
        return self._config_gate.fence

    @property
    def stale_rejected(self) -> int:
        """Config signals refused for carrying an older (fence, epoch)."""
        return self._config_gate.stale_rejected

    def _accepts_config(self, fence: int, epoch: int) -> bool:
        """True when a config signal is current; counts stale rejections.

        Configs are ordered by ``(fence, epoch)``: the shard-lease fence
        dominates, so a deposed primary's table loses to the successor's
        first push no matter how far its private epoch counter ran.
        Equal stamps are accepted — distinct signals of one controller
        push (table + settings) share one — and fence/epoch-0 senders
        that predate the protocols keep working.
        """
        return self._config_gate.accepts(fence, epoch)

    def _on_settings(self, signal: NcSettings) -> None:
        # Validate the whole signal before the gate: a refused config
        # must not advance the (fence, epoch) stamp and shadow the valid
        # push that follows it, nor be half applied when a later field
        # turns out bad.
        try:
            roles = [(session_id, VnfRole(role_name)) for session_id, role_name in signal.roles]
        except (TypeError, ValueError):
            self.malformed_config += 1
            return
        if not (_are_session_ids(signal.session_ids) and _are_shapes(signal.shapes)):
            self.malformed_config += 1
            return
        if not self._accepts_config(signal.fence, signal.epoch):
            return
        for session_id, role in roles:
            config = self.session_configs.get(session_id, CodingConfig())
            self.vnf.configure_session(session_id, role, config)
        self._stage_retunes(signal)
        for session_id, next_hop, skip in signal.shapes:
            self.vnf.set_hop_shape(session_id, next_hop, skip)
        if not self.function_running:
            # Starting the coding function takes ~376 ms; model it as an
            # initial pause of the packet path.
            self.vnf.scheduler.schedule(self.vnf_start_latency_s, self._function_started)

    def _stage_retunes(self, signal: NcSettings) -> None:
        """Stage a mid-session coding retune carried on NC_SETTINGS.

        Targets the sessions named in ``session_ids`` (every configured
        session when the list is empty), skipping any the same signal
        just (re)configured through ``roles`` — those already start on
        the new parameters.  The staged config goes through
        :meth:`CodingVnf.retune_session`, so the data plane swaps it in
        at the next generation boundary, never mid-block.
        """
        if signal.blocks_per_generation <= 0 and signal.redundancy_extra < 0:
            return
        fresh = {session_id for session_id, _ in signal.roles}
        targets = signal.session_ids if signal.session_ids else tuple(self.vnf.configs)
        for session_id in targets:
            if session_id in fresh or session_id not in self.vnf.configs:
                continue
            config = self.vnf.configs[session_id]
            if signal.blocks_per_generation > 0:
                config = dataclasses.replace(config, blocks_per_generation=signal.blocks_per_generation)
            if signal.redundancy_extra >= 0:
                config = dataclasses.replace(config, redundancy=RedundancyPolicy(signal.redundancy_extra))
            self.session_configs[session_id] = config
            self.vnf.retune_session(session_id, config)
            self.retunes_staged += 1

    def _function_started(self) -> None:
        if not self.alive:
            return  # killed while the function was starting
        self.function_running = True
        self.started_at = self.vnf.scheduler.now
        if self.pending_table is not None:
            table, self.pending_table = self.pending_table, None
            self._apply_table(table)

    def _on_forward_tab(self, signal: NcForwardTab) -> None:
        try:
            table = ForwardingTable.parse(signal.table_text)
        except ForwardingTableError:
            self.malformed_config += 1
            return
        if not self._accepts_config(signal.fence, signal.epoch):
            return  # pre-replan or deposed-primary table: discard
        if not self.function_running:
            self.pending_table = table  # applied as soon as the function is up
            return
        self._apply_table(table)

    def _apply_table(self, table: ForwardingTable) -> None:
        pause = self.vnf.apply_forwarding_table(table)
        self.applied_tables += 1
        self.total_pause_s += pause

    def _on_vnf_end(self, signal: NcVnfEnd) -> None:
        self.function_running = False
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            self._heartbeat = None
        self.bus.unregister(self.vnf.name)
        if self.on_shutdown is not None:
            self.on_shutdown(self)
