"""One controller shard: primary + warm standby with fenced takeover.

A shard owns a region of the OS3E map: the data centers assigned to
its controller city, a shard-local :class:`SignalBus` domain, a
:class:`HeartbeatMonitor` failure detector, and a
:class:`~repro.fleet.manager.FleetManager` holding the region's
SurplusIndex slice.  Two :class:`ControllerReplica` processes back the
shard — the lease holder serves admissions, the warm standby holds a
synchronously mirrored replication log (the admitted specs and their
immutable :class:`~repro.fleet.capacity.FleetPlan`\\ s, plus the config
epoch high-water mark — everything needed to materialize a successor
manager, and nothing that is process state).

Failover: the primary beats the shard's failure detector every
``heartbeat_interval_s``; a crashed primary stops beating, the
detector declares it dead after ``miss_threshold`` silent intervals,
and the first live standby takes over through the deterministic
:class:`~repro.shard.lease.ShardLease` — the fence bump is the whole
election.  The successor adopts the replicated state into a fresh
manager (index rebuilt from plans, epoch resumed, fence installed) and
re-pushes every PoP's config once; daemons and config stores converge
on the new ``(fence, epoch)`` order and anything the deposed primary
still sends is rejected as stale (split-brain defense, DESIGN.md §14).

The deposed manager is *kept* on ``zombies`` — still wired to the
shard bus — because the dangerous scenario is precisely a zombie that
can still talk; tests drive it to prove the fence holds.  Only the
*last* deposed manager can still be a running process (a shard has two
replicas, and an earlier zombie's replica has since been restored as an
empty standby; with r replicas, the last r − 1), so each takeover turns
the zombie before it into a husk
(:meth:`~repro.fleet.manager.FleetManager.forget_sessions`): a shard's
memory follows its live sessions, not its takeover count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.controller import HeartbeatMonitor
from repro.core.signals import (
    ConfigEpochGate,
    NcForwardTab,
    NcSettings,
    NcShardLease,
    NcVnfEnd,
    NcVnfStart,
    Signal,
    SignalBus,
    SignalPort,
)
from repro.fleet.capacity import FleetDataCenter, FleetPlan
from repro.fleet.churn import SessionSpec
from repro.fleet.manager import FleetManager
from repro.fleet.verdict import AdmissionVerdict
from repro.net.events import EventScheduler, PeriodicEvent
from repro.shard.lease import ShardLease

#: Shard failure-detector defaults: 0.2 s beats × 3 misses puts the
#: death verdict ~0.8–1.0 s after the last beat, keeping takeover MTTR
#: inside 2× the PR 3 relay-crash recovery envelope (≈0.88 s → ≤1.76 s).
HEARTBEAT_INTERVAL_S = 0.2
MISS_THRESHOLD = 3


class ControllerReplica:
    """One controller process of a shard; the fault injector's target.

    ``crash()`` / ``restore()`` satisfy the injector's
    ``ControllerTarget`` protocol.  All failover *policy* lives in the
    owning :class:`ShardController` — the replica only models process
    liveness.
    """

    def __init__(self, name: str, shard: "ShardController") -> None:
        self.name = name
        self.shard = shard
        self.alive = True
        self.crashed_at: float | None = None
        self.restored_at: float | None = None
        self.crashes = 0

    def crash(self) -> None:
        """The process dies: heartbeats stop, in-memory state freezes."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.crashed_at = self.shard.scheduler.now
        self.shard._replica_crashed(self)

    def restore(self) -> None:
        """The process comes back — as whatever the lease says it is."""
        if self.alive:
            return
        self.alive = True
        self.restored_at = self.shard.scheduler.now
        self.shard._replica_restored(self)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"ControllerReplica({self.name}: {state})"


class ShardConfigStore:
    """Per-PoP config sink registered on a shard's bus domain.

    Stands in for the daemon population of the shard's data centers:
    one :class:`ConfigEpochGate` per PoP applies the ``(fence, epoch)``
    order to every NC_SETTINGS / NC_FORWARD_TAB push, so the store is
    both the delivery endpoint (keeping fleet config sends deliverable
    on the shard bus) and the split-brain assertion surface — a deposed
    primary's push lands in ``stale_rejected``, never in ``tables``.
    """

    def __init__(self, bus: SignalPort, dc_names: Sequence[str]) -> None:
        self.gates: dict[str, ConfigEpochGate] = {dc: ConfigEpochGate() for dc in dc_names}
        self.tables: dict[str, str] = {}
        self.settings: dict[str, NcSettings] = {}
        self.vnf_starts = 0
        self.vnf_ends = 0
        for dc in dc_names:
            bus.register(dc, self._handler_for(dc))

    def _handler_for(self, dc: str) -> Callable[[Signal], None]:
        def handle(signal: Signal) -> None:
            self._handle(dc, signal)

        return handle

    def _handle(self, dc: str, signal: Signal) -> None:
        gate = self.gates[dc]
        if isinstance(signal, NcSettings):
            if gate.accepts(signal.fence, signal.epoch):
                self.settings[dc] = signal
        elif isinstance(signal, NcForwardTab):
            if gate.accepts(signal.fence, signal.epoch):
                self.tables[dc] = signal.table_text
        elif isinstance(signal, NcVnfStart):
            self.vnf_starts += signal.count
        elif isinstance(signal, NcVnfEnd):
            self.vnf_ends += 1

    @property
    def stale_rejected(self) -> int:
        """Config pushes refused across all PoPs (zombie evidence)."""
        return sum(gate.stale_rejected for gate in self.gates.values())

    def canonical(self) -> tuple[tuple[str, int, int, int], ...]:
        """Deterministic per-PoP gate state for soak fingerprints."""
        return tuple(
            (dc, self.gates[dc].fence, self.gates[dc].epoch, self.gates[dc].stale_rejected)
            for dc in sorted(self.gates)
        )


@dataclass(frozen=True)
class TakeoverRecord:
    """One completed failover, for MTTR benchmarks and audits."""

    crashed_at: float | None  # None when the incumbent was deposed alive
    detected_at: float
    completed_at: float
    fence: int
    successor: str
    deposed: str
    pops_repushed: int

    @property
    def mttr_s(self) -> float | None:
        """Crash → re-pushed-config latency (None for live depositions)."""
        if self.crashed_at is None:
            return None
        return self.completed_at - self.crashed_at


class ShardController:
    """A region's control plane: replicas, lease, detector, manager."""

    def __init__(
        self,
        shard_id: str,
        datacenters: Sequence[FleetDataCenter],
        scheduler: EventScheduler,
        *,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        miss_threshold: int = MISS_THRESHOLD,
        replicas: int = 2,
        bus: SignalBus | None = None,
        with_store: bool = True,
        manager_kwargs: Mapping[str, object] | None = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("a shard needs at least one replica")
        self.shard_id = shard_id
        self.datacenters = list(datacenters)
        self.scheduler = scheduler
        self.bus = bus if bus is not None else SignalBus(scheduler)
        self._manager_kwargs = dict(manager_kwargs or {})
        self.replicas: list[ControllerReplica] = [
            ControllerReplica(f"{shard_id}#r{i}", self) for i in range(replicas)
        ]
        self.lease = ShardLease(shard_id, holder=self.replicas[0].name)
        self.store: ShardConfigStore | None = (
            ShardConfigStore(self.bus, [dc.name for dc in self.datacenters])
            if with_store
            else None
        )
        # Replication log: mirrored synchronously on every commit.
        self._replica_sessions: dict[int, SessionSpec] = {}
        self._replica_plans: dict[int, FleetPlan] = {}
        self._replica_epoch = 0
        self.manager = self._make_manager()
        self.zombies: list[FleetManager] = []
        self.takeovers: list[TakeoverRecord] = []
        self.awaiting_successor = False
        self.unavailable_since: float | None = None
        # Peer announcement hook, wired by the control plane: called
        # with the NcShardLease to fan out after every takeover.
        self.announce: Callable[[NcShardLease], None] | None = None
        self.monitor = HeartbeatMonitor(
            scheduler,
            interval_s=heartbeat_interval_s,
            miss_threshold=miss_threshold,
            on_dead=self._on_primary_dead,
        )
        self.monitor.watch(self.lease.holder)
        self._beat_ev: PeriodicEvent = scheduler.schedule_every(heartbeat_interval_s, self._beat)

    # -- plumbing --------------------------------------------------------

    def _make_manager(self) -> FleetManager:
        # Lease installation happens via adopt_state; a fresh shard's
        # first manager gets the founding fence directly.
        manager = FleetManager(self.datacenters, bus=self.bus, **self._manager_kwargs)  # type: ignore[arg-type]
        manager.config_fence = self.lease.fence
        return manager

    def _holder_replica(self) -> ControllerReplica:
        for replica in self.replicas:
            if replica.name == self.lease.holder:
                return replica
        raise RuntimeError(f"lease holder {self.lease.holder!r} is not a replica")

    @property
    def has_primary(self) -> bool:
        """True when the lease holder's process is up and serving."""
        return self._holder_replica().alive

    def _beat(self) -> None:
        holder = self._holder_replica()
        if holder.alive:
            self.monitor.beat(holder.name)

    def stop(self) -> None:
        """Cancel periodic machinery (end of an experiment)."""
        self._beat_ev.cancel()
        self.monitor.stop()

    # -- serving (None = no live primary; caller retries with backoff) ---

    def try_admit(self, spec: SessionSpec) -> AdmissionVerdict | None:
        """Admit via the primary; mirror admitted state to the standby."""
        if not self.has_primary:
            return None
        verdict = self.manager.admit(spec)
        self._mirror(spec.session_id)
        return verdict

    def try_depart(self, session_id: int) -> bool | None:
        """Depart via the primary; ``None`` while the shard is headless."""
        if not self.has_primary:
            return None
        self.manager.depart(session_id)
        self._mirror(session_id)
        return True

    def try_replan(self, session_id: int) -> AdmissionVerdict | None:
        """Replan one session via the primary (None while headless)."""
        if not self.has_primary:
            return None
        verdict = self.manager.replan_session(session_id)
        self._mirror(session_id)
        return verdict

    def _mirror(self, session_id: int) -> None:
        """Synchronous replication: the standby sees every commit.

        The mirrored values are immutable (frozen specs and plans), so
        sharing references with the primary's manager is safe — there
        is nothing a crash can half-write.
        """
        plan = self.manager.plans.get(session_id)
        if plan is None:
            self._replica_sessions.pop(session_id, None)
            self._replica_plans.pop(session_id, None)
        else:
            self._replica_sessions[session_id] = self.manager.sessions[session_id]
            self._replica_plans[session_id] = plan
        self._replica_epoch = self.manager.config_epoch

    # -- failover --------------------------------------------------------

    def _replica_crashed(self, replica: ControllerReplica) -> None:
        if replica.name == self.lease.holder and self.unavailable_since is None:
            self.unavailable_since = self.scheduler.now
        # Detection is the monitor's job: nothing else happens until the
        # missed-heartbeat deadline passes — that latency IS the MTTR.

    def _replica_restored(self, replica: ControllerReplica) -> None:
        if not self.awaiting_successor:
            if replica.name == self.lease.holder:
                # Brief outage, never declared dead: the incumbent
                # resumes with state intact; re-arm its grace clock.
                self.monitor.watch(replica.name)
                self.unavailable_since = None
            return
        self.awaiting_successor = False
        if replica.name == self.lease.holder:
            self.monitor.watch(replica.name)
            self.unavailable_since = None
        else:
            self._takeover(replica)

    def _on_primary_dead(self, name: str) -> None:
        if name != self.lease.holder:
            return  # stale verdict about an already-deposed replica
        successor = next((r for r in self.replicas if r.alive and r.name != name), None)
        if successor is None:
            holder = self._holder_replica()
            if holder.alive:
                # False verdict (slow, not dead) and nobody to succeed:
                # the incumbent keeps the lease; re-arm its grace clock.
                self.monitor.watch(name)
            else:
                self.awaiting_successor = True
            return
        self._takeover(successor)

    def _takeover(self, successor: ControllerReplica) -> None:
        """Deterministic lease succession + state adoption + re-push."""
        detected_at = self.scheduler.now
        deposed_holder = self._holder_replica()
        crashed_at = None if deposed_holder.alive else deposed_holder.crashed_at
        fence = self.lease.transfer(successor.name, detected_at)
        # Deposed processes that can still be running: one per other replica.
        stale = len(self.zombies) - (len(self.replicas) - 1)
        if stale >= 0:
            self.zombies[stale].forget_sessions()
        self.zombies.append(self.manager)
        manager = self._make_manager()
        manager.adopt_state(
            self._replica_sessions,
            self._replica_plans,
            config_epoch=self._replica_epoch,
            fence=fence,
        )
        self.manager = manager
        repushed = manager.republish_config()
        self._replica_epoch = manager.config_epoch
        self.monitor.unwatch(deposed_holder.name)
        self.monitor.watch(successor.name)
        self.unavailable_since = None
        record = TakeoverRecord(
            crashed_at=crashed_at,
            detected_at=detected_at,
            completed_at=self.scheduler.now,
            fence=fence,
            successor=successor.name,
            deposed=deposed_holder.name,
            pops_repushed=repushed,
        )
        self.takeovers.append(record)
        if self.announce is not None:
            self.announce(
                NcShardLease(
                    target=self.shard_id, shard_id=self.shard_id, holder=successor.name, fence=fence
                )
            )

    # -- views -----------------------------------------------------------

    def canonical(self) -> tuple[object, ...]:
        """Deterministic shard state tuple for soak fingerprints."""
        return (
            self.shard_id,
            self.lease.holder,
            self.lease.fence,
            self.manager.active_sessions,
            self.manager.config_epoch,
            self.manager.index.canonical(),
            tuple(
                (repr(t.detected_at), t.fence, t.successor, t.deposed, t.pops_repushed)
                for t in self.takeovers
            ),
            self.store.canonical() if self.store is not None else (),
        )
