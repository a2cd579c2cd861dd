"""The sharded control plane: session homing, backoff, peer gossip.

The plane is the fleet's front door after sharding: it builds the
:class:`~repro.shard.placement.ShardMap` over the data-center cities,
raises one :class:`~repro.shard.controller.ShardController` per
controller city (each with its own bus domain, detector and manager),
and homes every session at the shard owning its *source* city.

Two delivery disciplines live here:

- **Admission retry**: a join/leave/replan that lands on a headless
  shard (primary crashed, takeover pending) is retried with
  exponential backoff; a bounded attempt budget converts "the
  controller never came back" into a typed
  ``REJECTED_UNAVAILABLE`` verdict instead of a hang — the graceful
  degradation contract of DESIGN.md §14.
- **Cross-shard signals**: lease announcements travel shard-to-shard
  over :class:`CrossShardChannel`, which models WAN propagation delay
  from the OS3E latency map plus retry/timeout/exponential backoff
  against endpoints that are down mid-takeover; exhausted deliveries
  are recorded, never silently dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.signals import KEPT_RECORDS, NcShardLease, Signal
from repro.fleet.capacity import FleetDataCenter
from repro.fleet.churn import SessionSpec
from repro.fleet.verdict import AdmissionStatus, AdmissionVerdict
from repro.net.events import EventScheduler
from repro.net.topology import os3e_latency_ms
from repro.shard.controller import ShardController
from repro.shard.placement import ShardMap

#: CrossShardDelivery.status values.
PENDING = "pending"
DELIVERED = "delivered"
EXPIRED = "expired"  # timeout or attempt budget exhausted


@dataclass
class CrossShardDelivery:
    """One tracked shard-to-shard signal delivery."""

    src: str
    dst: str
    signal: Signal
    sent_at: float
    delivered_at: float | None = None
    attempts: int = 0
    status: str = PENDING


class CrossShardChannel:
    """WAN delivery between shard controllers with retry + backoff.

    Latency is the OS3E propagation delay between the two controller
    cities.  An endpoint whose shard is headless (``ready`` returns
    False) behaves like a timed-out RPC: the channel retries with
    exponential backoff (``base_backoff_s * 2^n``) until the signal is
    delivered, the per-delivery ``timeout_s`` elapses, or
    ``max_attempts`` is spent — whichever first.  Exhausted deliveries
    land on ``expired`` with a status, never in the void.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency_ms: Mapping[str, Mapping[str, float]],
        *,
        base_backoff_s: float = 0.1,
        max_attempts: int = 6,
        timeout_s: float = 10.0,
    ) -> None:
        if base_backoff_s <= 0 or timeout_s <= 0:
            raise ValueError("backoff and timeout must be positive")
        if max_attempts < 1:
            raise ValueError("at least one delivery attempt is required")
        self.scheduler = scheduler
        self.latency_ms = latency_ms
        self.base_backoff_s = base_backoff_s
        self.max_attempts = max_attempts
        self.timeout_s = timeout_s
        self._endpoints: dict[str, Callable[[Signal], None]] = {}
        self._ready: dict[str, Callable[[], bool]] = {}
        self.log: deque[CrossShardDelivery] = deque(maxlen=KEPT_RECORDS)
        self.expired: list[CrossShardDelivery] = []
        self.retries = 0

    def connect(
        self,
        name: str,
        handler: Callable[[Signal], None],
        ready: Callable[[], bool] | None = None,
    ) -> None:
        """Attach a shard endpoint; ``ready`` gates per-delivery liveness."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already connected")
        self._endpoints[name] = handler
        self._ready[name] = ready if ready is not None else (lambda: True)

    def send(self, src: str, dst: str, signal: Signal) -> CrossShardDelivery:
        """Dispatch a signal; first attempt after the WAN latency."""
        delivery = CrossShardDelivery(src=src, dst=dst, signal=signal, sent_at=self.scheduler.now)
        self.log.append(delivery)
        wan_s = self.latency_ms[src][dst] / 1000.0
        self.scheduler.schedule(wan_s, self._deliver, delivery)
        return delivery

    def _deliver(self, delivery: CrossShardDelivery) -> None:
        delivery.attempts += 1
        handler = self._endpoints.get(delivery.dst)
        ready = self._ready.get(delivery.dst)
        if handler is not None and ready is not None and ready():
            delivery.delivered_at = self.scheduler.now
            delivery.status = DELIVERED
            handler(delivery.signal)
            return
        elapsed = self.scheduler.now - delivery.sent_at
        if delivery.attempts >= self.max_attempts or elapsed >= self.timeout_s:
            delivery.status = EXPIRED
            self.expired.append(delivery)
            return
        self.retries += 1
        backoff = self.base_backoff_s * (2 ** (delivery.attempts - 1))
        self.scheduler.schedule(backoff, self._deliver, delivery)


@dataclass
class _PendingOp:
    """One control-plane operation riding the retry/backoff loop."""

    kind: str  # "join" | "leave" | "replan"
    session_id: int
    spec: SessionSpec | None = None
    attempts: int = 0


@dataclass
class StrandedOp:
    """An operation whose retry budget ran out (leave/replan only).

    Joins degrade to a typed ``REJECTED_UNAVAILABLE`` verdict instead;
    a stranded leave is a soak-contract violation the tests fail on.
    """

    kind: str
    session_id: int
    at_s: float
    attempts: int


@dataclass
class PlaneStats:
    """Aggregate retry telemetry for benchmarks and fingerprints."""

    submitted: int = 0
    departs: int = 0
    replans: int = 0
    retries: int = 0
    unavailable_rejections: int = 0
    stranded: list[StrandedOp] = field(default_factory=list)


class ShardedControlPlane:
    """k regional shards + homing + retry/backoff + lease gossip."""

    def __init__(
        self,
        k: int,
        datacenters: Sequence[FleetDataCenter],
        scheduler: EventScheduler,
        *,
        latency_ms: Mapping[str, Mapping[str, float]] | None = None,
        heartbeat_interval_s: float | None = None,
        miss_threshold: int | None = None,
        base_backoff_s: float = 0.05,
        max_attempts: int = 8,
        manager_kwargs: Mapping[str, object] | None = None,
    ) -> None:
        if not datacenters:
            raise ValueError("at least one data center is required")
        self.scheduler = scheduler
        self.latency_ms = latency_ms if latency_ms is not None else os3e_latency_ms()
        if base_backoff_s <= 0:
            raise ValueError("backoff base must be positive")
        if max_attempts < 1:
            raise ValueError("at least one attempt is required")
        self.base_backoff_s = base_backoff_s
        self.max_attempts = max_attempts
        dc_cities = sorted(dc.name for dc in datacenters)
        self.shard_map = ShardMap.build(k, latency=self.latency_ms, candidates=dc_cities)
        shard_kwargs: dict[str, object] = {}
        if heartbeat_interval_s is not None:
            shard_kwargs["heartbeat_interval_s"] = heartbeat_interval_s
        if miss_threshold is not None:
            shard_kwargs["miss_threshold"] = miss_threshold
        by_city = {dc.name: dc for dc in datacenters}
        # One basis memory for the plane: every manager of every shard,
        # takeover successors included, remembers into the same object.
        manager_kwargs = {"basis_memory": {}, **(manager_kwargs or {})}
        self.shards: dict[str, ShardController] = {}
        for controller in self.shard_map.controllers:
            owned = [
                by_city[city]
                for city in self.shard_map.cities_of(controller)
                if city in by_city
            ]
            self.shards[controller] = ShardController(
                controller,
                owned,
                scheduler,
                manager_kwargs=manager_kwargs,
                **shard_kwargs,  # type: ignore[arg-type]
            )
        self.channel = CrossShardChannel(scheduler, self.latency_ms)
        #: dst controller city -> {shard_id: highest fence learned}.
        self.peer_views: dict[str, dict[str, int]] = {c: {} for c in self.shards}
        self.verdicts: list[AdmissionVerdict] = []
        self.departed: list[int] = []
        self.stats = PlaneStats()
        # Specs of sessions submitted and not yet left, and every id ever
        # submitted: a late leave or replan is a no-op, an unknown id an error.
        self._sessions_by_id: dict[int, SessionSpec] = {}
        self._seen: set[int] = set()
        # Join ops still riding the retry loop, and sessions whose leave
        # arrived while their join was in flight (an outage can delay a
        # join past its own departure; the join must then undo itself).
        self._pending_joins: dict[int, _PendingOp] = {}
        self._cancelled: set[int] = set()
        self._wire_gossip()

    # -- gossip ----------------------------------------------------------

    def _wire_gossip(self) -> None:
        for city, shard in self.shards.items():
            self.channel.connect(
                city,
                self._peer_handler(city),
                ready=self._readiness_of(shard),
            )
            shard.announce = self._announcer(city)

    @staticmethod
    def _readiness_of(shard: ShardController) -> Callable[[], bool]:
        def ready() -> bool:
            return shard.has_primary

        return ready

    def _announcer(self, src: str) -> Callable[[NcShardLease], None]:
        def announce(signal: NcShardLease) -> None:
            for dst in self.shards:
                if dst != src:
                    self.channel.send(src, dst, signal)

        return announce

    def _peer_handler(self, city: str) -> Callable[[Signal], None]:
        def handle(signal: Signal) -> None:
            if isinstance(signal, NcShardLease):
                view = self.peer_views[city]
                if signal.fence > view.get(signal.shard_id, 0):
                    # Stale announcements (an older fence arriving after
                    # a newer one, reordered by retries) are discarded.
                    view[signal.shard_id] = signal.fence

        return handle

    # -- homing ----------------------------------------------------------

    def home_of(self, spec: SessionSpec) -> str:
        """The controller city owning a session (by its source city).

        A source city outside the map has no region: the first controller
        takes the request, and its manager answers with the typed rejection.
        """
        return self.shard_map.assignment.get(spec.source_city, self.shard_map.controllers[0])

    def _home_shard(self, spec: SessionSpec) -> ShardController:
        return self.shards[self.home_of(spec)]

    # -- operations (synchronous first attempt, scheduled retries) -------

    def submit(self, spec: SessionSpec) -> None:
        """Join request: ends in a typed verdict, whatever the shard does."""
        self.stats.submitted += 1
        self._seen.add(spec.session_id)
        self._sessions_by_id[spec.session_id] = spec
        op = _PendingOp(kind="join", session_id=spec.session_id, spec=spec)
        self._pending_joins[spec.session_id] = op
        self._attempt(op)

    def depart(self, session_id: int) -> None:
        """Leave request: retried across outages until it lands."""
        self.stats.departs += 1
        if session_id in self._pending_joins:
            # The leave overtook its own join (delayed by an outage):
            # remember it so the join, once admitted, undoes itself.
            self._cancelled.add(session_id)
            return
        self._attempt(_PendingOp(kind="leave", session_id=session_id))

    def replan(self, session_id: int) -> None:
        """Replan request for one admitted session."""
        self.stats.replans += 1
        self._attempt(_PendingOp(kind="replan", session_id=session_id))

    def _attempt(self, op: _PendingOp) -> None:
        spec = op.spec if op.spec is not None else self._sessions_by_id.get(op.session_id)
        if spec is None:
            if op.session_id in self._seen:
                return  # its leave has already landed: nothing to move or undo
            raise KeyError(f"session {op.session_id} was never submitted")
        shard = self._home_shard(spec)
        if op.kind == "join":
            assert op.spec is not None
            verdict = shard.try_admit(op.spec)
            if verdict is not None:
                self.verdicts.append(verdict)
                self._pending_joins.pop(op.session_id, None)
                if op.session_id in self._cancelled:
                    self._cancelled.discard(op.session_id)
                    if verdict.admitted:
                        self._attempt(_PendingOp(kind="leave", session_id=op.session_id))
                    else:
                        del self._sessions_by_id[op.session_id]
                return
        elif op.kind == "leave":
            if shard.try_depart(op.session_id) is not None:
                self.departed.append(op.session_id)
                del self._sessions_by_id[op.session_id]
                return
        else:  # replan
            if op.session_id not in shard.manager.sessions:
                return  # rejected join or already departed: nothing to move
            verdict = shard.try_replan(op.session_id)
            if verdict is not None:
                self.verdicts.append(verdict)
                return
        op.attempts += 1
        if op.attempts >= self.max_attempts:
            self._exhausted(op, spec)
            return
        self.stats.retries += 1
        backoff = self.base_backoff_s * (2 ** (op.attempts - 1))
        self.scheduler.schedule(backoff, self._attempt, op)

    def _exhausted(self, op: _PendingOp, spec: SessionSpec) -> None:
        if op.kind == "join":
            self._pending_joins.pop(op.session_id, None)
            if op.session_id in self._cancelled:  # its leave came first and is spent
                self._cancelled.discard(op.session_id)
                del self._sessions_by_id[op.session_id]
            self.stats.unavailable_rejections += 1
            self.verdicts.append(
                AdmissionVerdict(
                    session_id=op.session_id,
                    status=AdmissionStatus.REJECTED_UNAVAILABLE,
                    lambda_mbps=0.0,
                    requested_mbps=spec.rate_mbps,
                    lp_solves=0,
                    warm_started=False,
                    vnfs_launched=0,
                    epoch=0,
                    reason=f"no live primary for {self.home_of(spec)} after {op.attempts} attempts",
                )
            )
        else:
            self.stats.stranded.append(
                StrandedOp(
                    kind=op.kind,
                    session_id=op.session_id,
                    at_s=self.scheduler.now,
                    attempts=op.attempts,
                )
            )

    # -- views -----------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return sum(shard.manager.active_sessions for shard in self.shards.values())

    @property
    def total_vnfs(self) -> int:
        return sum(shard.manager.index.total_vnfs for shard in self.shards.values())

    def replicas(self) -> tuple[str, ...]:
        """Every replica handle, sorted — the fault plan's target pool."""
        return tuple(
            sorted(r.name for shard in self.shards.values() for r in shard.replicas)
        )

    def takeovers(self) -> int:
        return sum(len(shard.takeovers) for shard in self.shards.values())

    def stop(self) -> None:
        for shard in self.shards.values():
            shard.stop()

    def canonical(self) -> tuple[object, ...]:
        """Deterministic plane state tuple for soak fingerprints."""
        return (
            tuple(self.shards[c].canonical() for c in sorted(self.shards)),
            tuple(sorted((c, tuple(sorted(v.items()))) for c, v in self.peer_views.items())),
            self.stats.retries,
            self.stats.unavailable_rejections,
            tuple((s.kind, s.session_id, repr(s.at_s)) for s in self.stats.stranded),
            len(self.channel.expired),
        )
