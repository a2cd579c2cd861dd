"""The fault injector: binds a :class:`FaultPlan` to live objects.

The injector is a registry plus a trigger: simulation objects are
registered under string handles (the same handles the plan's events
name), ``arm()`` validates every event against the registry *before*
anything is scheduled — a typo'd target is a :class:`FaultTargetError`
at arm time, not a silent no-op at t=37 — and then schedules each fault
on the shared :class:`~repro.net.events.EventScheduler`.

Signal-plane faults (SIGNAL_DROP / SIGNAL_DELAY) work through the
:class:`~repro.core.signals.SignalBus` fault hook: at the fault's
scheduled time a one-shot rule is added that eats (or postpones) the
*next* delivery of the named signal kind.

NODE_CRASH composes the primitives: every link touching the node goes
down and the node's daemon (if registered) is killed — the closest
thing the simulation has to pulling a machine's power cord.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.net.events import EventScheduler
from repro.net.impairments import BitFlipCorruption, Blackhole, Duplication
from repro.net.loss import UniformLoss

if TYPE_CHECKING:  # imports only for type checkers; no runtime cycle
    from repro.cloud.vm import VirtualMachine
    from repro.core.signals import SignalBus, SignalRecord
    from repro.net.link import Link
    from repro.net.topology import Topology


class FaultError(RuntimeError):
    """Base class for fault-injection failures."""


class FaultTargetError(FaultError):
    """A plan names a target the injector has no registration for."""


class RecoveryFailedError(FaultError):
    """The system did not recover from an injected fault in time.

    Raised by experiments (not the injector itself) when a recovery
    deadline passes — e.g. receivers still undecoded long after a relay
    crash should have been routed around.
    """


def link_key(src: str, dst: str) -> str:
    """Canonical string handle for the directed link ``src → dst``."""
    return f"{src}->{dst}"


class ControllerTarget(Protocol):
    """What CONTROLLER_CRASH / CONTROLLER_RESTORE need from a replica.

    Satisfied by :class:`repro.shard.controller.ControllerReplica`; any
    object with the same crash/restore surface can be registered.
    """

    def crash(self) -> None: ...

    def restore(self) -> None: ...


class DaemonTarget(Protocol):
    """What DAEMON_KILL / DAEMON_RESTART need: a killable, restartable process.

    Satisfied by :class:`repro.core.daemon.VnfDaemon` and by the adaptive
    loop's :class:`repro.adapt.reporter.LinkReporter`.
    """

    def kill(self) -> None: ...

    def restart(self) -> None: ...


class _SignalRule:
    """One-shot drop/delay rule applied to the next matching delivery."""

    __slots__ = ("kind", "action", "used")

    def __init__(self, kind: str, action: "str | float") -> None:
        self.kind = kind
        self.action = action
        self.used = False


class FaultInjector:
    """Schedules a :class:`FaultPlan` against registered live objects."""

    def __init__(self, scheduler: EventScheduler, plan: FaultPlan):
        self.scheduler = scheduler
        self.plan = plan
        self._vms: dict[str, "VirtualMachine"] = {}
        self._links: dict[str, "Link"] = {}
        self._daemons: dict[str, DaemonTarget] = {}
        self._controllers: dict[str, ControllerTarget] = {}
        self._node_links: dict[str, list[str]] = {}
        self._bus: "SignalBus | None" = None
        self._rules: list[_SignalRule] = []
        self.applied: list[tuple[float, FaultEvent]] = []
        self.armed = False

    # -- registry ------------------------------------------------------

    def add_vm(self, vm_id: str, vm: "VirtualMachine") -> None:
        self._vms[vm_id] = vm

    def add_link(self, src: str, dst: str, link: "Link") -> None:
        key = link_key(src, dst)
        self._links[key] = link
        self._node_links.setdefault(src, []).append(key)
        self._node_links.setdefault(dst, []).append(key)

    def add_daemon(self, name: str, daemon: DaemonTarget) -> None:
        self._daemons[name] = daemon

    def add_controller(self, name: str, controller: ControllerTarget) -> None:
        """Register a controller replica under its replica handle."""
        self._controllers[name] = controller

    def add_topology(self, topology: "Topology") -> None:
        """Register every link of a topology under ``src->dst`` handles."""
        for (src, dst), link in topology.links.items():
            self.add_link(src, dst, link)

    def set_bus(self, bus: "SignalBus") -> None:
        """Attach the signal bus and interpose the injector's fault hook."""
        if bus.fault_hook is not None and bus.fault_hook is not self._hook:
            raise FaultError("bus already has a fault hook installed")
        self._bus = bus
        bus.fault_hook = self._hook

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Validate the whole plan, then schedule every fault.

        Idempotence guard: arming twice would double-fire every fault.
        """
        if self.armed:
            raise FaultError("injector already armed")
        for event in self.plan:
            self._validate(event)
        for event in self.plan:
            self.scheduler.schedule_at(event.time_s, self._fire, event)
        self.armed = True

    def _validate(self, event: FaultEvent) -> None:
        kind, target = event.kind, event.target
        if kind is FaultKind.VM_CRASH and target not in self._vms:
            raise FaultTargetError(f"no VM registered as {target!r}")
        if kind in (
            FaultKind.LINK_DOWN,
            FaultKind.LINK_UP,
            FaultKind.LINK_DEGRADE,
            FaultKind.LINK_CORRUPT,
            FaultKind.LINK_DUPLICATE,
            FaultKind.LINK_BLACKHOLE,
            FaultKind.LINK_CLEAR,
        ):
            if target not in self._links:
                raise FaultTargetError(f"no link registered as {target!r}")
        if kind in (FaultKind.DAEMON_KILL, FaultKind.DAEMON_RESTART):
            if target not in self._daemons:
                raise FaultTargetError(f"no daemon registered as {target!r}")
        if kind in (FaultKind.CONTROLLER_CRASH, FaultKind.CONTROLLER_RESTORE):
            if target not in self._controllers:
                raise FaultTargetError(f"no controller registered as {target!r}")
        if kind in (FaultKind.SIGNAL_DROP, FaultKind.SIGNAL_DELAY) and self._bus is None:
            raise FaultTargetError(f"signal fault on {target!r} but no bus attached (set_bus)")
        if kind is FaultKind.NODE_CRASH:
            if target not in self._node_links and target not in self._daemons:
                raise FaultTargetError(f"node {target!r} has no registered links or daemon")

    # -- firing --------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        kind, target = event.kind, event.target
        if kind is FaultKind.VM_CRASH:
            self._vms[target].fail()
        elif kind is FaultKind.LINK_DOWN:
            self._links[target].down()
        elif kind is FaultKind.LINK_UP:
            self._links[target].up()
        elif kind is FaultKind.LINK_DEGRADE:
            assert event.param is not None  # enforced by FaultEvent validation
            self._links[target].set_loss(UniformLoss(event.param))
        elif kind is FaultKind.LINK_CORRUPT:
            assert event.param is not None
            self._links[target].add_impairment(BitFlipCorruption(event.param))
        elif kind is FaultKind.LINK_DUPLICATE:
            assert event.param is not None
            self._links[target].add_impairment(Duplication(event.param))
        elif kind is FaultKind.LINK_BLACKHOLE:
            self._links[target].add_impairment(Blackhole())
        elif kind is FaultKind.LINK_CLEAR:
            self._links[target].clear_impairments()
        elif kind is FaultKind.DAEMON_KILL:
            self._daemons[target].kill()
        elif kind is FaultKind.DAEMON_RESTART:
            self._daemons[target].restart()
        elif kind is FaultKind.CONTROLLER_CRASH:
            self._controllers[target].crash()
        elif kind is FaultKind.CONTROLLER_RESTORE:
            self._controllers[target].restore()
        elif kind is FaultKind.SIGNAL_DROP:
            self._rules.append(_SignalRule(target, "drop"))
        elif kind is FaultKind.SIGNAL_DELAY:
            assert event.param is not None
            self._rules.append(_SignalRule(target, event.param))
        elif kind is FaultKind.NODE_CRASH:
            for key in self._node_links.get(target, ()):
                self._links[key].down()
            daemon = self._daemons.get(target)
            if daemon is not None:
                daemon.kill()
        self.applied.append((self.scheduler.now, event))

    def _hook(self, record: "SignalRecord") -> "str | float | None":
        for rule in self._rules:
            if not rule.used and record.signal.kind == rule.kind:
                rule.used = True
                return rule.action
        return None
