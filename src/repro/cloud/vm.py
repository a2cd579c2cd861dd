"""VM lifecycle with launch latency and τ-delayed shutdown.

State machine::

    PENDING --(launch latency, ~35 s on EC2)--> RUNNING
    RUNNING --(NC_VNF_END)--> STOPPING            # τ grace window
    STOPPING --(reuse within τ)--> RUNNING        # relaunch cost saved
    STOPPING --(τ expires)--> TERMINATED
    any of the above --(crash)--> FAILED          # abrupt instance loss

The τ grace window is a load-bearing design decision in the paper
(§III-A, §V-C5): launching a fresh VM costs ~35 s — about 100× the
376 ms it takes to start a coding function on an already-running VM —
so a VNF told to shut down lingers for τ in case demand returns.
Billing accrues for PENDING/RUNNING/STOPPING time.

``FAILED`` models the crash the paper's control plane never plans for:
the instance vanishes (host failure, kernel panic), its coding function
and daemon die with it, and the provider stops charging at the moment
of the crash — unlike the deliberate STOPPING → TERMINATED path, which
bills through the whole τ grace window.  FAILED is terminal except for
``terminate_now`` bookkeeping; recovery means launching a *new* VM.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable

from repro.cloud.flavor import InstanceFlavor
from repro.net.events import Event, EventScheduler

_vm_ids = itertools.count(1)


class VmState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPING = "stopping"     # NC_VNF_END received; τ grace window open
    TERMINATED = "terminated"
    FAILED = "failed"         # crashed; billing stopped at the crash


class VmLifecycleError(RuntimeError):
    """Raised on an illegal VM state transition."""


class VirtualMachine:
    """One rented VM hosting (at most) one coding VNF."""

    def __init__(
        self,
        scheduler: EventScheduler,
        datacenter: str,
        flavor: InstanceFlavor,
        launch_latency_s: float = 35.0,
        grace_tau_s: float = 600.0,
        on_running: Callable[["VirtualMachine"], None] | None = None,
        on_terminated: Callable[["VirtualMachine"], None] | None = None,
        on_failed: Callable[["VirtualMachine"], None] | None = None,
    ):
        self.vm_id = f"vm-{next(_vm_ids)}"
        self.scheduler = scheduler
        self.datacenter = datacenter
        self.flavor = flavor
        self.launch_latency_s = launch_latency_s
        self.grace_tau_s = grace_tau_s
        self.state = VmState.PENDING
        self.launched_at = scheduler.now
        self.running_since: float | None = None
        self.terminated_at: float | None = None
        self.failed_at: float | None = None
        self.reuse_count = 0
        self._on_running = on_running
        self._on_terminated = on_terminated
        self._on_failed = on_failed
        self._grace_event: Event | None = None
        scheduler.schedule(launch_latency_s, self._boot_complete)

    # -- transitions -----------------------------------------------------

    def _boot_complete(self) -> None:
        if self.state is not VmState.PENDING:
            return  # terminated while booting
        self.state = VmState.RUNNING
        self.running_since = self.scheduler.now
        if self._on_running is not None:
            self._on_running(self)

    def fail(self) -> None:
        """Abrupt crash: the instance is gone, effective immediately.

        Idempotent (fault plans may hit the same VM twice); a no-op on a
        VM that already terminated.  Cancels any pending τ-grace expiry —
        a crashed VM cannot be reused — and freezes billing at the crash
        time: the provider charges for the deliberate STOPPING window but
        not for time after an instance died under it.
        """
        if self.state in (VmState.TERMINATED, VmState.FAILED):
            return
        if self._grace_event is not None:
            self._grace_event.cancel()
            self._grace_event = None
        self.state = VmState.FAILED
        self.failed_at = self.scheduler.now
        if self._on_failed is not None:
            self._on_failed(self)

    def request_shutdown(self) -> None:
        """NC_VNF_END semantics: stop after τ unless reused first."""
        if self.state is VmState.TERMINATED:
            raise VmLifecycleError(f"{self.vm_id} is already terminated")
        if self.state is VmState.FAILED:
            raise VmLifecycleError(f"{self.vm_id} has failed; nothing to shut down")
        if self.state is VmState.STOPPING:
            return  # grace window already open
        if self.state is VmState.PENDING:
            # Never came up; cancel the boot and terminate immediately.
            self._terminate()
            return
        self.state = VmState.STOPPING
        self._grace_event = self.scheduler.schedule(self.grace_tau_s, self._grace_expired)

    def reuse(self) -> None:
        """Cancel a pending shutdown: demand returned within τ."""
        if self.state is not VmState.STOPPING:
            raise VmLifecycleError(f"{self.vm_id} is {self.state.value}, not stopping; nothing to reuse")
        if self._grace_event is not None:
            self._grace_event.cancel()
            self._grace_event = None
        self.state = VmState.RUNNING
        self.reuse_count += 1

    def terminate_now(self) -> None:
        """Immediate hard termination (bypasses the grace window)."""
        if self.state is VmState.TERMINATED:
            return
        if self._grace_event is not None:
            self._grace_event.cancel()
            self._grace_event = None
        self._terminate()

    def _grace_expired(self) -> None:
        if self.state is VmState.STOPPING:
            self._grace_event = None
            self._terminate()

    def _terminate(self) -> None:
        self.state = VmState.TERMINATED
        self.terminated_at = self.scheduler.now
        if self._on_terminated is not None:
            self._on_terminated(self)

    # -- introspection ------------------------------------------------------

    @property
    def is_usable(self) -> bool:
        """True if a coding function can run (or resume) on this VM."""
        return self.state in (VmState.RUNNING, VmState.STOPPING)

    def billed_seconds(self, now: float | None = None) -> float:
        """Wall-clock seconds the provider charges for.

        A crashed VM stops billing at the crash even if it is later
        ``terminate_now``-ed for bookkeeping.
        """
        if self.failed_at is not None:
            end: float | None = self.failed_at
        else:
            end = self.terminated_at
        if end is None:
            end = now if now is not None else self.scheduler.now
        return max(0.0, end - self.launched_at)

    def cost_usd(self, now: float | None = None) -> float:
        return self.billed_seconds(now) / 3600.0 * self.flavor.hourly_cost_usd

    def __repr__(self) -> str:
        return f"VirtualMachine({self.vm_id}, {self.datacenter}, {self.flavor.name}, {self.state.value})"
