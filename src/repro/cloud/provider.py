"""Cloud provider API surface.

The controller launches and terminates VMs "by APIs provided by cloud
providers, e.g., Linode APIs and EC2 CLI/AMI" (§III-A).  We expose the
same verbs against the simulated substrate: ``launch_vm``,
``terminate_vm``, ``list_vms``, plus per-provider launch-latency
distributions (EC2's mean of ~35 s comes from §V-C5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.datacenter import DataCenter
from repro.cloud.vm import VirtualMachine
from repro.net.events import EventScheduler
from repro.util.rng import derive_rng


class ProviderError(RuntimeError):
    """API-level failure (unknown region, quota exhausted, bad handle)."""


@dataclass(frozen=True)
class LaunchLatency:
    """Lognormal-ish launch latency: mean with bounded jitter."""

    mean_s: float = 35.0
    jitter_frac: float = 0.15

    def sample(self, rng: np.random.Generator) -> float:
        low = self.mean_s * (1.0 - self.jitter_frac)
        high = self.mean_s * (1.0 + self.jitter_frac)
        return float(rng.uniform(low, high))


class CloudProvider:
    """One provider account spanning several data centers."""

    def __init__(
        self,
        name: str,
        scheduler: EventScheduler,
        datacenters: list[DataCenter],
        launch_latency: LaunchLatency | None = None,
        vm_quota: int = 1000,
        rng: np.random.Generator | None = None,
    ):
        self.name = name
        self.scheduler = scheduler
        self.launch_latency = launch_latency if launch_latency is not None else LaunchLatency()
        self.vm_quota = vm_quota
        self._rng = rng if rng is not None else derive_rng("cloud.provider", name)
        self.datacenters = {dc.name: dc for dc in datacenters}
        if len(self.datacenters) != len(datacenters):
            raise ValueError("duplicate data-center names")
        self._vms: dict[str, VirtualMachine] = {}
        self.api_calls = 0

    # -- API verbs -----------------------------------------------------

    def launch_vm(
        self,
        datacenter: str,
        grace_tau_s: float = 600.0,
    ) -> VirtualMachine:
        """Start a VM in ``datacenter``; returns the PENDING handle."""
        self.api_calls += 1
        dc = self.datacenters.get(datacenter)
        if dc is None:
            raise ProviderError(f"{self.name} has no data center {datacenter!r}")
        if len([vm for vm in self._vms.values() if vm.is_usable or vm.state.value == "pending"]) >= self.vm_quota:
            raise ProviderError(f"{self.name} VM quota ({self.vm_quota}) exhausted")
        vm = VirtualMachine(
            scheduler=self.scheduler,
            datacenter=datacenter,
            flavor=dc.flavor,
            launch_latency_s=self.launch_latency.sample(self._rng),
            grace_tau_s=grace_tau_s,
        )
        dc.register_vm(vm)
        self._vms[vm.vm_id] = vm
        return vm

    def fail_vm(self, vm_id: str) -> VirtualMachine:
        """Crash a VM (substrate event, not an API call — no charge).

        This is the fault-injection entry point: the instance drops to
        FAILED, its billing stops, and — unlike ``terminate_vm`` — the
        controller is *not* told; it has to notice via missed heartbeats.
        """
        vm = self._vms.get(vm_id)
        if vm is None:
            raise ProviderError(f"{self.name} has no VM {vm_id!r}")
        vm.fail()
        return vm

    def terminate_vm(self, vm_id: str, graceful: bool = True) -> None:
        """Shut a VM down — graceful opens the τ window, else immediate."""
        self.api_calls += 1
        vm = self._vms.get(vm_id)
        if vm is None:
            raise ProviderError(f"{self.name} has no VM {vm_id!r}")
        if graceful:
            vm.request_shutdown()
        else:
            vm.terminate_now()

    def list_vms(self, datacenter: str | None = None) -> list[VirtualMachine]:
        self.api_calls += 1
        vms = list(self._vms.values())
        if datacenter is not None:
            vms = [vm for vm in vms if vm.datacenter == datacenter]
        return vms

    def get_vm(self, vm_id: str) -> VirtualMachine:
        vm = self._vms.get(vm_id)
        if vm is None:
            raise ProviderError(f"{self.name} has no VM {vm_id!r}")
        return vm

    # -- accounting ----------------------------------------------------------

    def total_cost_usd(self, now: float | None = None) -> float:
        return sum(vm.cost_usd(now) for vm in self._vms.values())

    def __repr__(self) -> str:
        return f"CloudProvider({self.name}, dcs={sorted(self.datacenters)}, vms={len(self._vms)})"
