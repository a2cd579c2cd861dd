"""The paper's primary contribution: network coding as a virtual network function.

Subpackages and modules:

- :mod:`repro.core.session` — multicast sessions (source, receivers,
  delay tolerance L^max, coding configuration).
- :mod:`repro.core.signals` — the control-plane signal protocol
  (NC_START, NC_VNF_START, NC_VNF_END, NC_FORWARD_TAB, NC_SETTINGS).
- :mod:`repro.core.forwarding` — text-file forwarding tables and the
  daemon's SIGUSR1 pause/reload/resume update cycle (Tab. III costs).
- :mod:`repro.core.deployment` — problem (2): joint VNF deployment and
  conceptual-flow multicast routing as an LP + rounding.
- :mod:`repro.core.vnf` — the data-plane coding function (per-session
  roles, pipelined recoding, generation-keyed dispatch).
- :mod:`repro.core.daemon` — the per-node daemon managing a VNF's
  lifecycle and signal handling.
- :mod:`repro.core.controller` — the central controller tying the cloud
  APIs, the optimizer, and the daemons together.
- :mod:`repro.core.scaling` — the dynamic scaling algorithms (Alg. 1–3)
  with their ρ/τ threshold state machines.
"""

from repro.core.controller import Controller
from repro.core.deployment import DeploymentPlan, DeploymentProblem, SessionDemand
from repro.core.forwarding import ForwardingTable, ForwardingUpdateModel
from repro.core.scaling import ScalingConfig, ScalingEngine
from repro.core.session import CodingConfig, MulticastSession
from repro.core.signals import (
    NcForwardTab,
    NcHeartbeat,
    NcSettings,
    NcStart,
    NcVnfEnd,
    NcVnfStart,
    Signal,
    SignalBus,
)
from repro.core.vnf import CodingVnf, VnfRole

__all__ = [
    "MulticastSession",
    "CodingConfig",
    "Signal",
    "SignalBus",
    "NcStart",
    "NcHeartbeat",
    "NcVnfStart",
    "NcVnfEnd",
    "NcForwardTab",
    "NcSettings",
    "ForwardingTable",
    "ForwardingUpdateModel",
    "DeploymentProblem",
    "DeploymentPlan",
    "SessionDemand",
    "CodingVnf",
    "VnfRole",
    "Controller",
    "ScalingEngine",
    "ScalingConfig",
]
