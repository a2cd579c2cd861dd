"""Typed admission verdicts: rejection is an outcome, not an exception.

"Network Coding as a Service" frames the controller as a multi-tenant
front door whose admission path must answer cheaply and *legibly* —
a session that cannot be carried is told why (no feasible route vs.
no residual capacity), and the answer carries enough bookkeeping
(LP solves spent, warm-start hit, VNFs launched, config epoch) for
the fleet benchmarks and soak fingerprints to assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.fleet.capacity import canonical_rate


class AdmissionStatus(Enum):
    """Outcome of one admission attempt."""

    ADMITTED = "admitted"
    #: No route within the session's delay bound (empty path set).
    REJECTED_INFEASIBLE = "rejected-infeasible"
    #: Routes exist but residual capacity cannot carry the full rate (or the
    #: solver failed, which the reason then names with its pivot count).
    REJECTED_CAPACITY = "rejected-capacity"
    #: The home shard had no live primary for the whole retry budget —
    #: a typed answer, not a hang (DESIGN.md §14 graceful degradation).
    REJECTED_UNAVAILABLE = "rejected-unavailable"


@dataclass(frozen=True)
class AdmissionVerdict:
    """The controller's answer to one join/replan request."""

    session_id: int
    status: AdmissionStatus
    lambda_mbps: float
    requested_mbps: float
    lp_solves: int
    warm_started: bool
    vnfs_launched: int
    epoch: int
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.status is AdmissionStatus.ADMITTED

    def canonical(self) -> tuple[int, str, str, int, int]:
        """Stable tuple for soak fingerprints: the decision, λ on the rate grid.

        What the solve cost (``warm_started``) is left out, so incremental
        and cold runs fingerprint identically.
        """
        return (
            self.session_id,
            self.status.value,
            repr(canonical_rate(self.lambda_mbps)),
            self.lp_solves,
            self.epoch,
        )
