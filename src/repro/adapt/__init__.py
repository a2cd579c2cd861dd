"""Adaptive redundancy control (DESIGN.md §15).

The paper runs every NC-VNF session at *static* redundancy (NC0/NC1/
NC2, §V-B3), and its own loss experiments show what that costs: on
correlated-loss links goodput collapses (too little protection) or
clean links pay a permanent bandwidth tax (too much).  This package
closes the loop the one-way NACK path leaves open:

- :mod:`repro.adapt.reporter` — :class:`~repro.adapt.reporter.LinkReporter`
  instances at receivers and VNFs fold per-generation loss / NACK /
  corruption counters into periodic, EWMA-smoothed ``NC_LINK_REPORT``
  signals (epoch-stamped and dedup-safe like every config signal).
- :mod:`repro.adapt.controller` —
  :class:`~repro.adapt.controller.AdaptiveRedundancyController` runs a
  bounded AIMD-style policy over those reports and retunes per-session
  extra coded packets and generation size through the existing
  ``NC_SETTINGS`` signal, stamped with a fresh ``(fence, epoch)`` so it
  composes with the sharded-failover ordering.
- :mod:`repro.adapt.soak` — the chaos scenario (``python -m repro.soak
  adapt``) proving the loop degrades to typed outcomes
  (``ADAPT_STALLED``, never a hang) with bit-identical seeded replays.
"""

from repro.adapt.controller import AdaptiveRedundancyController, AdaptPolicy, AdaptState
from repro.adapt.reporter import LinkReporter, LinkSample, receiver_probe, vnf_probe

__all__ = [
    "AdaptPolicy",
    "AdaptState",
    "AdaptiveRedundancyController",
    "LinkReporter",
    "LinkSample",
    "receiver_probe",
    "vnf_probe",
]
