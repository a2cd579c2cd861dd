"""Fleet-scale control plane: many sessions, incremental replanning.

The paper's controller re-optimizes the whole deployment on every
session event; this package is the layer that makes that scale.  It
runs hundreds of concurrent multicast sessions over the OS3E WAN
(:mod:`repro.net.topology`), admitting each with a warm-started
per-session delta LP against a surplus-capacity index — so a join
costs O(session), never O(fleet) — and answers every request with a
typed :class:`~repro.fleet.verdict.AdmissionVerdict`.

Modules
-------
``verdict``   typed admission outcomes
``capacity``  surplus-capacity index + fleet data-center specs
``planner``   per-session delta LP (warm-startable matrix form)
``manager``   the fleet controller (admit / depart / replan)
``churn``     seeded Poisson session churn traces
``soak``      replay-fingerprinted churn scenario (``python -m repro.soak fleet``)
"""

from repro.fleet.capacity import FleetDataCenter, FleetPlan, SurplusIndex
from repro.fleet.churn import ChurnEvent, ChurnTrace, SessionSpec
from repro.fleet.manager import COLD, INCREMENTAL, FleetManager, fleet_of
from repro.fleet.planner import SessionLP
from repro.fleet.soak import FleetSoakRecord, run_fleet_soak
from repro.fleet.verdict import AdmissionStatus, AdmissionVerdict

__all__ = [
    "AdmissionStatus",
    "AdmissionVerdict",
    "COLD",
    "ChurnEvent",
    "ChurnTrace",
    "FleetDataCenter",
    "FleetManager",
    "FleetPlan",
    "FleetSoakRecord",
    "INCREMENTAL",
    "SessionLP",
    "SessionSpec",
    "SurplusIndex",
    "fleet_of",
    "run_fleet_soak",
]
