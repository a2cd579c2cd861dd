"""Fleet-scale control plane: what the incremental design is for.

Admits 500 concurrent sessions onto the OS3E overlay and measures the
delta-replan latency distribution at 50 / 200 / 500 live sessions
against the cost of the paper's whole-fleet re-solve at the same scale.
Three gates, each a ratio or a count taken inside this one process, so
they hold on any host:

- the median whole-fleet resolve at 200 sessions is ≥ 5× the median
  delta replan (the reason ``repro.fleet`` exists);
- the p50 replan at 500 sessions is < 10× the p50 at 50 — O(session),
  not O(fleet);
- warm starts fire.

The absolute latencies are ``bench`` rows, measured on the
``plane-churn-failover`` workload (``fleet.replan_ns_p50``/``_p99``,
``fleet.admit_ns_p50``).

The whole-fleet resolve is sampled at 50 and 200 sessions only: the
dense tableau at 500 sessions is minutes of solve time and gigabytes
of matrix for a number nobody gates on.
"""

from __future__ import annotations

import timeit

import numpy as np
import pytest

from repro.fleet import FleetManager, SessionSpec, fleet_of

FLEET_SIZES = (50, 200, 500)
WHOLE_FLEET_SIZES = (50, 200)  # 500 omitted: see module docstring
# A p99 over N samples is the maximum of N until N > 100: at 40 samples one
# host hiccup was the whole gate.  200 replans put two samples beyond p99.
REPLAN_SAMPLES = 200
RATES = (5.0, 10.0, 20.0)

DC_CITIES = (
    "Seattle",
    "Sunnyvale",
    "Denver",
    "Chicago",
    "Houston",
    "Atlanta",
    "New York",
    "Washington",
)
HOST_CITIES = (
    "Portland",
    "Los Angeles",
    "Salt Lake City",
    "Kansas City",
    "Dallas",
    "Memphis",
    "Nashville",
    "Pittsburgh",
    "Boston",
    "Raleigh",
    "Jacksonville",
    "Minneapolis",
)

MIN_SPEEDUP_200 = 5.0


def _spec(i: int) -> SessionSpec:
    source = HOST_CITIES[i % len(HOST_CITIES)]
    receiver = HOST_CITIES[(i * 7 + 3) % len(HOST_CITIES)]
    if receiver == source:
        receiver = HOST_CITIES[(i * 7 + 4) % len(HOST_CITIES)]
    return SessionSpec(
        session_id=i,
        source_city=source,
        receiver_cities=(receiver,),
        rate_mbps=RATES[i % len(RATES)],
        max_delay_ms=100.0,
    )


def _make_manager() -> FleetManager:
    # Generous quotas: the benchmark measures latency at scale, not the
    # rejection paths (the soak owns those).
    return FleetManager(
        fleet_of(DC_CITIES, inbound_mbps=1_000.0, outbound_mbps=1_000.0, coding_mbps=900.0),
        backbone_mbps=100_000.0,
    )


@pytest.fixture(scope="module")
def fleet_metrics():
    manager = _make_manager()
    metrics: dict[str, float] = {}
    admitted = 0
    for size in FLEET_SIZES:
        for i in range(admitted + 1, size + 1):
            manager.admit(_spec(i))
        admitted = size
        assert manager.active_sessions == size, "benchmark fleet must admit fully"

        # -- delta replan latency distribution at this size ------------
        # Evenly spread live sessions, cycled when the fleet is smaller
        # than the sample (a re-replan is the same unit of work);
        # ``timeit`` pauses the collector around each one.
        stride = max(size, REPLAN_SAMPLES)
        sample = [1 + (k * stride // REPLAN_SAMPLES) % size for k in range(REPLAN_SAMPLES)]
        replan_s = [timeit.timeit(lambda s=sid: manager.replan_session(s), number=1) for sid in sample]
        metrics[f"replan_{size}_p50_ns"] = float(np.percentile(replan_s, 50) * 1e9)
        metrics[f"replan_{size}_p99_ns"] = float(np.percentile(replan_s, 99) * 1e9)

        # -- the paper's whole-fleet resolve at the same scale ---------
        if size in WHOLE_FLEET_SIZES:
            resolve_s = timeit.repeat(manager.whole_fleet_resolve, number=1, repeat=3)
            metrics[f"whole_fleet_{size}_ns"] = float(np.median(resolve_s) * 1e9)
            metrics[f"speedup_{size}"] = float(
                np.median(resolve_s) / np.percentile(replan_s, 50)
            )
    metrics["warm_hits"] = float(manager.warm_hits)
    metrics["lp_solves"] = float(manager.lp_solves)
    return metrics


class TestFleetScale:
    def test_speedup_gate_at_200_sessions(self, fleet_metrics, table_printer):
        table_printer(
            "Fleet scale: delta replan vs whole-fleet resolve",
            ["metric", "value"],
            [[name, f"{value:,.1f}"] for name, value in fleet_metrics.items()],
        )
        # The tentpole's acceptance bar: a delta replan beats the
        # whole-fleet re-solve by at least 5x in the median at 200
        # sessions.  (Measured: three to four orders of magnitude.)
        assert fleet_metrics["speedup_200"] >= MIN_SPEEDUP_200

    def test_replan_latency_stays_session_local(self, fleet_metrics):
        # O(session), not O(fleet): the p50 replan at 500 sessions may
        # not balloon past a small multiple of the p50 at 50 sessions.
        assert fleet_metrics["replan_500_p50_ns"] < 10 * fleet_metrics["replan_50_p50_ns"]

    def test_warm_starts_fire_at_scale(self, fleet_metrics):
        assert fleet_metrics["warm_hits"] > 0
