"""Bit-identity pins for every way a session is stood up.

One ``repro.soak.fingerprint`` per entry point and branch, recorded on
the commit *before* the bring-up consolidation (DESIGN.md "One
bring-up") with ``src/`` untouched, at reduced horizons.  Construction
order decides scheduler sequence numbers, which decide the order of
same-instant events and so every RNG draw after them — a harness that
builds its receivers before its daemons, or pushes a table ahead of its
settings, shows up here as a different digest.

Each digest covers ``scheduler.processed``, every link's counters,
every coding VNF's processed / emitted / dropped counters, each
receiver's sorted ``(generation, repr(time))`` list with its packet and
NACK counts, the source's sent / repair counts, and — where the run has
them — detection time, dead nodes, recovery tables, controller
transitions, retunes and applied faults.  Only public entry points and
result attributes are read, so the file runs unedited on both sides of
the change.

Six digests were re-pinned once since, on purpose, when the ARQ layer's
retry clock became a measured RTO and a repair began to follow its
NACK's hop (DESIGN.md §9).  The other six kept theirs: five never NACK,
and the GEO run's one next hop and NACK → decode times longer than the
initial RTO (every repaired generation is NACKed twice, which Karn's
rule does not sample) leave it on the old clock and the old route.
"""

import pytest

from repro.core.dataplane import build_data_plane
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.forwarding import ForwardingTable
from repro.core.orchestrator import Orchestrator
from repro.core.session import MulticastSession
from repro.core.vnf import CodingVnf
from repro.experiments.butterfly import (
    RELAYS,
    butterfly_graph,
    measure_delays,
    run_butterfly_nc,
    run_butterfly_non_nc,
)
from repro.experiments.failures import run_butterfly_failover
from repro.experiments.scenarios import GEO_SATELLITE, IOT_RELAY_CHAIN, run_scenario
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.loss import BurstLoss
from repro.rlnc.redundancy import RedundancyPolicy
from repro.soak import fingerprint


def _vnf_counters(vnf):
    return (
        vnf.name,
        vnf.processed_packets,
        vnf.emitted_packets,
        vnf.decoded_generations,
        vnf.retunes_applied,
        vnf.corrupt_dropped,
        vnf.duplicate_dropped,
        vnf.stale_dropped,
        vnf.malformed_dropped,
    )


def _plane(topology, receivers, source, vnfs=None):
    """The observables every packet-level run has."""
    if vnfs is None:
        vnfs = [node for node in topology.nodes.values() if isinstance(node, CodingVnf)]
    return (
        topology.scheduler.processed,
        [(edge, sorted(link.stats.as_dict().items())) for edge, link in sorted(topology.links.items())],
        [_vnf_counters(vnf) for vnf in vnfs],
        [
            (
                name,
                sorted((gen, repr(t)) for gen, t in app.completed.items()),
                app.received_packets,
                app.redundant_packets,
                app.nacks_sent,
                app.nacks_suppressed,
            )
            for name, app in sorted(receivers.items())
        ],
        # The striped Non-NC source counts generations only.
        (source.sent_generations, getattr(source, "sent_packets", None), getattr(source, "repair_packets", None)),
    )


def _faults(applied):
    return [(repr(t), event.kind.value, event.target) for t, event in applied]


def _table_rows(table):
    """A table's hop lists in session order, without the process-global ids."""
    return [hops for _, hops in sorted(table.entries.items())]


def _config_pushes(bus, keep_clears=True):
    """Every NC_SETTINGS / NC_FORWARD_TAB in send order, stamp and content.

    Session ids come off a process-global counter, so content is keyed by
    a session's rank among the ids seen, not by the id.  ``keep_clears=
    False`` leaves zero-skip shape directives out: a zero skip *clears* a
    hop's shape, which on a VNF that never had one is a no-op, so it is
    not part of what an initial deploy configures.
    """
    pushes = []
    for record in bus.log:
        signal = record.signal
        if signal.kind == "NcForwardTab":
            content = _table_rows(ForwardingTable.parse(signal.table_text))
        elif signal.kind == "NcSettings":
            rank = {sid: index for index, sid in enumerate(sorted(signal.session_ids))}
            content = (
                [rank[sid] for sid in signal.session_ids],
                [(rank[sid], role) for sid, role in signal.roles],
                (signal.generation_bytes, signal.block_bytes),
                [(rank[sid], hop, skip) for sid, hop, skip in signal.shapes if keep_clears or skip != 0],
            )
        else:
            continue
        stamp = (signal.fence, signal.epoch, repr(record.sent_at), repr(record.delivered_at), record.status)
        pushes.append((signal.kind, signal.target, stamp, content))
    return pushes


# -- run_butterfly_nc / run_butterfly_non_nc / measure_delays --------------------


def _butterfly(result):
    return fingerprint(_plane(result.topology, result.receivers, result.source), result.sent_generations)


BUTTERFLY_RUNS = {
    # The two `bench` shapes (butterfly-clean, butterfly-lossy-payload).
    "nc-bench-clean": lambda: run_butterfly_nc(
        duration_s=0.6, warmup_s=0.0, rate_mbps=66.0, window_generations=512, seed=11
    ),
    "nc-bench-lossy": lambda: run_butterfly_nc(
        duration_s=1.2,
        warmup_s=0.0,
        rate_mbps=13.2,
        window_generations=512,
        seed=11,
        payload_mode="full",
        redundancy=RedundancyPolicy(1),
        loss_on_bottleneck=BurstLoss(0.10, correlation=0.25),
        jitter_s=0.003,
    ),
    # k = 1: no merge shape at T, no feedback path at all.
    "nc-k1-unwindowed": lambda: run_butterfly_nc(
        duration_s=0.4, warmup_s=0.1, rate_mbps=30.0, blocks_per_generation=1, seed=5
    ),
    "non-nc-flooding-window": lambda: run_butterfly_non_nc(
        duration_s=0.5, warmup_s=0.1, mode="flooding", window_generations=256, seed=5
    ),
    "non-nc-striped": lambda: run_butterfly_non_nc(duration_s=0.5, warmup_s=0.1, mode="striped", seed=5),
}

BUTTERFLY_PINS = {
    "nc-bench-clean": "98e99adada8b719bdafe66d72b9f3ebc8877a5c2603740fa3c905cbc32d9ebda",
    "nc-bench-lossy": "4adfbfd959ffc74a2e5ba11e73ebed6350f953f1c3d53c6bbfc7c90c59948d9f",
    "nc-k1-unwindowed": "a47bff1ebbc0ed7fa013517714da95dff2771947b3b3f75fd951f33d22cd1e4a",
    "non-nc-flooding-window": "18096cf70f9e1ca2b91983cd9d7cfd69f309753573b0da74d0c899eaa6aff00d",
    "non-nc-striped": "b269c92b88470c84ee49719af3402eacab3024d0d8c1c35d696a1bcb20750577",
}


@pytest.mark.parametrize("case", sorted(BUTTERFLY_RUNS))
def test_butterfly_runs(case):
    assert _butterfly(BUTTERFLY_RUNS[case]()) == BUTTERFLY_PINS[case]


def test_measure_delays():
    rows = measure_delays()
    digest = fingerprint(sorted((label, repr(ms)) for label, ms in rows.items()))
    assert digest == "fff5823b7a925df2987b7ffd5a260d4740acdd9e0bdf3bab6575d5224c4fb978"


# -- run_butterfly_failover ------------------------------------------------------


def _failover(result):
    return fingerprint(
        _plane(result.topology, result.receivers, result.source),
        repr(result.detected_at),
        tuple(result.dead_nodes),
        [
            (
                plan.feasible,
                plan.dead_nodes,
                sorted((relay, _table_rows(table)) for relay, table in plan.tables.items()),
                sorted((hop, repr(share)) for hop, share in plan.source_shares.items()),
            )
            for plan in result.recovery_plans
        ],
        _faults(result.applied_faults),
        result.undeliverable_signals,
        len(result.bus.dropped),
        _config_pushes(result.bus),
        sorted(result.heartbeats_sent.items()),
        sorted((name, relay.next_hop, type(relay).__name__) for name, relay in result.control_relays.items()),
    )


FAILOVER_RUNS = {
    "v2-plain": dict(fail_node="V2", relay_repair=False),
    "o1-relay-repair": dict(fail_node="O1", relay_repair=True),
}

FAILOVER_PINS = {
    "v2-plain": "d36f4ec36c4d976e213d8cd698bc0db4ebb47dd5af43b396c6d31f504f67f958",
    "o1-relay-repair": "31e4182bd0014942a7f4c5da21361cbc05997a8b5eb2d4967a62a643322bb3f9",
}


@pytest.mark.parametrize("case", sorted(FAILOVER_RUNS))
def test_failover_runs(case):
    result = run_butterfly_failover(
        fail_at_s=0.4, duration_s=2.4, rate_mbps=30.0, total_generations=1000, seed=9, **FAILOVER_RUNS[case]
    )
    assert result.recovery_plans and result.decoded_after["O2"] > 0, "the pin must cover a recovery"
    assert _failover(result) == FAILOVER_PINS[case]


# -- run_scenario ----------------------------------------------------------------


def _scenario(result):
    return fingerprint(
        _plane(result.topology, {"receiver": result.receiver}, result.source),
        result.retunes_pushed,
        result.retunes_applied,
        result.stall_entries,
        (result.final_extra, result.final_blocks),
        [(repr(t), state.value) for t, state in result.transitions],
        _faults(result.applied_faults),
        result.undeliverable_signals,
        result.dropped_signals,
        result.decoded_bytes,
    )


def test_scenario_iot_fixed():
    result = run_scenario(IOT_RELAY_CHAIN, "fixed", 0.15, duration_s=6.0, seed=3)
    assert _scenario(result) == "a8128690bceb961d1a98e947453e67140d446d95c22a9ebe67c70cce3614dee7"


def test_scenario_geo_adaptive_under_faults():
    plan = FaultPlan(
        [
            FaultEvent(3.0, FaultKind.DAEMON_KILL, "geo-sat"),
            FaultEvent(5.0, FaultKind.DAEMON_KILL, "reporter"),
        ]
    )
    result = run_scenario(GEO_SATELLITE, "adaptive", 0.15, duration_s=8.0, seed=3, plan=plan)
    assert len(result.applied_faults) == 2
    assert _scenario(result) == "ec027fcdad6bd3fd0228d7548d7d8214575b8910fc01f9828343e0b85a52c00a"


# -- Orchestrator.deploy / build_data_plane --------------------------------------


def _pinned_session():
    # build_data_plane keys the source's stream (and a dispatcher its
    # instance choice) by session id: fix it, or the digest would depend
    # on how many sessions the process created before this test.
    return MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0, session_id=18_000)


def _deployment(live, session, extra=()):
    sid = session.session_id
    receivers = {name: app for (s, name), app in live.receivers.items() if s == sid}
    vnfs = [vnf for _, instances in sorted(live.vnfs.items()) for vnf in instances]
    return fingerprint(_plane(live.topology, receivers, live.sources[sid], vnfs), *extra)


def test_orchestrator_deploy():
    orchestrator = Orchestrator(
        butterfly_graph(), [DataCenterSpec(n, 900, 900, 900) for n in RELAYS], alpha=1.0, seed=4
    )
    session = _pinned_session()
    deployed = orchestrator.deploy([session])
    deployed.run(1.2)
    extra = (
        _config_pushes(deployed.bus, keep_clears=False),
        len(deployed.bus.log),
        sorted((name, daemon.function_running) for name, daemon in deployed.daemons.items()),
    )
    assert _deployment(deployed.deployment, session, extra) == "26aff627482af90b047f6ef5b07e84e49038b1b2105ac0e835dd7a6e25c0d65c"


def test_multi_instance_data_plane():
    graph = butterfly_graph()
    problem = DeploymentProblem(graph, [DataCenterSpec(n, 40, 40, 40) for n in RELAYS], alpha=0.1)
    session = _pinned_session()
    plan = problem.solve([problem.build_demand(session)])
    live = build_data_plane(plan, graph, [session], rate_fraction=0.95, seed=8)
    assert live.dispatchers, "the pin must cover the dispatcher path"
    live.start()
    live.run(0.8)
    extra = (sorted((name, d.dispatched) for name, d in live.dispatchers.items()),)
    assert _deployment(live, session, extra) == "49b639ebba91527700c3d06f954de4ba98b3a874e4ee38e628b7249fa7f1178b"
