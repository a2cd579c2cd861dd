"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer ledger.

Pure data, importable without ``repro`` — the driver process validates
arguments and renders tables from it, the worker fills it in, and
``BENCHMARK.json`` is checked against it by ``bench/tests``.

Every run reports every metric: a metric that does not apply to a
workload (no simulator in ``codec-stream``, no packets in
``plane-churn-failover``) reads 0 in the per-layer ledger; end-to-end
metrics are all defined on all five workloads and are never 0.
"""

from __future__ import annotations

from dataclasses import dataclass

#: name -> why the workload exists (one line each; the long form is in README.md).
WORKLOADS: dict[str, str] = {
    "butterfly-clean": (
        "Paper-shape butterfly (4x1460, GF(2^8), NC0, 66 Mbps, ARQ window 512), clean links, 4-byte "
        "stand-in payloads: per-packet/per-event cost dominates, GF math does not"
    ),
    "butterfly-lossy-payload": (
        "Same butterfly with full 1460-byte payloads, NC1, 10% burst loss on T->V2 and 3 ms jitter: "
        "link RNG, redundant rows, NACK timers, repair encoders and real payload algebra"
    ),
    "iot-chain-adaptive": (
        "Four lossy hops, three recoding VNFs behind daemons on a signal bus, adaptive redundancy loop "
        "at 15% loss: the only workload running core.signals/adapt and multi-hop recoding"
    ),
    "plane-churn-failover": (
        "Sharded control plane (k=3) under Poisson join/leave churn with a primary crash every 20 sim-s: "
        "zero data packets, so it bypasses every data-plane optimisation"
    ),
    "codec-stream": (
        "No simulator: seeded bytes through segment/encode/wire/recode/decode/reassemble, compared "
        "byte for byte: bypasses event-core and VNF changes, targets kernel ones"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: End-to-end only: share of the parent's median by which the metric may worsen.
    bound: float | None = None
    #: Per-layer only: the module group measured and what it should move.
    layer: str = ""
    moves: str = ""
    #: Repeats exactly for a fixed seed and fixed work (--scale), so an
    #: A/A run or a simulator-speed-only change must leave it bit-identical.
    exact: bool = False


# Bounds are three times the worst quartile spread seen over ten runs per
# workload on the baseline container (README, "Baseline"): host times swing
# with the shared host even in reference seconds, memory grows with the work
# a time budget happens to fit, simulated delivery barely moves.
END_TO_END: tuple[Metric, ...] = (
    # Child start -> workload ready (imports, GF tables, topology/plane
    # construction), median over several fresh children.
    Metric("setup_s", "s", "lower", 0.25),
    # Source packets decoded at every receiver (data-plane workloads) or
    # join/leave operations that reached a verdict (plane) per second.
    Metric("ops_per_s", "1/s", "higher", 0.25),
    # Host microseconds per operation, median: inside one plane.submit for
    # the plane, per source packet over timed chunks elsewhere.
    Metric("op_host_us_p50", "us", "lower", 0.25),
    # The worker's ru_maxrss once a third of a --scale 1 run's chunks are
    # done: a fixed amount of work, whatever the time budget fits.
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    # Useful work delivered over work offered: simulated goodput after
    # warm-up over the configured source rate (data plane), admitted joins
    # over submitted (plane), byte-exact output over input (codec).
    Metric("delivered_ratio", "ratio", "higher", 0.05),
)

_SRC_PKTS = "ops_per_s on codec-stream and both butterflies"


def _probe(name: str, layer: str, moves: str, unit: str = "ns") -> Metric:
    return Metric(name, unit, "lower", layer=layer, moves=moves)


def _exact(name: str, layer: str, moves: str, better: str = "lower", unit: str = "count") -> Metric:
    """A work counter or simulated metric: repeats bit for bit under fixed work."""
    return Metric(name, unit, better, layer=layer, moves=moves, exact=True)


#: Layers whose self time the traced run reports (module groups; see trace.LAYERS).
SHARE_LAYERS: tuple[str, ...] = (
    "gf",
    "rlnc",
    "wire",
    "net.events",
    "net.link",
    "core.vnf",
    "apps",
    "core.signals",
    "adapt",
    "lp",
    "fleet",
    "shard",
    "other",
)

PER_LAYER: tuple[Metric, ...] = (
    # -- gf -------------------------------------------------------------
    _probe("gf.matmul_ns_per_pkt.k4", "gf", "ops_per_s on codec-stream; a little on butterfly-lossy-payload"),
    _probe("gf.matmul_ns_per_pkt.k32", "gf", "ops_per_s on codec-stream"),
    _probe("gf.linear_combination_ns.k4", "gf", "reference oracle; nothing on the fast path"),
    _probe("gf.random_elements_ns.n4", "gf", "ops_per_s on both butterflies (per-call overhead)"),
    _probe("gf.inverse_ns.k32", "gf", "nothing end to end (decode uses progressive elimination)"),
    # -- rlnc -----------------------------------------------------------
    _probe("rlnc.encode_ns_per_pkt.k4", "rlnc", _SRC_PKTS),
    _probe("rlnc.encode_ns_per_pkt.k32", "rlnc", "ops_per_s on codec-stream"),
    _probe("rlnc.recode_ns_per_pkt.k4", "rlnc", _SRC_PKTS),
    _probe("rlnc.recode_ns_per_pkt.k32", "rlnc", "ops_per_s on codec-stream"),
    _probe("rlnc.recode_ns_per_pkt.k4_b4", "rlnc", "ops_per_s on butterfly-clean and iot-chain-adaptive"),
    _probe("rlnc.decode_ns_per_gen.k4", "rlnc", _SRC_PKTS),
    _probe("rlnc.decode_ns_per_gen.k32", "rlnc", "ops_per_s on codec-stream"),
    _probe("rlnc.decode_add_ns.k4_b4", "rlnc", "ops_per_s on butterfly-clean (the simulator's hot case)"),
    _exact("rlnc.innovative_ratio", "rlnc", "delivered_ratio on the lossy workloads", "higher", "ratio"),
    # -- wire (rlnc.header, rlnc.packet) --------------------------------
    _probe("wire.encode_ns.k4", "wire", "ops_per_s on codec-stream"),
    _probe("wire.decode_ns.k4", "wire", "ops_per_s on codec-stream"),
    _probe("wire.verify_ns.k4", "wire", "ops_per_s on both butterflies via verify()"),
    # -- net.events -----------------------------------------------------
    _probe("net.events.schedule_run_ns_per_event", "net.events", "ops_per_s on butterfly-clean; codec-stream unchanged"),
    _probe("net.events.timer_churn_ns_per_event", "net.events", "ops_per_s on iot-chain-adaptive and the plane"),
    _exact("net.events.processed", "net.events", "identical under any simulator-speed change"),
    Metric("net.events.host_us_per_event", "us", "lower", layer="net.events", moves="ops_per_s on the simulated workloads"),
    # -- net.link (link, loss, node, packet, nic) -----------------------
    _probe("net.link.send_deliver_ns_per_pkt.clean", "net.link", "ops_per_s on butterfly-clean"),
    _probe("net.link.send_deliver_ns_per_pkt.burstloss_jitter", "net.link", "ops_per_s on butterfly-lossy-payload"),
    _exact("net.link.sent_pkts", "net.link", "identical under batching"),
    _exact("net.link.dropped_queue", "net.link", "identical under batching"),
    _exact("net.link.dropped_loss", "net.link", "identical under batching"),
    # -- core.vnf (+ net.buffer, core.forwarding) -----------------------
    _probe("core.vnf.forward_ns_per_pkt", "core.vnf", "bare forwarding floor; ops_per_s on butterfly-clean"),
    _probe("core.vnf.recode_forward_ns_per_pkt", "core.vnf", "ops_per_s on butterfly-clean and iot-chain-adaptive"),
    _probe("core.vnf.decode_ns_per_pkt", "core.vnf", "nothing in these workloads (receivers decode in apps)"),
    _exact("core.vnf.processed_pkts", "core.vnf", "identical under any simulator-speed change"),
    _exact("core.vnf.emitted_pkts", "core.vnf", "identical under any simulator-speed change"),
    # -- apps -----------------------------------------------------------
    _exact("apps.nacks_sent", "apps", "session.redundancy_tax, delivered_ratio on the lossy workloads"),
    _exact("apps.repair_pkts", "apps", "session.redundancy_tax, delivered_ratio on the lossy workloads"),
    # -- core.signals + adapt -------------------------------------------
    _probe("core.signals.bus_send_deliver_ns", "core.signals", "ops_per_s on iot-chain-adaptive and the plane"),
    _probe("adapt.report_to_retune_ns", "adapt", "ops_per_s on iot-chain-adaptive only"),
    _exact("adapt.retunes_applied", "adapt", "delivered_ratio on iot-chain-adaptive only", "higher"),
    # -- lp + routing ---------------------------------------------------
    _probe("lp.simplex_cold_ns", "lp", "ops_per_s, op_host_us_p50 on plane-churn-failover"),
    _probe("lp.simplex_warm_ns", "lp", "ops_per_s, op_host_us_p50 on plane-churn-failover"),
    _probe("lp.highs_solve_ns", "lp", "nothing in these workloads (paper-scale deployment solve)"),
    _probe("routing.paths_ns", "routing", "nothing in these workloads (fleet uses precomputed overlay paths)"),
    # -- fleet ----------------------------------------------------------
    _probe("fleet.admit_ns_p50", "fleet", "ops_per_s, op_host_us_p50 on plane-churn-failover"),
    _probe("fleet.replan_ns_p50", "fleet", "nothing in these workloads (replans are not issued)"),
    _probe("fleet.replan_ns_p99", "fleet", "nothing in these workloads (replans are not issued)"),
    _probe("fleet.depart_ns_p50", "fleet", "ops_per_s on plane-churn-failover"),
    _exact("fleet.lp_solves", "fleet", "ops_per_s on plane-churn-failover"),
    _exact("fleet.warm_hit_ratio", "fleet", "ops_per_s on plane-churn-failover", "higher", "ratio"),
    # -- shard ----------------------------------------------------------
    _probe("shard.place_controllers_ns.k3", "shard", "setup_s on plane-churn-failover"),
    _probe("shard.takeover_host_ms", "shard", "ops_per_s on plane-churn-failover", unit="ms"),
    _exact("shard.retries", "shard", "moves only with retry/backoff protocol changes"),
    Metric("shard.join_host_us_p99", "us", "lower", layer="shard", moves="op_host_us_p50 on plane-churn-failover"),
    _exact("shard.takeover_mttr_sim_s", "shard", "moves only with heartbeat/lease protocol changes, never host speed", unit="s"),
    # -- whole session (simulated; what an operator sees per session) ----
    _exact("session.goodput_mbps", "session", "delivered_ratio; unchanged by simulator-speed work", "higher", "Mbps"),
    _exact("session.redundancy_tax", "session", "falls when repair or redundancy gets cheaper", unit="ratio"),
    _exact("session.decode_gap_sim_ms_p99", "session", "falls when repair latency falls", unit="ms"),
    # -- traced run -----------------------------------------------------
    *(
        Metric(
            f"{layer}.self_share",
            "ratio",
            "lower",
            layer=layer,
            moves="a faster layer saves at most this share of ops_per_s on this workload",
        )
        for layer in SHARE_LAYERS
    ),
    Metric("trace.overhead_ratio", "ratio", "lower", layer="trace", moves="nothing; traced over untraced host time per op"),
)
