#!/usr/bin/env python3
"""Loss-resilient live streaming: picking the redundancy level.

The paper's §V-B3 guidance: add a small number of extra coded packets
per generation on lossy paths, none on clean ones.  This example
streams live video (fixed rate, playout deadline) across a relay whose
egress link loses packets in bursts, sweeping the NC0/NC1/NC2
redundancy settings, and compares against the analytic recommendation
from the delivery-probability model.

Run:  python examples/loss_resilient_streaming.py     (~30 s)
"""

import numpy as np

from repro.apps.file_transfer import ControlRelay
from repro.apps.streaming import StreamingReceiver, StreamingSource
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import CodingVnf, VnfRole
from repro.net import LinkSpec, Topology
from repro.net.loss import BurstLoss
from repro.rlnc.redundancy import RedundancyPolicy, recommend_redundancy


def run_stream(extra: int, loss_p: float, seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    topo = Topology(rng=rng)
    topo.add_node("studio")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, payload_mode="coefficients-only")
    topo.add_node(relay)
    topo.add_node("viewer")
    loss = BurstLoss(loss_p, correlation=0.25) if loss_p else None
    topo.add_link(LinkSpec("studio", "relay", 30.0, 20.0))
    topo.add_link(LinkSpec("relay", "viewer", 30.0, 25.0, loss=loss))
    topo.add_link(LinkSpec("viewer", "relay", 5.0, 25.0))
    topo.add_link(LinkSpec("relay", "studio", 5.0, 20.0))

    session = MulticastSession(
        source="studio",
        receivers=["viewer"],
        max_delay_ms=150.0,
        coding=CodingConfig(redundancy=RedundancyPolicy(extra)),
    )
    relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
    relay.forwarding_table = ForwardingTable({session.session_id: ["viewer"]})
    ControlRelay(relay, "studio")

    k = session.coding.blocks_per_generation
    stream_rate = 10.0  # Mbps of video
    wire_rate = stream_rate * (k + extra) / k
    source = StreamingSource(
        topo.get("studio"),
        session,
        link_shares={"relay": wire_rate},
        stream_rate_mbps=stream_rate,
        payload_mode="coefficients-only",
        rng=rng,
    )
    receiver = StreamingReceiver(
        topo.get("viewer"),
        session,
        source,
        playout_delay_s=0.25,
        payload_mode="coefficients-only",
        ack_to="relay",
        stall_generations=8,
    )
    source.start()
    topo.run(until=6.0)
    return {
        "continuity": receiver.continuity(),
        "wire_mbps": wire_rate,
        "repairs": source.repair_packets,
    }


def main() -> None:
    loss_p = 0.08
    k = 4
    recommended = recommend_redundancy(loss_p, k, target_delivery=0.95)
    print(f"burst loss p={loss_p:.0%} on the egress link; "
          f"analytic recommendation: {recommended.name}\n")

    print(f"{'setting':<8} {'continuity':>11} {'wire rate':>10} {'repairs':>8}")
    results = {}
    for extra in (0, 1, 2):
        r = run_stream(extra, loss_p)
        results[extra] = r
        print(f"{'NC' + str(extra):<8} {r['continuity']:>10.1%} "
              f"{r['wire_mbps']:>9.1f}M {r['repairs']:>8}")

    clean = run_stream(0, 0.0)
    print(f"\nclean link, NC0: continuity {clean['continuity']:.1%} "
          f"(redundancy would be pure waste there)")
    best = max(results, key=lambda e: results[e]["continuity"])
    print(f"best setting under loss: NC{best} "
          f"(paper: 'a small number of extra coded packets ... in cases of high loss')")


if __name__ == "__main__":
    main()
