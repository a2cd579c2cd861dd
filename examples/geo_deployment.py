#!/usr/bin/env python3
"""Geo-distributed deployment: the controller's view of the system.

Builds the six-data-center North-America world of §V-C, registers
multicast sessions, and shows the control plane at work:

1. the controller solves problem (2) and routes conceptual flows;
2. VMs launch through the (simulated) EC2/Linode APIs, coding functions
   start, forwarding tables are pushed;
3. a receiver joins mid-flight (Alg. 3) and a data center's bandwidth
   is cut (Alg. 1) — watch the fleet scale.

Run:  python examples/geo_deployment.py
"""

import numpy as np

from repro.core import MulticastSession, ScalingConfig, ScalingEngine
from repro.experiments.dynamic import (
    Endpoint,
    _attach_endpoint,
    build_six_dc_graph,
    generate_sessions,
    make_controller,
)


def fleet_line(controller) -> str:
    counts = controller.current_vnf_counts()
    return ", ".join(f"{dc}:{n}" for dc, n in sorted(counts.items()) if n)


def main() -> None:
    rng = np.random.default_rng(42)
    specs = generate_sessions(3, rng, max_delay_ms=150.0)
    graph = build_six_dc_graph(specs, rng)
    controller = make_controller(graph, alpha=20.0, seed=42)
    engine = ScalingEngine(controller, ScalingConfig(tau1_s=120.0))
    clock = controller.scheduler

    print("== registering three multicast sessions ==")
    sessions = []
    for source, receivers, lmax in specs:
        session = MulticastSession(
            source=source.name, receivers=[r.name for r in receivers], max_delay_ms=lmax
        )
        plan = engine.on_session_join(session)
        sessions.append(session)
        print(f"  session {session.session_id}: {source.name} -> {len(receivers)} receivers, "
              f"rate {plan.lambdas[session.session_id]:.0f} Mbps")
    print(f"  VNF deployment: {fleet_line(controller)}")
    print(f"  control signals sent: "
          f"{len(controller.bus.sent_of_kind('NcVnfStart'))} NC_VNF_START, "
          f"{len(controller.bus.sent_of_kind('NcForwardTab'))} NC_FORWARD_TAB")

    clock.run(until=120.0)  # let the VMs boot
    print(f"\n== t=2 min: fleet running, total throughput "
          f"{controller.achieved_total_throughput_mbps():.0f} Mbps ==")

    print("\n== a new receiver joins session 1 (Alg. 3) ==")
    newcomer = Endpoint(name="late-joiner", region="georgia")
    _attach_endpoint(controller.graph, newcomer, rng, outbound=False)
    engine.on_receiver_join(sessions[0].session_id, newcomer.name)
    print(f"  session {sessions[0].session_id} now serves "
          f"{len(controller.sessions[sessions[0].session_id].receivers)} receivers "
          f"at {controller.lambdas[sessions[0].session_id]:.0f} Mbps")
    print(f"  VNF deployment: {fleet_line(controller)}")

    print("\n== a data center's bandwidth cap is halved (Alg. 1) ==")
    target = next(dc for dc, n in controller.required_vnf_counts().items() if n > 0)
    dc = controller.datacenters[target]
    new_in, new_out = dc.inbound_mbps / 2, dc.outbound_mbps / 2
    print(f"  cutting {target}: {dc.inbound_mbps:.0f} -> {new_in:.0f} Mbps per VNF")
    # Feed measurements until the ρ/τ threshold machine fires.
    fired = False
    while not fired:
        fired = engine.on_bandwidth_sample(target, new_in, new_out)
        clock.run(until=clock.now + 60.0)
    clock.run(until=clock.now + 60.0)
    print(f"  Alg. 1 fired after the τ1 hold: deployment now {fleet_line(controller)}")
    print(f"  total throughput: {controller.achieved_total_throughput_mbps():.0f} Mbps")

    print("\n== sessions end; resources recycled after the τ grace ==")
    for session in sessions:
        engine.on_session_quit(session.session_id)
    clock.run(until=clock.now + 700.0)
    alive = sum(controller.current_vnf_counts().values())
    print(f"  usable VNFs remaining: {alive}")
    for event in engine.events:
        print(f"  [t={event.time / 60.0:5.1f} min] {event.kind}: "
              f"{ {k: v for k, v in event.detail.items() if k != 'detail'} }")


if __name__ == "__main__":
    main()
