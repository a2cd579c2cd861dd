#!/usr/bin/env python3
"""From the optimizer's plan to live packets, automatically.

The controller's output — a :class:`DeploymentPlan` with VNF counts and
conceptual flows — is all the information the data plane needs.
``build_data_plane`` instantiates it: coding VNFs (with dispatchers
where a data center runs several instances), roles chosen per the paper
("direct forwarding is sufficient" at non-merge relays), output shaping
at merge points, forwarding tables from f_m(e), and paced source apps.

Here we solve the butterfly twice — once with roomy VNFs, once with
tiny ones that force multi-instance data centers — and verify the
packet level delivers what the LP promised.

Run:  python examples/plan_to_packets.py     (~15 s)
"""

from repro.core import MulticastSession
from repro.core.dataplane import build_data_plane
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.experiments.butterfly import butterfly_graph

RELAYS = ["O1", "C1", "T", "V2"]


def run_case(label: str, per_vnf_mbps: float) -> None:
    graph = butterfly_graph()
    problem = DeploymentProblem(
        graph,
        [DataCenterSpec(n, per_vnf_mbps, per_vnf_mbps, per_vnf_mbps) for n in RELAYS],
        alpha=0.1,
    )
    session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
    plan = problem.solve([problem.build_demand(session)])
    live = build_data_plane(plan, graph, [session], rate_fraction=0.95)
    live.start()
    live.run(2.0)
    measured = live.session_throughput_mbps(session.session_id, start_s=0.5)

    fleet = ", ".join(f"{dc}x{n}" for dc, n in sorted(plan.vnf_counts.items()) if n)
    roles = {
        name: vnfs[0].roles[session.session_id].value for name, vnfs in sorted(live.vnfs.items())
    }
    print(f"== {label} (C(v) = {per_vnf_mbps:.0f} Mbps per VNF) ==")
    print(f"  plan: lambda = {plan.lambdas[session.session_id]:.1f} Mbps, fleet = {fleet}")
    print(f"  roles: {roles}")
    if live.dispatchers:
        print(f"  dispatchers at: {sorted(live.dispatchers)} "
              f"(generation-keyed spreading across instances)")
    print(f"  measured at the packet level: {measured:.1f} Mbps "
          f"({measured / (plan.lambdas[session.session_id] * 0.95):.0%} of the offered rate)\n")


def main() -> None:
    run_case("roomy VNFs: one instance per data center", 900.0)
    run_case("tiny VNFs: data centers need several instances", 40.0)


if __name__ == "__main__":
    main()
