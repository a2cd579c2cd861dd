"""The butterfly testbed (paper Fig. 6) and its packet-level runs.

Topology (O = Oregon, C = California, T = Texas, V = Virginia)::

          V1 (source, Virginia)
         /                    \\
       O1                      C1
      /   \\                  /   \\
    O2     T <-------------- +     C2
    ^      |                       ^
    |      V2 ---------------------+
    +------+

Nine directed links, all 35 Mbps — the classic coding-friendly
butterfly, scaled so the Ford–Fulkerson multicast capacity is 70 Mbps
(the paper measured 69.9 Mbps on its EC2 deployment).  The routing-only
(fractional tree packing) optimum on the same graph is 52.5 Mbps, so the
coding gap is visible exactly as in Fig. 7.  Delays are placed so the
unloaded RTTs land on Tab. II (≈91/77 ms direct, ≈166 ms relayed).

Three systems run over it:

- **NC** (:func:`run_butterfly_nc`) — RLNC source + recoding VNFs at
  O1/C1/T/V2 + decoding receivers, with windowed ARQ and NACK repair.
  The source floods coded packets at the conceptual-flow rates;
  drop-tail queues at over-driven links discard the excess, which
  coding makes harmless.
- **Non-NC** (:func:`run_butterfly_non_nc`) — coding disabled.  Two
  variants: ``mode="striped"`` (the strong baseline: generations
  striped over the tree-packing solution, relays duplicating along each
  generation's tree) and ``mode="flooding"`` (the paper's literal
  setup: same forwarding tables as NC, relays merely forward — heavy
  duplication, inherently loss-robust but bandwidth-hungry).
- **Direct TCP** (:func:`run_direct_tcp`) — AIMD transfer on the
  direct source→receiver Internet paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import networkx as nx

from repro.apps.file_transfer import (
    ACK_PORT,
    NcReceiverApp,
    StripedReceiverAdapter,
    StripedSourceApp,
    TreeForwarder,
)
from repro.baselines.tcp import TcpAimdSimulator
from repro.core.dataplane import (
    QUEUE_BYTES,
    Arq,
    LiveDeployment,
    RelayWiring,
    SessionWiring,
    bring_up,
    chain_wiring,
)
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import VnfRole
from repro.net.loss import LossModel
from repro.net.measurement import path_rtt
from repro.net.topology import LinkSpec, Topology
from repro.rlnc.redundancy import RedundancyPolicy
from repro.routing.maxflow import multicast_capacity
from repro.routing.packing import tree_packing_solution
from repro.util.rng import derive_rng

SOURCE = "V1"
RECEIVERS = ("O2", "C2")
RELAYS = ("O1", "C1", "T", "V2")
BOTTLENECK_LINK = ("T", "V2")  # where the paper injects loss (netem)

LINK_MBPS = 35.0

# The nine directed data-plane links (all LINK_MBPS) with their one-way
# propagation delays (ms), placed so unloaded RTTs match Tab. II: direct
# V1->O2 ≈ 90.9 ms RTT, V1->C2 ≈ 77.0 ms RTT, relayed ≈ 166 ms.
BUTTERFLY_DELAYS_MS = {
    ("V1", "O1"): 35.0,
    ("V1", "C1"): 31.0,
    ("O1", "O2"): 12.0,
    ("C1", "C2"): 11.0,
    ("O1", "T"): 18.0,
    ("C1", "T"): 22.0,
    ("T", "V2"): 17.0,
    ("V2", "O2"): 12.0,
    ("V2", "C2"): 11.0,
}
BUTTERFLY_LINKS = list(BUTTERFLY_DELAYS_MS)
BUTTERFLY_LINKS_MBPS = {edge: LINK_MBPS for edge in BUTTERFLY_LINKS}

# Direct Internet paths (capacity Mbps, one-way delay ms): long, thin,
# slightly lossy — the situation relaying is meant to escape.
DIRECT_LINKS = {
    ("V1", "O2"): (14.0, 45.2),
    ("V1", "C2"): (14.0, 38.3),
}
DIRECT_LOSS_RATE = 0.002

# Reverse control paths used by ACK/NACK traffic (receiver -> source).
CONTROL_PATHS = {"O2": ("O2", "O1", "V1"), "C2": ("C2", "C1", "V1")}

# The coding-VNF capacity used on the butterfly (Linode-class instance).
VNF_CODING_MBPS = 300.0

# Random streams (DESIGN §10): this alone keys the topology (links are
# its children), + ("vnf" | "source", node) the relays and the source.
STREAM = ("experiments.butterfly",)


def butterfly_graph() -> nx.DiGraph:
    """The butterfly as an attributed networkx graph (for optimizers)."""
    g = nx.DiGraph()
    for edge, cap in BUTTERFLY_LINKS_MBPS.items():
        g.add_edge(*edge, capacity_mbps=cap, delay_ms=BUTTERFLY_DELAYS_MS[edge])
    return g


def theoretical_capacity_mbps() -> float:
    """Ford–Fulkerson bound of the session (the paper's 69.9 Mbps)."""
    return multicast_capacity(butterfly_graph(), SOURCE, list(RECEIVERS))


def routing_only_capacity_mbps() -> float:
    """Fractional tree-packing optimum (what routing alone can reach)."""
    from repro.routing.packing import tree_packing_rate

    return tree_packing_rate(butterfly_graph(), SOURCE, list(RECEIVERS), relay_nodes=set(RELAYS))


DEFAULT_JITTER_S = 0.003  # Internet-realistic per-packet delay variation


def build_butterfly(
    loss_on_bottleneck: LossModel | None = None,
    include_direct_links: bool = False,
    jitter_s: float = DEFAULT_JITTER_S,
    seed: int = 1,
) -> Topology:
    """Instantiate the butterfly as a live simulated topology."""
    topo = Topology(rng=derive_rng(*STREAM, seed=seed))
    for name in (SOURCE, *RELAYS, *RECEIVERS):
        topo.add_node(name)
    for edge, cap in BUTTERFLY_LINKS_MBPS.items():
        loss = loss_on_bottleneck if edge == BOTTLENECK_LINK else None
        topo.add_link(
            LinkSpec(*edge, cap, BUTTERFLY_DELAYS_MS[edge], loss=loss, queue_bytes=QUEUE_BYTES, jitter_s=jitter_s)
        )
    if include_direct_links:
        for (u, v), (cap, delay) in DIRECT_LINKS.items():
            topo.add_link(LinkSpec(u, v, cap, delay, queue_bytes=QUEUE_BYTES))
            topo.add_link(LinkSpec(v, u, cap, delay, queue_bytes=QUEUE_BYTES))
    # Clean reverse control links (5 Mbps) for ACK/NACK traffic.
    for (u, v) in BUTTERFLY_LINKS_MBPS:
        topo.add_link(LinkSpec(v, u, 5.0, BUTTERFLY_DELAYS_MS[(u, v)], queue_bytes=QUEUE_BYTES))
    return topo


@dataclass
class ButterflyResult:
    """Outcome of one packet-level run."""

    throughput_mbps: dict = dataclass_field(default_factory=dict)   # receiver -> goodput
    series: dict = dataclass_field(default_factory=dict)            # receiver -> (times, rates)
    session_throughput_mbps: float = 0.0                            # min over receivers
    sent_generations: int = 0
    receivers: dict = dataclass_field(default_factory=dict)         # receiver -> app
    topology: Topology | None = None
    source: object = None


def _make_session(blocks_per_generation: int, buffer_generations: int, redundancy: RedundancyPolicy) -> MulticastSession:
    return MulticastSession(
        source=SOURCE,
        receivers=list(RECEIVERS),
        max_delay_ms=250.0,
        coding=CodingConfig(
            blocks_per_generation=blocks_per_generation,
            buffer_generations=buffer_generations,
            redundancy=redundancy,
        ),
    )


# Conceptual-flow link shares of the source at the 70 Mbps optimum.
SOURCE_SHARES = {"O1": LINK_MBPS, "C1": LINK_MBPS}


def _nc_source_shares(rate_mbps: float, blocks_per_generation: int, extra: int) -> dict:
    """Split the source's wire rate λ·(k+r)/k across the two branches.

    NC0 at the full 70 Mbps reduces to the static 35/35 allocation; with
    redundancy the wire rate grows by (k+r)/k, so λ must shrink for the
    same links — the bandwidth cost of robustness Fig. 8 quantifies.
    """
    per_branch = rate_mbps * (blocks_per_generation + extra) / blocks_per_generation / 2.0
    if per_branch > LINK_MBPS * 1.001:
        raise ValueError(
            f"rate {rate_mbps} Mbps with {extra} redundant packets needs {per_branch:.1f} Mbps "
            f"per branch, above the {LINK_MBPS} Mbps links"
        )
    return {"O1": per_branch, "C1": per_branch}


#: NC relay tables from the max-flow solution.  Preset data, not the
#: sorted LP lowering: V2 serves ``O2`` before ``C2``, and every relay
#: runs as the ``role`` the run asks for (all-RECODER under NC) — the
#: lowering's sorted hops and FORWARDER non-merge nodes would change
#: which recode draw goes to which receiver.
NC_NEXT_HOPS = {"O1": ("O2", "T"), "C1": ("C2", "T"), "T": ("V2",), "V2": ("O2", "C2")}


def butterfly_wiring(
    session: MulticastSession, rate_mbps: float, shares: dict, role: VnfRole = VnfRole.RECODER
) -> SessionWiring:
    """The butterfly's hand wiring at goodput ``rate_mbps``.

    Output shaping at the merge point T: it receives both branches —
    k + extra packets per generation — but its out-link T→V2 is
    allocated only half the session rate, so it skips the first k/2
    arrivals and emits one recode per arrival after that (k/2 + extra
    per generation at steady state).  The skip guarantees every emitted
    recode already mixes both branches (emitting on the earliest
    arrivals would push one branch's subspace downstream, useless to
    the receiver that hears that branch directly); leaving the emission
    count uncapped lets end-to-end repair packets pass through.  All
    other relays keep the paper's default one-out-per-in pipelining.

    A one-block generation cannot be split across branches: T forwards
    what it gets and the T->V2 link's drop-tail enforces the allocation
    (coding cannot help single-packet generations — one of the reasons
    Fig. 4 falls off at tiny generation sizes).
    """
    k = session.coding.blocks_per_generation
    relays = {name: RelayWiring(role, hops) for name, hops in NC_NEXT_HOPS.items()}
    if k > 1:
        relays["T"] = RelayWiring(role, NC_NEXT_HOPS["T"], {"V2": k // 2})
    return SessionWiring(
        session_id=session.session_id,
        relays=relays,
        source_shares=shares,
        control_paths=CONTROL_PATHS,
        lambda_mbps=rate_mbps,
    )


def run_butterfly_nc(
    duration_s: float = 3.0,
    rate_mbps: float = 70.0,
    blocks_per_generation: int = 4,
    buffer_generations: int = 1024,
    redundancy: RedundancyPolicy | None = None,
    loss_on_bottleneck: LossModel | None = None,
    payload_mode: str = "coefficients-only",
    warmup_s: float = 0.5,
    seed: int = 7,
    window_s: float = 0.25,
    window_generations: int | None = None,
    jitter_s: float = 0.0,
    vnf_coding_mbps: float = VNF_CODING_MBPS,
) -> ButterflyResult:
    """One NC run; returns per-receiver goodput after warm-up.

    ``window_generations`` enables the windowed-ARQ reliability layer
    (needed for the loss experiments); leaving it ``None`` runs the pure
    pipeline, fine on clean links.
    """
    redundancy = redundancy if redundancy is not None else RedundancyPolicy(0)
    topo = build_butterfly(loss_on_bottleneck=loss_on_bottleneck, jitter_s=jitter_s, seed=seed)
    session = _make_session(blocks_per_generation, buffer_generations, redundancy)

    shares = _nc_source_shares(rate_mbps, blocks_per_generation, redundancy.extra)
    live = bring_up(
        LiveDeployment(topo),
        session,
        butterfly_wiring(session, rate_mbps, shares),
        stream=STREAM,
        seed=seed,
        payload_mode=payload_mode,
        coding_mbps=vnf_coding_mbps,
        arq=Arq(window_generations) if window_generations is not None else None,
    )
    return _run(topo, *live.endpoints(session.session_id), warmup_s, duration_s, window_s)


def run_butterfly_non_nc(
    duration_s: float = 3.0,
    mode: str = "striped",
    loss_on_bottleneck: LossModel | None = None,
    warmup_s: float = 0.5,
    seed: int = 7,
    window_s: float = 0.25,
    window_generations: int | None = None,
) -> ButterflyResult:
    """Routing-only run.

    ``mode="striped"``: generations striped over the tree-packing
    solution (strong baseline; offered rate = the packing optimum).
    ``mode="flooding"``: NC forwarding tables with FORWARDER relays
    (the paper's literal Non-NC; offered rate = the duplication-limited
    sustainable rate, LINK_MBPS).
    """
    if mode not in ("striped", "flooding"):
        raise ValueError("mode must be 'striped' or 'flooding'")
    topo = build_butterfly(loss_on_bottleneck=loss_on_bottleneck, seed=seed)
    session = _make_session(4, 1024, RedundancyPolicy(0))

    if mode == "striped":
        # A different data plane (TreeForwarder / StripedSourceApp), wired here.
        solution = tree_packing_solution(butterfly_graph(), SOURCE, list(RECEIVERS), relay_nodes=set(RELAYS))
        trees = [(i, rate) for i, (_, rate) in enumerate(solution)]
        first_hops = {i: sorted(v for (u, v) in edges if u == SOURCE) for i, (edges, _) in enumerate(solution)}
        tree_hops: dict[str, dict] = {name: {} for name in RELAYS}
        for i, (edges, _) in enumerate(solution):
            for name in RELAYS:
                hops = sorted(v for (u, v) in edges if u == name)
                if hops:
                    tree_hops[name][i] = hops
        for name in RELAYS:
            topo.replace_node(TreeForwarder(name, topo.scheduler, tree_hops[name]))
        rate_mbps = 0.98 * sum(rate for _, rate in trees)  # just inside the optimum
        receivers = {}
        for name in RECEIVERS:
            app = NcReceiverApp(topo.get(name), session, payload_mode="coefficients-only")
            StripedReceiverAdapter(app)
            receivers[name] = app
        source = StripedSourceApp(
            topo.get(SOURCE),
            session,
            trees=trees,
            tree_first_hops=first_hops,
            data_rate_mbps=rate_mbps,
            payload_mode="coefficients-only",
            rng=derive_rng(*STREAM, "source", SOURCE, seed=seed),
        )
    else:
        # Flooding: the NC topology with coding switched off.
        live = bring_up(
            LiveDeployment(topo),
            session,
            # T->V2 must carry every block once: LINK_MBPS is the sustainable rate.
            butterfly_wiring(session, LINK_MBPS, SOURCE_SHARES, role=VnfRole.FORWARDER),
            stream=STREAM,
            seed=seed,
            coding_mbps=VNF_CODING_MBPS,
            arq=Arq(window_generations) if window_generations is not None else None,
            coded=False,
        )
        source, receivers = live.endpoints(session.session_id)
    return _run(topo, source, receivers, warmup_s, duration_s, window_s)


def run_direct_tcp(duration_s: float = 40.0, seed: int = 7) -> dict:
    """Direct TCP baseline: per-receiver AIMD mean throughput (Mbps)."""
    out = {}
    for (src, dst), (cap, delay_ms) in DIRECT_LINKS.items():
        rtt = 2 * delay_ms / 1e3
        sim = TcpAimdSimulator(capacity_mbps=cap, rtt_s=rtt, loss_rate=DIRECT_LOSS_RATE)
        out[dst] = sim.run(duration_s, derive_rng(*STREAM, "tcp", dst, seed=seed))["mean_mbps"]
    out["session"] = min(v for k, v in out.items() if k != "session")
    return out


def _run(topo, source, receivers, warmup_s, duration_s, window_s) -> ButterflyResult:
    source.start()
    topo.run(until=duration_s + warmup_s)
    result = ButterflyResult(
        topology=topo, receivers=receivers, sent_generations=source.sent_generations, source=source
    )
    for name, app in receivers.items():
        result.throughput_mbps[name] = app.goodput_mbps(start_s=warmup_s)
        result.series[name] = app.throughput_series(window_s, duration_s + warmup_s)
    result.session_throughput_mbps = min(result.throughput_mbps.values())
    return result


# -- Tab. II --------------------------------------------------------------------


def measure_delays(seed: int = 11) -> dict:
    """Tab. II: unloaded RTTs of direct and relayed paths, ± coding.

    Direct rows use ping-equivalent analytic RTTs; relayed rows send one
    generation through the live pipeline (with relays coding or merely
    forwarding) and time the first-generation ACK arrival back at the
    source — the paper's §V-B2 methodology.
    """
    out: dict = {}
    topo = build_butterfly(include_direct_links=True, seed=seed)
    for receiver in RECEIVERS:
        out[f"direct:{receiver}"] = path_rtt(topo, [SOURCE, receiver]) * 1e3

    relay_paths = {"O2": ["V1", "O1", "T", "V2", "O2"], "C2": ["V1", "C1", "T", "V2", "C2"]}
    for coding in (True, False):
        for receiver, relay_path in relay_paths.items():
            rtt = _relayed_generation_rtt(relay_path, coding, seed)
            label = "w_coding" if coding else "wo_coding"
            out[f"relayed:{receiver}:{label}"] = rtt * 1e3
    return out


def _relayed_generation_rtt(path: list, coding: bool, seed: int) -> float:
    """Send one generation along a relay chain; time until the ACK returns."""
    topo = build_butterfly(seed=seed)
    session = _make_session(4, 1024, RedundancyPolicy(0))
    role = VnfRole.RECODER if coding else VnfRole.FORWARDER
    live = bring_up(
        LiveDeployment(topo),
        session,
        chain_wiring(session, path, role, 5.0, {path[1]: 5.0}),  # a single unloaded generation
        stream=STREAM,
        seed=seed,
        coding_mbps=VNF_CODING_MBPS,
        arq=Arq(ack_immediately=True),
        total_generations=1,
    )
    source, receivers = live.endpoints(session.session_id)

    ack_time: dict = {}

    def _on_ack(dgram):
        message = dgram.payload
        if isinstance(message, tuple) and message[0] == "cum_ack" and message[3] >= 0:
            ack_time.setdefault("t", topo.scheduler.now)

    # The probe takes the ACK port over from the source.
    source.node.unlisten(ACK_PORT)
    source.node.listen(ACK_PORT, _on_ack)
    source.start()
    topo.run(until=5.0)
    if "t" not in ack_time:
        raise RuntimeError(f"no ACK received along {path}")
    assert receivers[path[-1]].completed, "generation must have decoded for the ACK to exist"
    return ack_time["t"] - (source.first_generation_sent_at or 0.0)
