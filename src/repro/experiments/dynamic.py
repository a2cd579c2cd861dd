"""The six-data-center dynamic scenario (paper §V-C, Fig. 10–13).

The paper rents VMs in six North-American data centers — EC2 Oregon,
California, Virginia and Linode Texas, Georgia, New Jersey — and runs
six multicast sessions with churn over them.  This module builds the
flow-level equivalent:

- a geography: inter-region delays (scaled from typical US RTTs so the
  75–200 ms L^max sweep of Fig. 12 is meaningful), heterogeneous link
  capacities drawn from a seeded RNG, thin direct source→receiver paths
  (the situation relaying escapes);
- session generation matching §V-C ("each with a uniformly random
  number of receivers in [1, 4]", endpoints uniform over the regions);
- :class:`DynamicScenario` — the Fig. 10 event timeline (sessions
  arriving every 10 min then leaving, receivers joining then leaving)
  and the Fig. 11 bandwidth-cut schedule, sampling total multicast
  throughput and the VNF count every minute;
- the L^max (Fig. 12) and α (Fig. 13) sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import networkx as nx
import numpy as np

from repro.cloud.datacenter import DataCenter
from repro.cloud.provider import CloudProvider, LaunchLatency
from repro.core.controller import Controller
from repro.core.deployment import DataCenterSpec
from repro.core.scaling import ScalingConfig, ScalingEngine
from repro.core.session import MulticastSession
from repro.net.events import EventScheduler
from repro.util.rng import derive_rng

SIX_DATACENTERS = ["oregon", "california", "virginia", "texas", "georgia", "newjersey"]
EC2_REGIONS = {"oregon", "california", "virginia"}

# One-way inter-region delays (ms), scaled ×1.5 from typical US figures
# so multi-hop relay paths span the paper's 75–200 ms L^max range.
_REGION_DELAY_MS = {
    ("oregon", "california"): 12.0,
    ("oregon", "virginia"): 52.0,
    ("oregon", "texas"): 33.0,
    ("oregon", "georgia"): 45.0,
    ("oregon", "newjersey"): 55.0,
    ("california", "virginia"): 48.0,
    ("california", "texas"): 27.0,
    ("california", "georgia"): 40.0,
    ("california", "newjersey"): 52.0,
    ("virginia", "texas"): 25.0,
    ("virginia", "georgia"): 12.0,
    ("virginia", "newjersey"): 8.0,
    ("texas", "georgia"): 18.0,
    ("texas", "newjersey"): 30.0,
    ("georgia", "newjersey"): 15.0,
}
ENDPOINT_ACCESS_DELAY_MS = 6.0


def region_delay_ms(a: str, b: str) -> float:
    if a == b:
        return 2.0
    return _REGION_DELAY_MS.get((a, b)) or _REGION_DELAY_MS[(b, a)]


@dataclass
class Endpoint:
    """A source or receiver machine living in one region."""

    name: str
    region: str


def generate_sessions(
    count: int,
    rng: np.random.Generator,
    max_delay_ms: float = 150.0,
    receivers_range: tuple = (1, 4),
) -> list:
    """§V-C workload: sessions with uniform receivers over the regions."""
    sessions = []
    for i in range(count):
        source_region = SIX_DATACENTERS[rng.integers(0, len(SIX_DATACENTERS))]
        n_receivers = int(rng.integers(receivers_range[0], receivers_range[1] + 1))
        source = Endpoint(name=f"src{i}", region=source_region)
        receivers = [
            Endpoint(
                name=f"dst{i}.{k}",
                region=SIX_DATACENTERS[rng.integers(0, len(SIX_DATACENTERS))],
            )
            for k in range(n_receivers)
        ]
        sessions.append((source, receivers, max_delay_ms))
    return sessions


# Link capacities (Mbps) are drawn uniformly from these ranges.
INTERDC_MBPS_RANGE = (50.0, 150.0)
UPLINK_MBPS_RANGE = (40.0, 120.0)
DIRECT_MBPS_RANGE = (10.0, 40.0)


def build_six_dc_graph(session_specs: list, rng: np.random.Generator) -> nx.DiGraph:
    """The controller's network view for a set of sessions.

    Nodes: six data centers (full mesh), plus one node per endpoint with
    links to every data center and a thin direct path from each source
    to each of its receivers.
    """
    g = nx.DiGraph()
    g.add_nodes_from(SIX_DATACENTERS)
    for a in SIX_DATACENTERS:
        for b in SIX_DATACENTERS:
            if a != b:
                cap = float(rng.uniform(*INTERDC_MBPS_RANGE))
                g.add_edge(a, b, capacity_mbps=cap, delay_ms=region_delay_ms(a, b))
    for source, receivers, _ in session_specs:
        _attach_endpoint(g, source, rng, outbound=True)
        for receiver in receivers:
            _attach_endpoint(g, receiver, rng, outbound=False)
            if not g.has_edge(source.name, receiver.name):
                g.add_edge(
                    source.name,
                    receiver.name,
                    capacity_mbps=float(rng.uniform(*DIRECT_MBPS_RANGE)),
                    delay_ms=region_delay_ms(source.region, receiver.region) + 2 * ENDPOINT_ACCESS_DELAY_MS,
                )
    return g


ACCESS_DCS_PER_ENDPOINT = 3


def _attach_endpoint(g: nx.DiGraph, endpoint: Endpoint, rng, outbound: bool) -> None:
    """Connect an endpoint to its nearest data centers.

    Only the :data:`ACCESS_DCS_PER_ENDPOINT` closest regions get access
    links: a receiver's achievable rate is then genuinely limited by
    which of those paths fit inside L^max, which is what the Fig. 12
    sweep measures.
    """
    if endpoint.name in g:
        return
    g.add_node(endpoint.name)
    nearest = sorted(SIX_DATACENTERS, key=lambda dc: region_delay_ms(endpoint.region, dc))
    for dc in nearest[:ACCESS_DCS_PER_ENDPOINT]:
        cap = float(rng.uniform(*UPLINK_MBPS_RANGE))
        delay = region_delay_ms(endpoint.region, dc) + ENDPOINT_ACCESS_DELAY_MS
        if outbound:
            g.add_edge(endpoint.name, dc, capacity_mbps=cap, delay_ms=delay)
        else:
            g.add_edge(dc, endpoint.name, capacity_mbps=cap, delay_ms=delay)


def datacenter_specs() -> list:
    """Per-VNF caps sized so VNF capacity is the scarce resource.

    The paper runs 10–24 VNFs for 3–6 sessions (Fig. 10/13): per-VNF
    capacity must be comparable to a session's rate, so scaling decisions
    (and the α trade-off) operate at the granularity the figures show.
    """
    return [DataCenterSpec(name, 250.0, 250.0, 200.0) for name in SIX_DATACENTERS]


def make_controller(
    graph: nx.DiGraph,
    scheduler: EventScheduler | None = None,
    alpha: float = 20.0,
    grace_tau_s: float = 600.0,
    with_providers: bool = True,
    seed: int = 3,
) -> Controller:
    """A controller over the six-DC world, with simulated cloud providers."""
    scheduler = scheduler if scheduler is not None else EventScheduler()
    providers = {}
    if with_providers:
        for name in SIX_DATACENTERS:
            latency = LaunchLatency(mean_s=35.0) if name in EC2_REGIONS else LaunchLatency(mean_s=48.0)
            providers[name] = CloudProvider(
                f"{'ec2' if name in EC2_REGIONS else 'linode'}-{name}",
                scheduler,
                [DataCenter(name)],
                launch_latency=latency,
                rng=derive_rng("experiments.dynamic", "provider", name, seed=seed),
            )
    return Controller(
        graph,
        datacenter_specs(),
        scheduler,
        alpha=alpha,
        providers=providers,
        grace_tau_s=grace_tau_s,
        source_outbound_mbps=400.0,
        receiver_inbound_mbps=400.0,
    )


def _make_session(spec, coding=None) -> MulticastSession:
    source, receivers, max_delay_ms = spec
    kwargs = {} if coding is None else {"coding": coding}
    return MulticastSession(
        source=source.name,
        receivers=[r.name for r in receivers],
        max_delay_ms=max_delay_ms,
        **kwargs,
    )


@dataclass
class ScenarioSample:
    """One point of the Fig. 10/11 time series."""

    minute: float
    total_throughput_mbps: float
    total_vnfs: int
    active_sessions: int


@dataclass
class DynamicScenario:
    """Driver for the Fig. 10 and Fig. 11 timelines."""

    alpha: float = 20.0
    max_delay_ms: float = 150.0
    seed: int = 3
    grace_tau_s: float = 600.0
    scaling: ScalingConfig = dataclass_field(
        default_factory=lambda: ScalingConfig(tau1_s=600.0, tau2_s=600.0, idle_hold_s=600.0)
    )

    def __post_init__(self):
        self.rng = derive_rng("experiments.dynamic", "world", seed=self.seed)
        self.samples: list[ScenarioSample] = []
        # Ground-truth per-DC caps; the controller's belief lags behind
        # by the measurement interval plus the Alg. 1 hold time τ1.
        self._actual_caps: dict = {}

    # -- shared scaffolding ------------------------------------------------

    def _setup(self, n_sessions: int) -> tuple:
        specs = generate_sessions(n_sessions, self.rng, self.max_delay_ms)
        graph = build_six_dc_graph(specs, self.rng)
        controller = make_controller(graph, alpha=self.alpha, grace_tau_s=self.grace_tau_s, seed=self.seed)
        engine = ScalingEngine(controller, self.scaling)
        return specs, controller, engine

    def _sample(self, controller: Controller) -> None:
        self.samples.append(
            ScenarioSample(
                minute=controller.scheduler.now / 60.0,
                total_throughput_mbps=controller.achieved_total_throughput_mbps(self._actual_caps),
                total_vnfs=controller.total_vnfs(),
                active_sessions=len(controller.sessions),
            )
        )

    def series(self) -> dict:
        return {
            "minutes": [s.minute for s in self.samples],
            "throughput_mbps": [s.total_throughput_mbps for s in self.samples],
            "vnfs": [s.total_vnfs for s in self.samples],
            "sessions": [s.active_sessions for s in self.samples],
        }

    # -- Fig. 10: session / receiver churn --------------------------------------

    def run_churn(self, sample_interval_min: float = 1.0) -> dict:
        """3→6→3 sessions; receiver joins at 70/80/90 min, leaves at 100/110/120."""
        specs, controller, engine = self._setup(6)
        scheduler = controller.scheduler
        sessions = [_make_session(spec) for spec in specs]

        # Initial three sessions at t=0.
        for session in sessions[:3]:
            engine.on_session_join(session)
        # One more at 10, 20, 30 minutes.
        for j, session in enumerate(sessions[3:6], start=1):
            scheduler.schedule(j * 600.0, engine.on_session_join, session)
        # One leaves at 40, 50, 60 minutes (the later arrivals leave first).
        for j, session in enumerate(sessions[3:6], start=1):
            scheduler.schedule((3 + j) * 600.0, engine.on_session_quit, session.session_id)

        # Receiver churn on the surviving sessions: joins at 70/80/90 min,
        # the same receivers leave at 100/110/120 min.
        joined: list = []
        for j, session in enumerate(sessions[:3], start=1):
            region = SIX_DATACENTERS[int(self.rng.integers(0, len(SIX_DATACENTERS)))]
            newcomer = Endpoint(name=f"late{j}", region=region)
            _attach_endpoint(controller.graph, newcomer, self.rng, outbound=False)
            joined.append((session.session_id, newcomer.name))
            scheduler.schedule((6 + j) * 600.0, engine.on_receiver_join, session.session_id, newcomer.name)
        for j, (sid, receiver) in enumerate(joined, start=1):
            scheduler.schedule((9 + j) * 600.0, engine.on_receiver_quit, sid, receiver)

        self._run_sampled(controller, duration_min=121.0, interval_min=sample_interval_min)
        return self.series()

    # -- Fig. 11: bandwidth variation -----------------------------------------------

    def run_bandwidth_cuts(self, duration_min: float = 70.0, cut_interval_min: float = 20.0) -> dict:
        """Six sessions; halve a used data center's caps every 20 minutes."""
        specs, controller, engine = self._setup(6)
        scheduler = controller.scheduler
        for spec in specs:
            engine.on_session_join(_make_session(spec))

        def _cut():
            used = [dc for dc, n in controller.required_vnf_counts().items() if n > 0]
            if not used:
                return
            target = used[int(self.rng.integers(0, len(used)))]
            dc = controller.datacenters[target]
            new_in, new_out = dc.inbound_mbps / 2.0, dc.outbound_mbps / 2.0
            # The data plane feels the cut immediately; the controller
            # only learns of it through the periodic measurements, and
            # Alg. 1 additionally waits out τ1 before reacting.
            self._actual_caps[target] = (new_in, new_out)
            for k in range(int(self.scaling.tau1_s / 60.0) + 2):
                scheduler.schedule(k * 60.0, engine.on_bandwidth_sample, target, new_in, new_out)

        first_cut_s = 600.0
        t = first_cut_s
        while t < duration_min * 60.0:
            scheduler.schedule(t, _cut)
            t += cut_interval_min * 60.0

        self._run_sampled(controller, duration_min=duration_min, interval_min=1.0)
        return self.series()

    def _run_sampled(self, controller: Controller, duration_min: float, interval_min: float) -> None:
        scheduler = controller.scheduler
        t = 0.0
        while t <= duration_min * 60.0 + 1e-9:
            scheduler.schedule_at(t, self._sample, controller)
            t += interval_min * 60.0
        scheduler.run(until=duration_min * 60.0 + 1.0)


# -- Fig. 12: L^max sweep ---------------------------------------------------------

SWEEP_SESSIONS = 6  # §V-C3 retains six sessions for both sweeps


def lmax_sweep(lmax_values_ms: list, seed: int = 3) -> dict:
    """Total throughput as the delay tolerance grows (scaling disabled).

    The same sessions and the same graph are re-solved per L^max, as in
    §V-C3 ("retaining six sessions ... disabling the scaling algorithm").
    """
    rng = derive_rng("experiments.dynamic", "world", seed=seed)
    specs = generate_sessions(SWEEP_SESSIONS, rng, max_delay_ms=max(lmax_values_ms))
    graph = build_six_dc_graph(specs, rng)
    out = {"lmax_ms": [], "throughput_mbps": [], "vnfs": []}
    for lmax in lmax_values_ms:
        controller = make_controller(graph.copy(), with_providers=False, seed=seed)
        for source, receivers, _ in specs:
            session = MulticastSession(
                source=source.name, receivers=[r.name for r in receivers], max_delay_ms=lmax
            )
            controller.sessions[session.session_id] = session
        controller.resolve_all(reconcile=False)
        out["lmax_ms"].append(lmax)
        out["throughput_mbps"].append(controller.total_throughput_mbps())
        out["vnfs"].append(sum(controller.required_vnf_counts().values()))
    return out


# -- Fig. 13: α sweep ----------------------------------------------------------------


def alpha_sweep(alpha_values: list, seed: int = 3) -> dict:
    """Throughput and VNF count as the cost factor α grows."""
    rng = derive_rng("experiments.dynamic", "world", seed=seed)
    specs = generate_sessions(SWEEP_SESSIONS, rng, max_delay_ms=150.0)
    graph = build_six_dc_graph(specs, rng)
    out = {"alpha": [], "throughput_mbps": [], "vnfs": []}
    for alpha in alpha_values:
        controller = make_controller(graph.copy(), alpha=alpha, with_providers=False, seed=seed)
        for spec in specs:
            session = _make_session(spec)
            controller.sessions[session.session_id] = session
        controller.resolve_all(reconcile=False)
        out["alpha"].append(alpha)
        out["throughput_mbps"].append(controller.total_throughput_mbps())
        out["vnfs"].append(sum(controller.required_vnf_counts().values()))
    return out
