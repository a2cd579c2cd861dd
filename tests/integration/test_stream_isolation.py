"""One private random stream per link, per coding VNF and per source.

The paper's coding functions are independent VMs, each running its own
RLNC instance; links lose packets on their own.  The experiment
builders therefore hand every component a stream derived by key from
the run's seed (DESIGN §10 "Random streams") — never one shared
``Generator``, and never two generators seeded with the same integer,
which read the same word sequence.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.vnf import CodingVnf
from repro.experiments.butterfly import run_butterfly_nc
from repro.experiments.failures import run_butterfly_failover
from repro.experiments.scenarios import IOT_RELAY_CHAIN, run_scenario
from repro.net.loss import BurstLoss
from repro.util.rng import child_rng, derive_rng

RNG_SCOPE = "experiments.butterfly"


def _butterfly(seed=7):
    return run_butterfly_nc(
        duration_s=0.2,
        warmup_s=0.05,
        loss_on_bottleneck=BurstLoss(0.1, correlation=0.25),
        jitter_s=0.001,
        window_generations=64,
        seed=seed,
    )


def _chain(seed=3):
    return run_scenario(IOT_RELAY_CHAIN, "adaptive", 0.15, duration_s=1.0, seed=seed)


def _failover(seed=7):
    return run_butterfly_failover(duration_s=1.3, seed=seed)


def streams(result):
    """label -> Generator for every link, coding VNF and the source."""
    topo = result.topology
    found = {f"link:{src}->{dst}": link._rng for (src, dst), link in topo.links.items()}
    found.update(
        {f"vnf:{name}": node._rng for name, node in topo.nodes.items() if isinstance(node, CodingVnf)}
    )
    found["source"] = result.source._rng
    return found


def state_key(rng):
    state = rng.bit_generator.state["state"]
    return (state["state"], state["inc"])


@pytest.mark.parametrize(
    "build", [_butterfly, _chain, _failover], ids=["butterfly-nc", "iot-relay-chain", "failover"]
)
class TestNoSharedStreams:
    def test_every_component_owns_its_generator(self, build):
        found = streams(build())
        assert sum(label.startswith("vnf:") for label in found) >= 3
        assert sum(label.startswith("link:") for label in found) >= 8
        for (a, rng_a), (b, rng_b) in itertools.combinations(found.items(), 2):
            assert rng_a is not rng_b, f"{a} and {b} share one Generator"
            assert rng_a.bit_generator is not rng_b.bit_generator
            # PCG64: equal (state, increment) would mean the same word
            # sequence from here on — what one shared seed used to give.
            assert state_key(rng_a) != state_key(rng_b), f"{a} and {b} are the same stream"

    def test_streams_are_keyed_by_seed(self, build):
        first, again, other = streams(build()), streams(build()), streams(build(seed=11))
        assert first.keys() == again.keys() == other.keys()
        for label in first:
            assert state_key(first[label]) == state_key(again[label])
            assert state_key(first[label]) != state_key(other[label])


class TestKeyTree:
    def test_same_key_same_stream(self):
        a = derive_rng(RNG_SCOPE, "vnf", "T", seed=7)
        b = derive_rng(RNG_SCOPE, "vnf", "T", seed=7)
        assert a is not b
        assert np.array_equal(a.bit_generator.random_raw(16), b.bit_generator.random_raw(16))

    @pytest.mark.parametrize(
        "other",
        [
            lambda: derive_rng(RNG_SCOPE, "vnf", "T", seed=8),
            lambda: derive_rng(RNG_SCOPE, "vnf", "V2", seed=7),
            lambda: derive_rng(RNG_SCOPE, "source", "T", seed=7),
            lambda: derive_rng(RNG_SCOPE, seed=7),
            lambda: child_rng(derive_rng(RNG_SCOPE, seed=7), "vnf", "T"),
        ],
        ids=["seed", "node", "role", "root", "link-child"],
    )
    def test_any_other_key_is_another_stream(self, other):
        base = derive_rng(RNG_SCOPE, "vnf", "T", seed=7).bit_generator.random_raw(16)
        assert not np.array_equal(base, other().bit_generator.random_raw(16))

    def test_link_streams_depend_on_seeding_and_endpoints_only(self):
        root = derive_rng(RNG_SCOPE, seed=7)
        first = child_rng(root, "T", "V2").bit_generator.random_raw(8)
        root.random(100)  # the parent's own draws do not move its children
        before = root.bit_generator.state
        child_rng(root, "O1", "T")  # nor does deriving siblings, in any order
        assert np.array_equal(child_rng(root, "T", "V2").bit_generator.random_raw(8), first)
        assert not np.array_equal(child_rng(root, "V2", "T").bit_generator.random_raw(8), first)
        assert root.bit_generator.state == before  # deriving leaves the parent untouched
        other_seed = child_rng(derive_rng(RNG_SCOPE, seed=8), "T", "V2")
        assert not np.array_equal(other_seed.bit_generator.random_raw(8), first)

    def test_a_handed_in_generator_still_gives_private_link_streams(self):
        # bench/ probes and unit tests pass one generator to Topology(rng=)
        # and to the VNF: the links must not read the VNF's words.
        from repro.net.topology import LinkSpec, Topology

        shared = np.random.default_rng(5)
        topo = Topology(rng=shared)
        for name in "abc":
            topo.add_node(name)
        links = [topo.add_link(LinkSpec(u, v, 10.0, 1.0)) for u, v in (("a", "b"), ("b", "c"), ("b", "a"))]
        generators = [shared] + [link._rng for link in links]
        assert len({id(g) for g in generators}) == 4
        assert len({state_key(g) for g in generators}) == 4


def _observables(result):
    """Every scalar field of a result record (counters, goodput, labels)."""
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return {name: value for name, value in values.items() if isinstance(value, (int, float, str))}


class TestSameSeedSameRun:
    def test_butterfly_result_is_reproducible(self):
        first, second = _butterfly(), _butterfly()
        assert first.sent_generations == second.sent_generations > 0
        assert first.throughput_mbps == second.throughput_mbps
        assert first.session_throughput_mbps == second.session_throughput_mbps
        for name in first.series:
            for a, b in zip(first.series[name], second.series[name]):
                assert np.array_equal(a, b)
        for key, link in first.topology.links.items():
            assert link.stats.as_dict() == second.topology.links[key].stats.as_dict()

    def test_scenario_result_is_reproducible(self):
        first, second = _observables(_chain()), _observables(_chain())
        assert first["decoded_generations"] > 0 and "goodput_mbps" in first
        assert first == second
        assert first != _observables(_chain(seed=4))
