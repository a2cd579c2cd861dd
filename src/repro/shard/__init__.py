"""Sharded controller plane over the OS3E WAN (DESIGN.md §14).

One central controller is the paper's design and the availability
ceiling: every session dies with it, and until PR 8 `FaultKind` had no
way to even crash it.  This package partitions the fleet across *k*
regional controller shards placed by weighted-graph closeness over the
OS3E latency map, gives each shard its own SignalBus domain, heartbeat
monitor and SurplusIndex slice, and pairs every primary with a warm
standby that takes over through a deterministic fenced lease when the
primary misses heartbeats.

Modules
=======

``placement``   greedy k-median controller placement (latency = 1 /
                closeness centrality) and the city → shard map
``lease``       the monotonically fenced shard lease
``controller``  one shard: primary + standby replicas, failure
                detector, replication log, takeover, config re-push
``plane``       the front door: session homing, retry/backoff
                admission, cross-shard lease announcements
``soak``        seeded controller-crash chaos scenario with SHA-256
                replay fingerprints (``python -m repro.soak shard``)
"""

from repro.shard.controller import ControllerReplica, ShardConfigStore, ShardController
from repro.shard.lease import ShardLease
from repro.shard.placement import ShardMap, place_controllers
from repro.shard.plane import CrossShardChannel, ShardedControlPlane

__all__ = [
    "ControllerReplica",
    "CrossShardChannel",
    "ShardConfigStore",
    "ShardController",
    "ShardLease",
    "ShardMap",
    "ShardedControlPlane",
    "place_controllers",
]
