"""The benchmark's ``plane-churn-failover`` recipe, for tests that pin it.

A 3-shard plane over the eight soak PoPs (10 Gbps VNFs unless asked
otherwise; every join must be admitted), one seeded Poisson churn segment
per 20 sim-s chunk, and one primary crash five seconds into each chunk,
shards taking turns; the crashed replica comes back ten seconds later as
the standby.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import fleet_of
from repro.fleet.soak import SOAK_DC_CITIES
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane

CHUNK_SIM_S = 20.0


@dataclass
class ChurnedPlane:
    plane: ShardedControlPlane
    joins: int = 0
    #: (chunk, shard, PoP, forwarding table) after every chunk.
    tables: list[tuple[int, str, str, str]] = field(default_factory=list)

    def decision_digest(self) -> str:
        """SHA-256 over what the plane *decided*, λ on the 1e-6 fingerprint grid.

        Every verdict, every PoP table after every chunk, each shard's final
        index, the retry count and every takeover — and nothing about what a
        solve cost (``warm_started``, pivots, bases).  The quantiser is
        spelled out here, not imported: the digest was recorded on a tree
        that did not have one.
        """
        plane = self.plane
        digest = hashlib.sha256()
        for v in plane.verdicts:
            decided = (
                v.session_id, v.status.value, round(v.lambda_mbps, 6) + 0.0, v.lp_solves, v.vnfs_launched, v.epoch
            )
            digest.update(repr(decided).encode())
        digest.update(repr(self.tables).encode())
        for shard_id in sorted(plane.shards):
            shard = plane.shards[shard_id]
            digest.update(repr(shard.manager.index.canonical()).encode())
            digest.update(repr([(t.fence, t.successor, t.deposed, t.mttr_s) for t in shard.takeovers]).encode())
        digest.update(repr((plane.stats.retries, plane.takeovers())).encode())
        return digest.hexdigest()


def drive_churn_recipe(
    seed: int,
    chunks: int,
    vnf_gbps: float = 10.0,
    after_chunk: Callable[[int, ShardedControlPlane], None] | None = None,
) -> ChurnedPlane:
    """``after_chunk(0, plane)`` runs before the first chunk, ``(n, plane)`` after the n-th."""
    scheduler = EventScheduler()
    mbps = 1_000.0 * vnf_gbps
    plane = ShardedControlPlane(
        3,
        fleet_of(SOAK_DC_CITIES[:8], inbound_mbps=mbps, outbound_mbps=mbps, coding_mbps=0.9 * mbps),
        scheduler,
        manager_kwargs={"backbone_mbps": 100_000.0},
    )
    run = ChurnedPlane(plane)
    shard_ids = sorted(plane.shards)
    down = {}
    if after_chunk is not None:
        after_chunk(0, plane)

    def crash(shard_id: str) -> None:
        shard = plane.shards[shard_id]
        down[shard_id] = next(r for r in shard.replicas if r.name == shard.lease.holder)
        down[shard_id].crash()

    for chunk in range(chunks):
        base = chunk * CHUNK_SIM_S
        trace = ChurnTrace.generate(
            seed * 100_000 + chunk,
            duration_s=CHUNK_SIM_S,
            arrival_rate_per_s=5.0,
            mean_holding_s=40.0,
            delay_choices_ms=(100.0, 150.0),
            start_id=run.joins + 1,
        )
        for event in trace.events:
            if event.kind == JOIN:
                scheduler.schedule_at(base + event.time_s, plane.submit, event.spec)
                run.joins += 1
            else:
                scheduler.schedule_at(base + event.time_s, plane.depart, event.session_id)
        shard_id = shard_ids[chunk % len(shard_ids)]
        scheduler.schedule_at(base + 5.0, crash, shard_id)
        scheduler.schedule_at(base + 15.0, lambda s=shard_id: down.pop(s).restore())
        scheduler.run(until=base + CHUNK_SIM_S)
        for sid in shard_ids:
            for dc, text in plane.shards[sid].manager.forwarding_tables().items():
                run.tables.append((chunk, sid, dc, text))
        if after_chunk is not None:
            after_chunk(chunk + 1, plane)
    plane.stop()
    return run
