"""Adaptive-redundancy loss sweep: adaptive vs fixed vs Direct TCP.

Not a paper figure — the paper runs every session at static redundancy
(§V-B3).  This benchmark measures the adaptive loop grown in DESIGN.md
§15 on both hostile-link presets (GEO satellite, IoT relay chain):
goodput across 0–30 % burst loss for the adaptive controller, the
paper-style fixed NC1 redundancy, and the ``repro.baselines.tcp``
Direct-TCP baseline.

Gates: at every hostile point (≥ 15 % loss) adaptive must beat both
fixed redundancy and TCP on both presets, and on the clean link it must
not cost more than a few percent versus fixed (the AIMD decay keeps the
redundancy tax bounded).  The sweep is seeded and deterministic; its
exact values are pinned elsewhere — the GEO-adaptive and IoT-fixed
digests of ``tests/integration/test_bringup_pinned.py`` and the
``session.goodput_mbps`` row of the ``iot-chain-adaptive`` ``bench``
workload — and EXPERIMENTS.md prints the table this run prints.
"""

import pytest

from repro.experiments.scenarios import GEO_SATELLITE, IOT_RELAY_CHAIN, loss_sweep, run_scenario

LOSSES = (0.0, 0.05, 0.15, 0.30)
HOSTILE_LOSS = 0.15
DURATION_S = 8.0
SEED = 1
PRESETS = (GEO_SATELLITE, IOT_RELAY_CHAIN)

#: Clean-link tolerance: adaptive may trail fixed NC1 by at most this
#: fraction at zero loss (its redundancy probing costs a little wire).
CLEAN_TAX = 0.05


@pytest.fixture(scope="module")
def adapt_sweeps():
    """Preset name -> one row per loss point."""
    return {
        preset.name: loss_sweep(preset, LOSSES, duration_s=DURATION_S, seed=SEED)
        for preset in PRESETS
    }


@pytest.mark.benchmark(group="adapt")
def test_adaptive_beats_fixed_and_tcp(benchmark, adapt_sweeps, table_printer):
    # Timing target: one full adaptive hostile-link run on the GEO preset.
    benchmark.pedantic(
        run_scenario,
        args=(GEO_SATELLITE, "adaptive", HOSTILE_LOSS, DURATION_S, SEED),
        rounds=1,
        iterations=1,
    )
    for name, rows in adapt_sweeps.items():
        table_printer(
            f"Adaptive vs fixed vs TCP goodput — {name}",
            ["loss", "adaptive (Mbps)", "fixed (Mbps)", "TCP (Mbps)", "retunes", "final extra"],
            [
                [
                    f"{r['loss']:.2f}",
                    f"{r['adaptive_mbps']:.3f}",
                    f"{r['fixed_mbps']:.3f}",
                    f"{r['tcp_mbps']:.3f}",
                    r["adaptive_retunes"],
                    r["adaptive_final_extra"],
                ]
                for r in rows
            ],
        )
        for row in rows:
            if row["loss"] >= HOSTILE_LOSS:
                assert row["adaptive_mbps"] > row["fixed_mbps"], (name, row)
                assert row["adaptive_mbps"] > row["tcp_mbps"], (name, row)


def test_adaptive_clean_link_tax_is_bounded(adapt_sweeps):
    # On a clean link the loop must converge near the static baseline:
    # probing redundancy may not cost more than CLEAN_TAX of goodput.
    for name, rows in adapt_sweeps.items():
        clean = next(r for r in rows if r["loss"] == 0.0)
        assert clean["adaptive_mbps"] >= (1.0 - CLEAN_TAX) * clean["fixed_mbps"], (name, clean)


def test_adaptive_reacts_to_hostile_loss(adapt_sweeps):
    # The controller must actually move: retunes pushed and redundancy
    # raised on every hostile point, and the hostile generation size
    # adopted (shorter generations under heavy loss).
    for name, rows in adapt_sweeps.items():
        for row in rows:
            if row["loss"] >= HOSTILE_LOSS:
                assert row["adaptive_retunes"] > 0, (name, row)
                assert row["adaptive_final_extra"] > 0, (name, row)
                assert row["adaptive_final_blocks"] <= 8, (name, row)

