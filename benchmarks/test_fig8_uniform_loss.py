"""Fig. 8 — throughput vs i.i.d. packet loss on the bottleneck link.

Paper: NC0 is best on clean links but collapses as loss grows (it has
no redundancy; every lost packet costs a retransmission round-trip);
NC1/NC2 pay a bandwidth tax up front and stay high; Non-NC sits in
between, eventually beating NC0.  Each configuration runs at its own
sustainable rate (λ·(k+r)/k fills the links), with the windowed ARQ
reliability layer enabled, loss injected on T→V2 with netem-equivalent
uniform drops.  The figure is asserted on every seed of a fixed set,
not on one sample.
"""

import pytest

LOSS_RATES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
WINDOW = 512
BASE_RATE = 66.0  # ~0.94 × capacity: the headroom repairs need
SEEDS = range(1, 7)


def _run_sweep(seed):
    from repro.experiments.butterfly import run_butterfly_nc, run_butterfly_non_nc
    from repro.net.loss import UniformLoss
    from repro.rlnc.redundancy import RedundancyPolicy

    results = {"NC0": [], "NC1": [], "NC2": [], "Non-NC": []}
    for p in LOSS_RATES:
        loss = UniformLoss(p) if p else None
        for extra in (0, 1, 2):
            out = run_butterfly_nc(
                duration_s=1.5,
                rate_mbps=BASE_RATE * 4 / (4 + extra),
                redundancy=RedundancyPolicy(extra),
                loss_on_bottleneck=UniformLoss(p) if p else None,
                window_generations=WINDOW,
                seed=seed,
            )
            results[f"NC{extra}"].append(out.session_throughput_mbps)
        out = run_butterfly_non_nc(
            duration_s=1.5, mode="flooding", loss_on_bottleneck=loss, window_generations=1024, seed=seed
        )
        results["Non-NC"].append(out.session_throughput_mbps)
    return results


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("seed", SEEDS)
def test_fig8_uniform_loss(benchmark, series_printer, seed):
    results = benchmark.pedantic(_run_sweep, args=(seed,), rounds=1, iterations=1)
    series_printer(
        f"Fig. 8: throughput vs uniform loss rate on T->V2 (Mbps), seed {seed}",
        "loss",
        [f"{p:.0%}" for p in LOSS_RATES],
        results,
    )

    nc0, nc1, nc2, non_nc = (results[k] for k in ("NC0", "NC1", "NC2", "Non-NC"))
    # Clean links: redundancy is pure waste, NC0 wins (paper's low-loss end).
    assert nc0[0] > nc1[0] > nc2[0]
    # NC0 collapses hard with loss.
    assert nc0[-1] < 0.6 * nc0[0]
    # Robustness (retention of the clean-link rate) grows with redundancy.
    ret0, ret1, ret2 = nc0[-1] / nc0[0], nc1[-1] / nc1[0], nc2[-1] / nc2[0]
    assert ret2 > ret1 > ret0
    assert ret2 > 0.7
    # NC2's redundancy covers each loss rate with little left to repair:
    # its curve only falls (to within 1 Mbps of noise).
    assert all(later <= earlier + 1.0 for earlier, later in zip(nc2, nc2[1:]))
    # The crossover the paper highlights: under heavy loss the redundant
    # configurations overtake NC0.
    assert nc2[-1] > nc0[-1]
    assert nc1[-1] > 0.9 * nc0[-1]
    # Non-NC's duplication keeps it from collapsing below NC0's floor.
    assert non_nc[-1] > 0.4 * non_nc[0]
