"""Statistics, tables and the A-versus-B comparison over result documents.

A result document is what ``python -m bench --out`` writes: per workload,
every end-to-end metric as the values of its repeats with median and
quartiles, the per-layer ledger, the correctness counts and the
``sim_fingerprint``.
"""

from __future__ import annotations

import statistics
from typing import Any

from bench.metrics import END_TO_END, PER_LAYER, Metric

IMPROVED = "improved"
UNCHANGED = "unchanged"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"
DIFFERS = "DIFFERS"
SAME = "same"


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def print_result(document: dict[str, Any]) -> None:
    """Every metric by name, with its unit, for every workload."""
    for name, entry in document["workloads"].items():
        flags = "  [contended: load or wall/CPU above threshold]" if entry["contended"] else ""
        print(f"\n== {name}: {entry['attempted']} ops attempted, {entry['failed']} failed{flags}")
        print(f"   sim_fingerprint {entry['sim_fingerprint']}")
        print(f"   {'end-to-end metric':<24}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for metric in END_TO_END:
            s = entry["end_to_end"][metric.name]
            print(
                f"   {metric.name:<24}{metric.unit:<8}{_fmt(s['median']):>14}"
                f"{_fmt(s['q1']):>14}{_fmt(s['q3']):>14}{s['n']:>4}"
            )
        print(f"   {'per-layer metric':<56}{'unit':<8}{'value':>14}")
        for metric in PER_LAYER:
            if metric.name in entry["per_layer"]:
                print(f"   {metric.name:<56}{metric.unit:<8}{_fmt(entry['per_layer'][metric.name]):>14}")
    if document.get("probes"):
        print(f"\n== probes (workload-independent)\n   {'per-layer metric':<56}{'unit':<8}{'value':>14}")
        for metric in PER_LAYER:
            if metric.name in document["probes"]:
                print(f"   {metric.name:<56}{metric.unit:<8}{_fmt(document['probes'][metric.name]):>14}")


def _worse_by(metric: Metric, a: float, b: float) -> float:
    """Relative change from a to b, positive when b is worse."""
    change = (b - a) / a if a else 0.0
    return -change if metric.better == "higher" else change


def _verdict(metric: Metric, a: dict[str, Any], b: dict[str, Any]) -> tuple[float, float, str]:
    """(worse_by, spread, verdict) for one end-to-end (metric, workload) pair."""
    assert metric.bound is not None
    worse_by = _worse_by(metric, a["median"], b["median"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["median"] if a["median"] else 0.0
    if metric.better == "higher":
        all_better = min(b["values"]) > max(a["values"])
    else:
        all_better = max(b["values"]) < min(a["values"])
    if all_better and -worse_by > spread:
        return worse_by, spread, IMPROVED
    if spread > metric.bound:
        return worse_by, spread, UNRESOLVED
    if worse_by > metric.bound:
        return worse_by, spread, REGRESSED
    return worse_by, spread, UNCHANGED


def compare(
    a: dict[str, Any], b: dict[str, Any], *, exact: bool, symmetric: bool = False
) -> tuple[list[str], bool]:
    """Rows comparing two result documents, and whether B passes against A.

    End-to-end pairs get a verdict against the metric's bound.  With
    ``exact`` (both documents ran the same fixed work on the same seed)
    every simulated metric, counter and fingerprint must also match bit
    for bit; B fails on any regression or any such difference.  With
    ``symmetric`` (an A/A run) a median that moved by more than the bound
    in *either* direction fails: the two sides are the same code.
    """
    rows = [
        f"{'workload':<26}{'metric':<34}{'A':>14}{'B':>14}{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    ]
    ok = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            worse_by, spread, verdict = _verdict(metric, sa, sb)
            ok = ok and verdict != REGRESSED and not (symmetric and abs(worse_by) > metric.bound)
            rows.append(
                f"{name:<26}{metric.name:<34}{_fmt(sa['median']):>14}{_fmt(sb['median']):>14}"
                f"{worse_by:>+10.2%}{spread:>9.2%}{metric.bound:>7.0%}  {verdict}"
            )
        if not exact:
            continue
        checks: list[tuple[str, Any, Any]] = [
            ("sim_fingerprint", wa["sim_fingerprint"][:12], wb["sim_fingerprint"][:12]),
            ("ops_attempted", wa["attempted"], wb["attempted"]),
            ("ops_failed", wa["failed"], wb["failed"]),
        ]
        checks += [
            (m.name, wa["per_layer"][m.name], wb["per_layer"][m.name])
            for m in PER_LAYER
            if m.exact and m.name in wa["per_layer"] and m.name in wb["per_layer"]
        ]
        for label, va, vb in checks:
            same = va == vb
            ok = ok and same
            shown_a, shown_b = (va, vb) if isinstance(va, str) else (_fmt(va), _fmt(vb))
            verdict = SAME if same else DIFFERS
            rows.append(f"{name:<26}{label:<34}{shown_a:>14}{shown_b:>14}{'':>26}  {verdict}")
    return rows, ok
