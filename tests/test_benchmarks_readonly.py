"""``pytest benchmarks`` writes nothing you could commit (AST; DESIGN §10).

A quoted number has one producer -- a ``bench`` ledger row, or an assertion
a benchmark recomputes on every run -- never a ``BENCH_*.json`` that a test
rewrites beside the gate reading it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WRITERS = {"write_text", "write_bytes", "dump"}  # json.dump(obj, handle); dumps is a string


def _writes(call):
    name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
    if name != "open":
        return name in WRITERS
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) / path.open(mode)
    modes = call.args[position : position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def write_sites():
    sites = []
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _writes(node):
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


def test_no_benchmark_artifact_is_tracked_or_written():
    artifacts = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert not artifacts, f"benchmark artifacts at the repo root: {artifacts}"
    sites = write_sites()
    assert not sites, "benchmarks/ writes files:\n" + "\n".join(sites)
