"""The CI gate: the exact invocation CI runs, on seeded violations.

A seeded violation (an unstamped ``NC_FORWARD_TAB`` push) must fail the
invocation CI runs and stop failing once fixed; a tree that trips every
rule must report exactly the findings recorded before the analyzer was
cut down to one pass, minus the retired RL010's.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

RECORDED_FINDINGS = Path(__file__).with_name("violation_tree_findings.json")

UNSTAMPED_PUSH = """\
    from repro.core.signals import NcForwardTab


    def push(bus, name, text):
        bus.send(NcForwardTab(target=name, table_text=text))
"""


@pytest.fixture()
def seeded_tree(tmp_path, monkeypatch):
    """A scratch repo layout with one seeded RL009 violation."""
    pkg = tmp_path / "src" / "repro" / "ctrl"
    pkg.mkdir(parents=True)
    (pkg / "push.py").write_text(textwrap.dedent(UNSTAMPED_PUSH), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


#: A scratch ``src/`` tree that trips every rule at least once
#: (path -> source).  ``violation_tree_findings.json`` beside this file
#: is ``--format json``'s ``findings`` list for it as recorded on the
#: last commit that still had RL010, the autofixer, the cache, the
#: baseline and diff scoping; the four ``handlers/`` files and
#: ``util/clock.py`` are RL010's former positive fixtures.
VIOLATION_TREE = {
    "src/repro/ctrl/push.py": UNSTAMPED_PUSH,  # RL009
    "src/repro/core/signals.py": """\
        class Signal:
            pass

        class NcAlpha(Signal):
            pass

        class NcBeta(Signal):
            pass

        class NcOrphan(Signal):
            pass
    """,
    "src/repro/core/daemon.py": """\
        def handle_signal(signal):
            if isinstance(signal, NcAlpha):
                return "alpha"
            if isinstance(signal, (NcGhost, tuple)):
                return "ghost"
            return None
    """,
    "src/repro/core/controller.py": """\
        def plan():
            return [NcBeta(target="V1"), NcPhantom(target="V1")]
    """,
    "src/repro/handlers/direct.py": """\
        import time


        class Daemon:
            def on_packet(self, pkt):
                return time.time()
    """,
    "src/repro/handlers/one_hop.py": """\
        import time


        def _stamp():
            return time.time()


        class Daemon:
            def on_packet(self, pkt):
                return _stamp()
    """,
    "src/repro/util/clock.py": """\
        import time


        def stamp():
            return time.time()
    """,
    "src/repro/handlers/cross_module.py": """\
        from repro.util.clock import stamp


        class Daemon:
            def handle_signal(self, sig):
                return stamp()
    """,
    "src/repro/handlers/sleepy.py": """\
        import time


        class Source:
            def __init__(self, scheduler):
                scheduler.schedule(0.1, self._tick)

            def _tick(self):
                time.sleep(0.01)
    """,
    "src/repro/demo/randomness.py": """\
        import random

        import numpy as np


        def make(seed, acc=[]):
            acc.append(random.random())
            return np.random.default_rng(), np.random.default_rng(seed)
    """,
    "src/repro/demo/field_math.py": """\
        def combine(field, acc, c, row):
            return acc + field.scale(c, row)
    """,
    "src/repro/demo/clockwork.py": """\
        def rewind(scheduler, fn, deadline):
            scheduler.schedule(-1.0, fn)
            return scheduler.now == deadline


        class Dumper:
            def start(self):
                self.scheduler.schedule(1.0, self._flush)

            def _flush(self):
                with open("trace.log", "a") as fh:
                    fh.write("tick")
    """,
    "src/repro/demo/tables.py": """\
        from repro.core.forwarding import ForwardingTable
        from repro.net.measurement import MeasurementService

        table = ForwardingTable.parse("1 a\\n1 b\\n")


        def probe(topology):
            service = MeasurementService(topology, print, interval_s=5.0)
            service.start()
            topology.run(until=20.0)
    """,
    "src/repro/demo/packets.py": """\
        from repro.rlnc.packet import CodedPacket


        class Vnf:
            def on_packet(self, packet: CodedPacket):
                self.buffer.add(packet.generation_id, packet)


        def announce(bus: SignalBus, signal):
            bus.send(signal)
    """,
    "src/repro/demo/broken.py": "def f(:\n",  # RL000
}


@pytest.fixture()
def violation_tree(tmp_path, monkeypatch):
    for rel, source in VIOLATION_TREE.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    (tmp_path / "src" / "repro" / "demo" / "blob.py").write_bytes(b"\xff\xfe\x00binary")  # RL000
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSeededViolationGate:
    def test_ci_invocation_fails_on_seeded_violation(self, seeded_tree, capsys):
        # The same flags .github/workflows/ci.yml passes.
        code = main(["src", "--sarif", "out.sarif"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL009" in out and "without an epoch= stamp" in out
        sarif = json.loads(Path("out.sarif").read_text(encoding="utf-8"))
        assert [r["ruleId"] for r in sarif["runs"][0]["results"]] == ["RL009"]

    def test_fixing_the_violation_clears_the_gate(self, seeded_tree):
        push = seeded_tree / "src" / "repro" / "ctrl" / "push.py"
        push.write_text(
            textwrap.dedent(
                """\
                from repro.core.signals import NcForwardTab


                def push(bus, name, text, epoch):
                    bus.send(NcForwardTab(target=name, table_text=text, epoch=epoch))
                """
            ),
            encoding="utf-8",
        )
        assert main(["src"]) == 0


class TestEveryRuleTree:
    def test_findings_equal_the_recorded_ones_minus_rl010(self, violation_tree, capsys):
        recorded = json.loads(RECORDED_FINDINGS.read_text(encoding="utf-8"))
        assert {f["rule_id"] for f in recorded} == {f"RL{n:03d}" for n in range(13)}
        assert main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == [f for f in recorded if f["rule_id"] != "RL010"]
        assert payload["suppressed"] == []

    def test_every_former_rl010_fixture_is_flagged_at_its_sink(self, violation_tree, capsys):
        main(["src", "--select", "RL001,RL003", "--format", "json"])
        flagged = {(f["path"], f["rule_id"]) for f in json.loads(capsys.readouterr().out)["findings"]}
        assert {
            ("src/repro/handlers/direct.py", "RL001"),
            ("src/repro/handlers/one_hop.py", "RL001"),
            ("src/repro/util/clock.py", "RL001"),  # cross_module.py's sink
            ("src/repro/handlers/sleepy.py", "RL003"),
        } <= flagged


class TestSarifStdout:
    def test_format_sarif_prints_document(self, seeded_tree, capsys):
        assert main(["src", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["RL009"]
