"""End-to-end CLI tests for ``python -m repro.analysis``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SNIPPET = """
    import numpy as np

    def f(x, acc=[]):
        rng = np.random.default_rng()
        return acc
"""


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


class TestCleanTree:
    def test_src_repro_json_exits_zero(self):
        proc = run_cli("src/repro", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["exit_code"] == 0
        assert payload["files_scanned"] > 50
        assert payload["rules_run"] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
            "RL007", "RL008", "RL009", "RL011", "RL012",
        ]

    def test_full_tree_text_clean(self):
        proc = run_cli("src", "tests", "benchmarks", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean: 0 findings" in proc.stdout


class TestFindingsPath:
    def _bad_file(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "repro"
        pkg.mkdir()
        target = pkg / "bad.py"
        target.write_text(textwrap.dedent(BAD_SNIPPET))
        return target

    def test_findings_exit_one_with_json_payload(self, tmp_path):
        proc = run_cli(str(self._bad_file(tmp_path)), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        reported = {f["rule_id"] for f in payload["findings"]}
        assert reported == {"RL001", "RL005"}
        assert all(set(f) >= {"rule_id", "path", "line", "col", "message"} for f in payload["findings"])

    def test_select_narrows_rules(self, tmp_path):
        proc = run_cli(str(self._bad_file(tmp_path)), "--select", "RL005", "--format", "json")
        payload = json.loads(proc.stdout)
        assert {f["rule_id"] for f in payload["findings"]} == {"RL005"}

    def test_ignore_drops_rules(self, tmp_path):
        proc = run_cli(str(self._bad_file(tmp_path)), "--ignore", "RL001,RL005")
        assert proc.returncode == 0

    def test_syntax_error_reported_not_crash(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        proc = run_cli(str(target), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["rule_id"] for f in payload["findings"]] == ["RL000"]


class TestUsageErrors:
    def test_unknown_rule_id_exits_two(self):
        proc = run_cli("src/repro", "--select", "RL999")
        assert proc.returncode == 2
        assert "RL999" in proc.stderr

    def test_missing_path_exits_two(self):
        proc = run_cli("no/such/dir")
        assert proc.returncode == 2


class TestInProcess:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert rule_id in out

    def test_main_clean_run(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src/repro", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
