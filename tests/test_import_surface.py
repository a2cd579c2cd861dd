"""What a fresh interpreter loads: a fact about modules, not a timing gate.

The codec and the in-house solver import without the control plane
(``repro/__init__.py`` re-exports nothing), and ``repro.apps`` imports
first — the root re-exports used to hide an ``apps`` ↔ ``core`` cycle by
always loading ``repro.core`` before anything else.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("networkx", "repro.core")


def loaded_after_importing(module: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}, sys; print(' '.join(sys.modules))"],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("module", ["repro.gf", "repro.rlnc", "repro.lp.simplex"])
def test_codec_and_solver_import_without_the_control_plane(module):
    assert not loaded_after_importing(module).intersection(HEAVY)


def test_apps_imports_first():
    assert "repro.core.session" in loaded_after_importing("repro.apps")
