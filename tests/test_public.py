"""The public surface: every exported name resolves, and the demos run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtgreedy

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in mtgreedy.__all__ if not hasattr(mtgreedy, name)]
    assert missing == []
    assert len(set(mtgreedy.__all__)) == len(mtgreedy.__all__)


@pytest.mark.parametrize("demo", ["01_greedy_fit_walkthrough.py", "03_recovery_diagnostics.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
