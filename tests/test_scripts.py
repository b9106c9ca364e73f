"""The scripts under scripts/ run to completion against the source tree."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    # the default seed refutes the paper doRed at sample 13 and univRed at 45
    ["scripts/audit_axioms.py", "--samples", "50"],
    ["scripts/parking_walkthrough.py"],
    ["scripts/product_sweep.py", "--seed", "3", "--states", "8", "16", "--repeat", "1"],
])
def test_script_exits_cleanly(argv):
    done = _run(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_audit_script_fails_when_an_expected_counterexample_is_missed():
    # five samples reach neither pinned counterexample
    done = _run(["scripts/audit_axioms.py", "--samples", "5"])
    assert done.returncode == 1
    assert "contradict" in done.stderr


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
