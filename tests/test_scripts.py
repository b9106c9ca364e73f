"""The scripts under scripts/ run to completion against the source tree."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hohfeld.modelio import load_action_model_file, load_model_file
from hohfeld.reduction import AXIOMS, VARIANTS, expected_counterexample
import hohfeld.scenarios as scenarios

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


def test_audit_script_reports_samples_tried_and_their_rate():
    done = _run(["scripts/audit_axioms.py", "--samples", "50"])
    assert done.returncode == 0, done.stderr
    header, rule, *rows = done.stdout.splitlines()
    assert header.split() == ["axiom", "variant", "expected", "result", "samples", "samples/s",
                              "detail"]
    assert len(rows) == 26
    tried = {tuple(row.split()[:2]): int(row.split()[4]) for row in rows}
    # the default seed refutes the paper doRed at sample 13 and univRed at 45
    assert tried[("doRed", "paper")] == 14
    assert tried[("univRed", "paper")] == 46
    assert tried[("S5U", "sound")] == 50
    assert all(float(row.split()[5]) > 0 for row in rows)


def test_audit_script_rejects_an_audit_of_no_samples():
    done = _run(["scripts/audit_axioms.py", "--samples", "0"])
    assert done.returncode == 2
    assert "sample_count" in done.stderr
    assert "Traceback" not in done.stderr


def test_audit_script_fails_when_an_expected_counterexample_is_missed():
    # five samples reach neither pinned counterexample
    done = _run(["scripts/audit_axioms.py", "--samples", "5"])
    assert done.returncode == 1
    assert "contradict" in done.stderr
    # the expected column is the reduction's predicate, for all 13 x 2 audits
    expected = {tuple(row.split()[:2]): row.split()[2] == "counterexample"
                for row in done.stdout.splitlines()[2:]}
    assert expected == {(name, variant): expected_counterexample(name, variant)
                        for name in AXIOMS for variant in VARIANTS}


def test_export_fixtures_script_writes_files_that_reload_equal(tmp_path):
    done = _run(["scripts/export_fixtures.py", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 7 and all(line.startswith("wrote ") for line in lines)
    builders = {
        "parking_model.json": (load_model_file, scenarios.parking_model),
        "john_actions.json": (load_action_model_file, scenarios.john_action_model),
        "mary_actions.json": (load_action_model_file, scenarios.mary_action_model),
        "contract_model.json": (load_model_file, scenarios.contract_model),
        "contract_actions.json": (load_action_model_file, scenarios.contract_action_model),
        "contract_model_v.json": (load_model_file, scenarios.contract_model_with_violation),
        "contract_actions_v.json": (load_action_model_file,
                                    scenarios.contract_action_model_with_violation),
    }
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(builders)
    for name, (load, build) in builders.items():
        assert load(tmp_path / name) == build()


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
