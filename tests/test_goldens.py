"""``tools/goldens.py --diff`` on small synthetic output trees."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "goldens.py"
_SPEC = importlib.util.spec_from_file_location("goldens", _SCRIPT)
goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(goldens)

CSV = "step,s,phi_1\n0,0.0,0.25\n1,0.5,0.5\n2,1.0,nan\n"
SUMMARY = {
    "summary": {
        "phi1_at_u0": 0.25,
        "log": {"accepted_steps": 2, "rejected_steps": 1, "rhs_evaluations": 13,
                "termination": "completed", "final_phi": [0.5]},
    }
}


@pytest.fixture
def trees(tmp_path):
    """Two copies of one output tree with one config, ``case``."""
    old = tmp_path / "old"
    (old / "case").mkdir(parents=True)
    (old / "case" / "run.csv").write_text(CSV)
    (old / "case" / "run_summary.json").write_text(json.dumps(SUMMARY))
    new = tmp_path / "new"
    shutil.copytree(old, new)
    return old, new


def test_identical_tree(trees):
    assert goldens.diff(*trees) == ["case: identical"]


def test_changed_cell_reported_under_its_column(trees):
    old, new = trees
    (new / "case" / "run.csv").write_text(CSV.replace("1,0.5,0.5", "1,0.5,0.75"))
    lines = goldens.diff(old, new)
    assert lines[:2] == ["case: differs", "  run.csv: rows 3 -> 3"]
    assert "    phi_1: max |diff| 0.25, relative 0.333" in lines
    assert "    s: max |diff| 0, relative 0" in lines
    assert "    step: max |diff| 0, relative 0" in lines
    assert not any("run_summary.json" in line for line in lines)


def test_leg_counters_and_numbers_reported(trees):
    old, new = trees
    changed = json.loads(json.dumps(SUMMARY))
    changed["summary"]["log"].update(rejected_steps=2, termination="stall", final_phi=[0.5 + 1e-9])
    (new / "case" / "run_summary.json").write_text(json.dumps(changed))
    lines = goldens.diff(old, new)
    assert (
        "    leg summary.log: accepted 2 -> 2, rejected 1 -> 2, rhs 13 -> 13; "
        "termination completed -> stall"
    ) in lines
    assert any(line.startswith("    summary.log.final_phi[0]: |diff| 1e-09") for line in lines)
    assert not any("phi1_at_u0" in line for line in lines)


def test_every_changed_leaf_reported(trees):
    # A changed string, a removed key, an added key and an added number are
    # each named, not only numbers present in the old tree.
    old, new = trees
    before = {**SUMMARY, "config_hash": "abc", "config": {"seed": 2008, "temperature": 1.0}}
    after = json.loads(json.dumps(before))
    after["config_hash"] = "def"
    del after["config"]["temperature"]
    after["config"]["workers"] = 1
    after["summary"]["rank"] = 3
    (old / "case" / "run_summary.json").write_text(json.dumps(before))
    (new / "case" / "run_summary.json").write_text(json.dumps(after))
    lines = goldens.diff(old, new)
    assert lines[2].startswith("    leg summary.log: accepted 2 -> 2")
    assert sorted(lines[3:]) == [
        "    config.temperature: only in old",
        "    config.workers: only in new",
        '    config_hash: "abc" -> "def"',
        "    summary.rank: only in new",
    ]


@pytest.mark.parametrize("change,status", [(False, 0), (True, 1)], ids=["identical", "differs"])
def test_exit_status(trees, change, status):
    # A script gates on the exit status: 0 only when every config is identical.
    old, new = trees
    (old / "other").mkdir()
    (old / "other" / "run.csv").write_text(CSV)
    shutil.copytree(old / "other", new / "other")
    if change:
        (new / "case" / "run.csv").write_text(CSV.replace("0.25", "0.5"))
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), "--diff", str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == status
    assert proc.stdout.splitlines()[-1] == "other: identical"
    assert ("case: differs" in proc.stdout) == change
