"""Smoke tests for the example scripts under scripts/.

Each script runs in its own interpreter, from an empty working
directory, with the package importable from the source tree, the way
the README tells a reader to run them.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import dpmsim
from dpmsim.engine import format_trace, run

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"


def _run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    src_dir = str(Path(dpmsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        check=False,
        cwd=cwd,
        env=env,
    )


def test_run_case_study_script(tmp_path, case_study):
    trace = tmp_path / "trace.txt"
    proc = _run_script("run_case_study.py", "--trace", str(trace), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "    200.0 lux  harvested   26.040 mJ  consumed   2.146 mJ  net  +23.894 mJ" in lines
    assert "run summary: case-study-node" in lines
    assert "run summary: case-study-node-software-sleep" in lines
    assert f"trace written to {trace}" in lines
    assert lines[-1].startswith("fixed-step cross-check: store rel ")
    assert lines[-1].endswith(", sequences match")
    assert trace.read_text() == format_trace(run(case_study))


def test_breakeven_sweep_script(tmp_path):
    probes = tmp_path / "probes.csv"
    proc = _run_script("breakeven_sweep.py", "--csv", str(probes), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "--- case-study-node (hardware_gated) ---" in lines
    assert "breakeven: 16.4851 lux (bracket [16.4351, 16.5351])" in lines
    assert "--- case-study-node-software-sleep (software_sleep) ---" in lines
    assert "breakeven: 42.4695 lux (bracket [42.4195, 42.5195])" in lines
    assert f"probe points written to {probes}" in lines
    with probes.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "variant", "lux", "net_nJ_per_cycle"]
    assert {row[1] for row in rows[1:]} == {"hardware_gated", "software_sleep"}
    assert ["case-study-node", "hardware_gated", "16.435063010752685", "-6510.0"] in rows
    assert ["case-study-node-software-sleep", "software_sleep", "42.519516129032255", "6510.0"] in rows
    # One row per probe: the two that confirm each bundled variant's closed form.
    assert len(rows) == 1 + 2 * 2
