"""Smoke tests of the runnable experiments under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_surface_demo_order_two():
    lines = run_script("surface_demo.py", "2")
    assert "order 1 verdict: singular" in lines
    assert "order 2 verdict: singular" in lines


def test_order_sweep_order_two():
    rows = {int(line.split()[0]): line.split()
            for line in run_script("order_sweep.py", "2")[2:]}
    assert sorted(rows) == [1, 2]
    # columns: n, M, nodes, |S|, essential, worst, time, verdict
    assert rows[2][3] == "27"
    assert rows[2][4] == "4"
    assert rows[2][-1] == "singular"
