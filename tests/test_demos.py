"""Smoke test: demos 01-03 run and print their known figures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("script, expected", [
    ("01_two_tie_hexagon.py", "area: 3.000000"),
    ("02_rts96_flexibility_sets.py", "active/n1    total    76.9"),
    ("03_transfer_capacity_comparison.py",
     "active 156.2 pu^2, transfer 119.7 pu^2"),
])
def test_demo_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
