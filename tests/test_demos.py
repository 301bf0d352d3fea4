"""Smoke test: demos 01-04 run and print or write their known figures."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script, tmp_path) -> str:
    """Run ``script`` in ``tmp_path`` and return what it printed."""
    # A copy, because a demo may write its outputs next to itself.
    shutil.copy(DEMOS / script, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script, expected", [
    ("01_two_tie_hexagon.py", "area: 3.000000"),
    ("02_rts96_flexibility_sets.py", "active/n1    total    76.9"),
    ("03_transfer_capacity_comparison.py",
     "active 156.2 pu^2, transfer 119.7 pu^2"),
])
def test_demo_runs(script, expected, tmp_path):
    assert expected in _run(script, tmp_path)


def test_demo_04_writes_bus_deviations(tmp_path):
    """Bus 224 at 25% reserves, passive mode, read from the demo's CSV: its
    up bound is 7.125 pu, a tie of the printed table's two-digit rounding."""
    _run("04_neighbor_bus_deviations.py", tmp_path)
    with open(tmp_path / "neighbor_deviations_25pct.csv") as fh:
        rows = [row for row in csv.DictReader(
            line for line in fh if not line.startswith("#"))
            if (row["bus"], row["mode"]) == ("224", "passive")]
    assert len(rows) == 1
    up, dn = float(rows[0]["max_up_pu"]), float(rows[0]["max_dn_pu"])
    assert up == pytest.approx(7.125, abs=1e-9)
    assert dn == pytest.approx(-4.75, abs=1e-9)
