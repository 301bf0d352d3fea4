import re
from pathlib import Path

import gridflex

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_public_names_resolve():
    """Every ``__all__`` entry is bound, listed once, and star-importable."""
    names = gridflex.__all__
    assert [n for n in names if not hasattr(gridflex, n)] == []
    assert len(names) == len(set(names))
    namespace = {}
    exec("from gridflex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_benchmark_entry_points_resolve():
    """Every ``gf.<name>`` the benchmark workloads call is still bound."""
    names = set(re.findall(r"\bgf\.(\w+)", WORKLOADS.read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(gridflex, n)) == []
