import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import gridflex
from gridflex import lp
from gridflex.analysis import NodalDeviationReport, UtilizationComparison
from gridflex.polytope import ContainmentResult

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_public_names_resolve():
    """Every ``__all__`` entry is bound, listed once, and star-importable."""
    names = gridflex.__all__
    assert [n for n in names if not hasattr(gridflex, n)] == []
    assert len(names) == len(set(names))
    namespace = {}
    exec("from gridflex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_only_lp_binds_an_lp_function():
    """Every LP goes through ``gridflex.lp``: no other module binds an LP
    function by name, so patching ``gridflex.lp.maximize`` catches them all."""
    modules = [gridflex] + [importlib.import_module(f"gridflex.{m.name}")
                            for m in pkgutil.iter_modules(gridflex.__path__)]
    assert "gridflex.lp" in [m.__name__ for m in modules]
    binders = sorted(m.__name__ for m in modules if m.__name__ != "gridflex.lp"
                     and (hasattr(m, "maximize") or hasattr(m, "maximize_lazy")))
    assert binders == []


def test_benchmark_entry_points_resolve():
    """Every ``gf.<name>`` the benchmark workloads call is still bound, and
    every ``gf.<name>(...)`` and ``lp.maximize(...)`` call there binds to
    the current signature with its positional count and keyword names."""
    source = WORKLOADS.read_text()
    names = set(re.findall(r"\bgf\.(\w+)", source))
    assert names
    assert sorted(n for n in names if not hasattr(gridflex, n)) == []
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and (node.func.value.id == "gf"
                  or (node.func.value.id, node.func.attr) == ("lp", "maximize"))]
    assert calls
    unbound = []
    for call in calls:
        owner = gridflex if call.func.value.id == "gf" else lp
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            inspect.signature(getattr(owner, call.func.attr)).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {call.func.value.id}."
                           f"{call.func.attr} ({exc})")
    assert unbound == []


def test_benchmark_result_fields_exist():
    """The result fields the benchmark workloads read are still there."""
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"contained", "max_violation"} <= names(ContainmentResult)
    assert {"total_active", "total_atc"} <= names(UtilizationComparison)
    assert "rows" in names(NodalDeviationReport)
    assert callable(NodalDeviationReport.bounds)
