import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import gridflex
from gridflex import lp
from gridflex.analysis import NodalDeviationReport, UtilizationComparison
from gridflex.polytope import ContainmentResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Per benchmark file, the names through which it reaches gridflex: a module
# alias, or ``_gf()``, which workloads.py calls for the package.
BENCHMARK_ROOTS = {
    "workloads.py": {"gf": gridflex, "_gf()": gridflex, "lp": lp},
    "setup_probe.py": {"gridflex": gridflex},
    "record.py": {"gf": gridflex, "gridflex": gridflex},
}


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
    function or the LP system by name, so patching ``gridflex.lp.maximize``
    or ``gridflex.lp.LPSystem`` catches them all.  Row generation runs only
    in ``LPSystem``: ``maximize_lazy`` is a test oracle, not an LP seam."""
    modules = [gridflex] + [importlib.import_module(f"gridflex.{m.name}")
                            for m in pkgutil.iter_modules(gridflex.__path__)]
    assert "gridflex.lp" in [m.__name__ for m in modules]
    binders = sorted(m.__name__ for m in modules if m.__name__ != "gridflex.lp"
                     and any(hasattr(m, name) for name in
                             ("maximize", "LPSystem")))
    assert binders == []
    assert not hasattr(importlib.import_module("gridflex.lp"), "maximize_lazy")


def _gridflex_path(node, roots):
    """``(root, attribute names)`` when ``node`` is an attribute chain on one
    of ``roots``, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and not node.args and not node.keywords:
        root = node.func.id + "()"
    elif isinstance(node, ast.Name):
        root = node.id
    else:
        return None
    return (root, names) if root in roots and names else None


def _unbound_entry_points(name):
    """The gridflex names and calls of benchmark file ``name`` that no
    longer resolve or bind, and the number of calls checked."""
    roots = BENCHMARK_ROOTS[name]
    tree = ast.parse((PERFBENCH / name).read_text())
    paths = {node: path for node in ast.walk(tree)
             if (path := _gridflex_path(node, roots))}
    # Only the longest chain: ``gridflex.lp.maximize``, not also ``gridflex.lp``.
    inner = {node.value for node in paths if isinstance(node, ast.Attribute)}
    unbound, resolved = [], {}
    for node, (root, names) in paths.items():
        if node in inner:
            continue
        owner = roots[root]
        for attr in names:
            if not hasattr(owner, attr):
                unbound.append(f"{name} line {node.lineno}: {ast.unparse(node)}")
                break
            owner = getattr(owner, attr)
        else:
            resolved[node] = owner
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.func in resolved
             and not inspect.ismodule(resolved[node.func])]
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            inspect.signature(resolved[call.func]).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"{name} line {call.lineno}: "
                           f"{ast.unparse(call.func)} ({exc})")
    return unbound, len(calls)


def test_benchmark_entry_points_resolve():
    """Every gridflex name the benchmark's files reach (``gf.<name>`` and
    ``_gf().<name>`` and ``lp.maximize`` in workloads.py, ``gridflex.<name>``
    in setup_probe.py, ``gf.<name>`` and ``gridflex.lp.<name>`` in
    record.py) is still bound, and every call of one binds to the current
    signature with its positional count and keyword names."""
    unbound = []
    for name in BENCHMARK_ROOTS:
        failures, n_calls = _unbound_entry_points(name)
        assert n_calls, name
        unbound += failures
    assert unbound == []


def test_benchmark_result_fields_exist():
    """The result fields the benchmark workloads read are still there."""
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"contained", "max_violation"} <= names(ContainmentResult)
    assert {"total_active", "total_atc"} <= names(UtilizationComparison)
    assert "rows" in names(NodalDeviationReport)
    assert callable(NodalDeviationReport.bounds)
