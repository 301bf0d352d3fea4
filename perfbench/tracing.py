"""Spans around gridflex's public functions, recorded from outside the package.

:class:`Tracer` rebinds every public function of the traced modules in
every ``gridflex.*`` namespace that binds it (``maximize`` lives in
``lp`` but is also imported by name into ``polytope`` and ``analysis``),
plus ``linprog`` as bound in ``gridflex.lp`` and the callback of every
CLI command.  Each call becomes a :class:`Span` with a name, start, end
and parent id; spans stay in memory until :func:`layer_metrics` turns
them into the per-layer figures the benchmark reports.

Nothing here runs unless a traced pass asks for it: the end-to-end
figures are always measured with the original bindings in place.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("network", "sensitivity", "constraints", "polytope", "lp",
          "analysis", "cli")
CLI_COMMANDS = ("validate", "build", "metrics", "atc", "maxdev", "plotdata")

# Per-layer metric names and units, in the order the benchmark prints them.
LAYER_METRICS = {
    "network.s": "s",
    "network.calls": "count",
    "sensitivity.s": "s",
    "sensitivity.calls": "count",
    "constraints.s": "s",
    "constraints.rows": "rows",
    "polytope.project.s": "s",
    "polytope.project.calls": "count",
    "polytope.remove_redundant.s": "s",
    "polytope.remove_redundant.rows_in": "rows",
    "polytope.remove_redundant.rows_out": "rows",
    "polytope.remove_redundant.dropped_per_lp": "rows/lp",
    "polytope.eliminate_variable.s": "s",
    "polytope.fm.peak_rows": "rows",
    "polytope.fm.survival_ratio": "ratio",
    "polytope.contains.s": "s",
    "polytope.bounding_box.s": "s",
    "polytope.vertices_2d.s": "s",
    "lp.calls": "count",
    "lp.s": "s",
    "lp.ms_per_call": "ms",
    "lp.cells": "cells",
    "lp.iterations": "count",
    "lp.nonoptimal": "count",
    "lp.errors": "count",
    "analysis.external_polytope.s": "s",
    "analysis.exported_flexibility.s": "s",
    "analysis.compare_utilization.s": "s",
    "analysis.nodal_deviation_report.s": "s",
    "analysis.self_s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cells(a) -> int:
    shape = getattr(a, "shape", None)
    if a is None or shape is None or len(shape) != 2:
        return 0
    return int(shape[0] * shape[1])


def _observe_maximize(args, kwargs, result):
    a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub")
    a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq")
    return {"cells": _cells(a_ub) + _cells(a_eq), "status": result.status}


def _observe_linprog(args, kwargs, result):
    return {"nit": int(getattr(result, "nit", 0) or 0)}


def _observe_rows(args, kwargs, result):
    return {"rows": int(result.nrows)}


class Tracer:
    """Installs span-recording wrappers and removes them again.

    Use as a context manager; leaving it restores every original
    binding, so an untraced pass after a traced one measures the
    unmodified program.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._fm_pending: dict[int, tuple[object, int]] = {}

    def __enter__(self):
        self.wrap()
        return self

    def __exit__(self, *exc):
        self.unwrap()
        return False

    # -- wrapping -------------------------------------------------------

    def wrap(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        targets: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gridflex.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = self._wrapper(f"{layer}.{name}", obj)
        linprog = importlib.import_module("gridflex.lp").linprog
        targets[id(linprog)] = self._wrapper("lp.linprog", linprog)

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gridflex"
                                      or mod_name.startswith("gridflex.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and not attr.startswith("__"):
                    self._rebind(module, attr, wrapper)

        cli_main = importlib.import_module("gridflex.cli").main
        for name, command in cli_main.commands.items():
            self._rebind(command, "callback",
                         self._wrapper(f"cli.{name}", command.callback))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._fm_pending.clear()

    def _wrapper(self, name: str, fn):
        observe = self._observer(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, clock())
            spans.append(span)
            stack.append(span.id)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span.end = clock()
                stack.pop()
                if not ok:
                    span.info["error"] = 1
            if observe is not None:
                span.info.update(observe(args, kwargs, result))
            return result

        return traced

    def _observer(self, name: str):
        if name == "lp.maximize":
            return _observe_maximize
        if name == "lp.linprog":
            return _observe_linprog
        if name.startswith("constraints.assemble_"):
            return _observe_rows
        if name == "polytope.eliminate_variable":
            return self._observe_eliminate
        if name == "polytope.remove_redundant":
            return self._observe_remove
        return None

    def _observe_eliminate(self, args, kwargs, result):
        poly = args[0] if args else kwargs["poly"]
        var = args[1] if len(args) > 1 else kwargs["var"]
        col = poly.A[:, poly.column(var)]
        pos = int((col > 1e-12).sum())
        neg = int((col < -1e-12).sum())
        generated = poly.nrows - pos - neg + pos * neg
        # Held until the next remove_redundant consumes this result.
        self._fm_pending[id(result)] = (result, generated)
        return {"generated": generated}

    def _observe_remove(self, args, kwargs, result):
        poly = args[0] if args else kwargs["poly"]
        info = {"rows_in": int(poly.nrows), "rows_out": int(result.nrows)}
        pending = self._fm_pending.pop(id(poly), None)
        if pending is not None and pending[0] is poly:
            info["fm_generated"] = pending[1]
            info["fm_kept"] = int(result.nrows)
        return info


# -- arithmetic over recorded spans -------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children are merged first and clipped to the parent, so
    no interval is subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed as in LAYER_METRICS.

    A layer's time counts only spans entered from outside the layer, and
    a function's time only calls not nested in another call of the same
    function, so recursion and in-layer helpers are not counted twice.
    Layers that did not run report zero.
    """
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    selfs = self_times(spans)

    def outermost(s):
        return all(a.name != s.name for a in _ancestors(spans, s))

    rr_lps = 0
    fm_generated = fm_kept = 0
    for s, self_s in zip(spans, selfs):
        layer, func = s.name.split(".", 1)
        entered = s.parent is None or spans[s.parent].layer != layer
        if layer in ("network", "sensitivity", "constraints") and entered:
            m[f"{layer}.s"] += s.duration
            if layer != "constraints":
                m[f"{layer}.calls"] += 1
        if layer == "constraints" and "rows" in s.info:
            m["constraints.rows"] += s.info["rows"]
        if layer == "polytope":
            if func == "project":
                m["polytope.project.calls"] += 1
            if func in ("project", "remove_redundant", "eliminate_variable",
                        "contains", "bounding_box", "vertices_2d") and outermost(s):
                m[f"polytope.{func}.s"] += s.duration
            if func == "remove_redundant" and "rows_out" in s.info:
                m["polytope.remove_redundant.rows_in"] += s.info["rows_in"]
                m["polytope.remove_redundant.rows_out"] += s.info["rows_out"]
                if "fm_generated" in s.info:
                    fm_generated += s.info["fm_generated"]
                    fm_kept += s.info["fm_kept"]
            if func == "eliminate_variable" and "generated" in s.info:
                m["polytope.fm.peak_rows"] = max(m["polytope.fm.peak_rows"],
                                                 s.info["generated"])
        if s.name == "lp.maximize":
            m["lp.calls"] += 1
            m["lp.s"] += s.duration
            m["lp.cells"] += s.info.get("cells", 0)
            if s.info.get("error"):
                m["lp.errors"] += 1
            elif s.info.get("status") != "optimal":
                m["lp.nonoptimal"] += 1
            if any(a.name == "polytope.remove_redundant"
                   for a in _ancestors(spans, s)):
                rr_lps += 1
        if s.name == "lp.linprog":
            m["lp.iterations"] += s.info.get("nit", 0)
        if layer == "analysis":
            m["analysis.self_s"] += self_s
            key = f"analysis.{func}.s"
            if key in m and outermost(s):
                m[key] += s.duration
        if layer == "cli":
            m["cli.self_s"] += self_s
            if f"cli.{func}.s" in m:
                m[f"cli.{func}.s"] += s.duration
    if m["lp.calls"]:
        m["lp.ms_per_call"] = 1000.0 * m["lp.s"] / m["lp.calls"]
    if rr_lps:
        dropped = (m["polytope.remove_redundant.rows_in"]
                   - m["polytope.remove_redundant.rows_out"])
        m["polytope.remove_redundant.dropped_per_lp"] = dropped / rr_lps
    if fm_generated:
        m["polytope.fm.survival_ratio"] = fm_kept / fm_generated
    return m


def spans_to_json(spans: list[Span], t0: float) -> list[list]:
    """Compact rows ``[id, parent, name, start_s, end_s, info]`` from ``t0``."""
    return [[s.id, s.parent, s.name, round(s.start - t0, 7),
             round(s.end - t0, 7), s.info] for s in spans]
