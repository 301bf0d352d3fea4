"""The benchmark's four workloads: seeded inputs, units and output checks.

A workload is built from a seed alone, so one seed gives the same
inputs on every machine.  ``setup()`` loads the cases a pass needs, and
``run_pass(record)`` runs every unit once, calling
``record(name, seconds, error)`` per unit; ``error`` is ``None`` for a
unit that completed and passed its output check.

gridflex is always reached through module attributes (``gf.project``,
``self.lp.maximize``) at call time, so the wrappers a traced pass
installs see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "gridflex" / "data"
RTS = DATA / "rts96_2area.json"
TOY = DATA / "toy_hexagon.json"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
CONTAIN_TOL = 1e-6
REFERENCE_TOL = 1e-6
SETS = (("passive", "n"), ("passive", "n1"), ("active", "n"), ("active", "n1"))
# (inner, outer) pairs of the inclusion lattice.
LATTICE = ((("passive", "n1"), ("active", "n1")),
           (("active", "n1"), ("active", "n")),
           (("passive", "n"), ("active", "n")),
           (("passive", "n1"), ("passive", "n")))


def _gf():
    return importlib.import_module("gridflex")


def _key(x: float) -> str:
    return f"{x:.4f}"


def _load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {})


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""
    index = 0
    min_passes = 1

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.rng = np.random.default_rng((seed, self.index))

    def inputs(self) -> dict:
        """JSON-able description of the generated inputs."""
        raise NotImplementedError

    def setup_cases(self) -> list[str]:
        """``CASE_FILE[@SCALE]`` specs the set-up probe loads."""
        return []

    def setup(self) -> None:
        pass

    def run_pass(self, record, in_process: bool = False) -> None:
        raise NotImplementedError


class ExportLattice(Workload):
    """All four flexibility sets per load level; one set is one unit."""

    name = "export-lattice"
    index = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        # Drawn below 0.9: active n1 costs 2-4 s anywhere in [0.5, 0.9]
        # but 5-14 s, erratically, in [0.945, 1.0), which would make the
        # pass time depend on the seed more than on the code.  Level 1.0
        # keeps that regime in every pass.
        drawn = round(float(self.rng.uniform(0.5, 0.9)), 4)
        self.levels = (1.0, 0.7, drawn)
        self.reference = _load_reference(self.name)

    def inputs(self):
        return {"levels": list(self.levels)}

    def setup_cases(self):
        return [str(RTS) if lv == 1.0 else f"{RTS}@{lv!r}" for lv in self.levels]

    def setup(self):
        gf = _gf()
        rts = gf.load_case(str(RTS))
        self.cases = {}
        for lv in self.levels:
            try:
                self.cases[lv] = rts if lv == 1.0 else gf.scale_load(rts, lv)
            except gf.GridflexError as exc:
                self.cases[lv] = exc

    def run_pass(self, record, in_process=False):
        gf = _gf()
        full = gf.ReserveConfig(mode="full")
        for lv in self.levels:
            case = self.cases[lv]
            names = [f"{_key(lv)}/{a}/{s}" for a, s in SETS]
            if isinstance(case, Exception):
                for name in names:
                    record(name, 0.0, f"scale_load failed: {case}")
                continue
            ref = self.reference.get(_key(lv), {})
            sets, times, errors = {}, [], []
            for (approach, security), name in zip(SETS, names):
                started = perf_counter()
                try:
                    fe = gf.external_polytope(
                        case, gf.FlexibilitySpec(approach, security, full))
                    total = gf.exported_flexibility(fe).total
                    err = None
                except Exception as exc:
                    fe, total, err = None, math.nan, _failure(exc)
                times.append(perf_counter() - started)
                if err is None:
                    sets[(approach, security)] = fe
                    err = self._check_set(fe, total, ref.get(f"{approach}/{security}"))
                errors.append(err)
            level_err = self._check_level(gf, case, sets, full)
            for name, seconds, err in zip(names, times, errors):
                record(name, seconds, err or level_err)

    @staticmethod
    def _check_set(fe, total, expected):
        if not np.all(fe.poly.b >= -1e-9):
            return "origin outside the set"
        if not (math.isfinite(total) and total > 0):
            return f"total {total} is not finite and positive"
        if expected is not None and abs(total - expected) > REFERENCE_TOL:
            return f"total {total!r} differs from reference {expected!r}"
        return None

    @staticmethod
    def _check_level(gf, case, sets, full):
        if len(sets) < len(SETS):
            return "a set of this level failed"
        try:
            for inner, outer in LATTICE:
                res = gf.contains(sets[outer].poly, sets[inner].poly, CONTAIN_TOL)
                if not res.contained:
                    return (f"{inner} not within {outer} "
                            f"(violation {res.max_violation:.3g})")
            configured, view = gf.prepare(
                case, gf.FlexibilitySpec("active", "n", full))
            flows = gf.compute_dc_flows(configured)
            limits = gf.compute_delta_limits(configured, view, flows)
            atc = gf.build_atc_polytope(view, limits, case.atc_a_to_b_pu,
                                        case.atc_b_to_a_pu)
            cmp = gf.compare_utilization(sets[("active", "n")], atc, CONTAIN_TOL)
        except Exception as exc:
            return _failure(exc)
        if not all(math.isfinite(t) and t > 0
                   for t in (cmp.total_active, cmp.total_atc)):
            return "utilization comparison totals not finite and positive"
        return None


class NeighborMaxdev(Workload):
    """One neighbor-security deviation report per drawn reserve fraction."""

    name = "neighbor-maxdev"
    index = 2
    calls_per_pass = 2

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.fractions = tuple(round(float(f), 4) for f in
                               self.rng.uniform(0.02, 0.30, self.calls_per_pass))
        self.reference = _load_reference(self.name)

    def inputs(self):
        return {"fractions": list(self.fractions)}

    def setup_cases(self):
        return [str(RTS)]

    def setup(self):
        self.case = _gf().load_case(str(RTS))

    def run_pass(self, record, in_process=False):
        gf = _gf()
        for f in self.fractions:
            started = perf_counter()
            try:
                rep = gf.nodal_deviation_report(
                    self.case, reserve_fraction=f, security="n",
                    include_neighbor_security=True)
                err = None
            except Exception as exc:
                rep, err = None, _failure(exc)
            seconds = perf_counter() - started
            if err is None:
                err = self._check(rep, self.reference.get(_key(f)))
            record(_key(f), seconds, err)

    @staticmethod
    def _check(rep, expected):
        """Criterion-6 mode ordering and zero bracketing, then the reference."""
        buses = sorted({row[0] for row in rep.rows})
        for b in buses:
            pu, pd = rep.bounds(b, "passive")
            au, ad = rep.bounds(b, "active")
            tu, td = rep.bounds(b, "atc")
            if not au >= tu - 1e-7 >= pu - 2e-7:
                return f"bus {b}: upward mode ordering broken"
            if not abs(ad) >= abs(td) - 1e-7 >= abs(pd) - 2e-7:
                return f"bus {b}: downward mode ordering broken"
            for up, dn in ((pu, pd), (au, ad), (tu, td)):
                if not (up >= -1e-9 and dn <= 1e-9):
                    return f"bus {b}: bounds do not bracket zero"
        if expected is not None:
            got = {(b, m): (u, d) for b, m, u, d in rep.rows}
            if len(got) != len(expected):
                return "row count differs from reference"
            for b, m, u, d in expected:
                gu, gd = got.get((b, m), (math.inf, math.inf))
                if abs(gu - u) > REFERENCE_TOL or abs(gd - d) > REFERENCE_TOL:
                    return f"bus {b} mode {m} differs from reference"
        return None


class ShadowOracle(Workload):
    """Small random systems: FM shadow against per-point LP membership."""

    name = "shadow-oracle"
    index = 3
    instances_per_pass = 100
    probes_per_instance = 30
    band = 1e-6

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        self.instances = []
        for k in range(self.instances_per_pass):
            # The acceptance criterion 2 generator (box, balance, 5 random
            # rows), except that the internal dimension cycles through 1-3
            # instead of being drawn: it sets most of an instance's cost.
            n_i = 1 + k % 3
            dim = n_i + 2
            hi = 0.5 + rng.random(dim)
            lo = -(0.5 + rng.random(dim))
            a = np.vstack([np.eye(dim), -np.eye(dim), np.ones((1, dim)),
                           -np.ones((1, dim)), rng.normal(size=(5, dim))])
            b = np.concatenate([hi, -lo, np.zeros(2),
                                np.abs(rng.normal(size=5)) + 0.3])
            points = rng.uniform(-1.6, 1.6, size=(self.probes_per_instance, 2))
            self.instances.append((n_i, a, b, points))

    def inputs(self):
        return {"instances": [
            {"n_i": n_i, "A": a.tolist(), "b": b.tolist(), "points": p.tolist()}
            for n_i, a, b, p in self.instances]}

    def run_pass(self, record, in_process=False):
        gf = _gf()
        lp = importlib.import_module("gridflex.lp")
        for k, (n_i, a, b, points) in enumerate(self.instances):
            labels = tuple(f"i{j}" for j in range(n_i)) + ("e0", "e1")
            started = perf_counter()
            err = None
            try:
                poly = gf.HPolytope(a, b, labels)
                shadow = gf.project(poly, ["e0", "e1"])
                area = gf.area_2d(shadow)
                a_int, a_ext = a[:, :n_i], a[:, n_i:]
                for point in points:
                    margin = float(np.min(shadow.b - shadow.A @ point))
                    if abs(margin) <= self.band:
                        continue
                    rhs = b - a_ext @ point
                    oracle = lp.maximize(np.zeros(n_i), a_int, rhs + 1e-9).optimal
                    if (margin > 0) != oracle and err is None:
                        err = f"shadow and LP oracle disagree at {point.tolist()}"
            except Exception as exc:
                area, err = math.nan, _failure(exc)
            seconds = perf_counter() - started
            if err is None and not (math.isfinite(area) and area >= 0):
                err = f"area {area} is not finite and nonnegative"
            record(f"instance{k}", seconds, err)


class CliCommands(Workload):
    """One ``python -m gridflex.cli`` command per unit, in a fresh process.

    A traced pass calls ``gridflex.cli.main`` in-process instead, so the
    spans of the ``cli`` layer can be recorded.
    """

    name = "cli-commands"
    index = 4
    min_passes = 2  # the artifact check compares later passes with the first

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        rts, toy = str(RTS), str(TOY)
        pct = [f"{round(float(p), 4)!r}" for p in rng.uniform(0.02, 0.30, 2)]
        commands = [
            ("rts-validate", ["validate", "--case", rts]),
            ("rts-atc", ["atc", "--case", rts]),
            ("rts-maxdev", ["maxdev", "--case", rts, "--reserve-pct", pct[0]]),
            ("toy-build", ["build", "--case", toy]),
            ("toy-metrics", ["metrics", "--case", toy]),
            ("toy-atc", ["atc", "--case", toy]),
            ("toy-maxdev", ["maxdev", "--case", toy, "--reserve-pct", pct[1]]),
            ("toy-plotdata", ["plotdata", "--case", toy]),
        ]
        order = rng.permutation(len(commands))
        self.commands = [commands[i] for i in order]
        self.first: dict[tuple[bool, str], dict[str, bytes]] = {}
        self.passes = 0

    def inputs(self):
        return {"commands": [[name] + [a if not a.endswith(".json")
                                       else Path(a).name for a in args]
                             for name, args in self.commands]}

    def setup_cases(self):
        return [str(RTS), str(TOY)]

    def setup(self):
        # In-process passes need the CLI module; import it before any pass
        # is timed.
        importlib.import_module("gridflex.cli")

    def run_pass(self, record, in_process=False):
        self.passes += 1
        base = self.work_dir / "cli" / f"pass{self.passes}"
        if base.exists():
            shutil.rmtree(base)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        for name, args in self.commands:
            out_dir = base / name
            argv = ["--out-dir", str(out_dir), *args]
            started = perf_counter()
            if in_process:
                code, stdout, detail = self._call(argv)
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "gridflex.cli", *argv], env=env,
                    capture_output=True, timeout=150)
                code, stdout, detail = (proc.returncode, proc.stdout,
                                        proc.stderr.decode(errors="replace"))
            seconds = perf_counter() - started
            record(name, seconds, self._check(in_process, name, args[0], code,
                                              stdout, detail, out_dir))

    @staticmethod
    def _call(argv):
        main = importlib.import_module("gridflex.cli").main
        out, err = io.StringIO(), io.StringIO()
        code, detail = 0, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=argv, prog_name="gridflex", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(
                    exc.code is not None)
            except Exception as exc:
                code, detail = 1, f"{type(exc).__name__}: {exc}"
        return code, out.getvalue().encode(), detail or err.getvalue()

    def _check(self, in_process, name, command, code, stdout, detail, out_dir):
        if code != 0:
            return f"exit {code}: {detail.strip()[-300:]}"
        if command == "validate":
            artifacts = {"<stdout>": stdout}
        else:
            artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
            if not artifacts:
                return "no artifacts written"
        first = self.first.setdefault((in_process, name), artifacts)
        if artifacts != first:
            return "artifacts differ from the first pass of this run"
        return None


WORKLOADS = {w.name: w for w in (ExportLattice, NeighborMaxdev, ShadowOracle,
                                 CliCommands)}


def make(name: str, seed: int, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, work_dir)
