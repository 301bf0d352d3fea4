"""Count and digest every LP of one seed-0 pass of each benchmark workload.

    python3 tools/lp_digest.py [--save FILE] [--against FILE]

Runs one pass of each workload in ``perfbench/workloads.py`` in-process
(cli-commands too), then acceptance criterion 2 of
``tests/test_acceptance.py``, recording every ``gridflex.lp.maximize``
call, also where the acceptance module binds the name, and every
``gridflex.lp.LPSystem`` solve.  The package itself calls every LP through
``gridflex.lp``: the support LPs of a projection and the neighbor deviation
LPs solve on an ``LPSystem``, every other LP through ``maximize``.  Prints
per workload the LP count (a system solve counts as one) and a SHA-256
digest over each call's inputs (shapes and bytes), status, ``x`` and value;
a system's stack and first working rows are digested once, when it is
built.  Two trees that print the same digests solved the same LPs, in the
same order, to the same bits.  Two more columns, ``runs`` and ``iters``,
give the HiGHS runs on the systems' own models (a primal retry counts as
a run of its own) and the simplex iterations those runs took, so the
pivots a change saves show; they are left out of the digest, which stays
comparable with that of trees that do not print them.  A system's cold
full-stack solve goes through ``maximize`` and counts there as an LP.
On the ``linprog`` fallback both read 0, and every solve on a system's
working rows goes through ``maximize`` and counts as an LP as well.

The ``artifacts`` line runs a fixed battery of CLI commands
in-process and prints the number of artifacts they wrote and a SHA-256
over each run's exit code and each artifact's relative path and bytes.
Two trees that print the same line wrote byte-identical artifacts.
A last line, ``fallback``, repeats the export-lattice and neighbor-maxdev
passes with every LP on the ``linprog`` fallback, digested as one.

When the ``artifacts`` lines of two trees differ, ``--save FILE`` on one
writes that battery's exit codes and artifacts to ``FILE`` as JSON, and
``--against FILE`` on the other prints, per artifact that differs, the
largest move of a number in it, or that it differs in more than numbers
(its text apart from the numbers, or how many numbers it holds).
Nothing is written under the repository: ``FILE`` must lie outside it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / p) for p in ("src", "perfbench", "tests")]

import numpy as np  # noqa: E402

import test_acceptance  # noqa: E402
import workloads  # noqa: E402
from gridflex import lp  # noqa: E402


# The ``artifacts`` battery: (case, command, options) per CLI run.
_CLI_RUNS = (
    (workloads.RTS, "build", "--reserves full --security n1"),
    (workloads.RTS, "metrics", "--approach passive --security n1 --reserves full"),
    (workloads.RTS, "atc", ""),
    (workloads.RTS, "atc", "--reserves full --security n1 --scale 0.7"),
    (workloads.RTS, "maxdev", "--reserve-pct 0.1 --neighbor-security"),
    (workloads.RTS, "maxdev", "--reserve-pct 0.05 --security n1"),
    (workloads.RTS, "maxdev", "--reserve-pct 0.2 --reserves full --neighbor-security"),
    (workloads.RTS, "plotdata", "--reserves full"),
    (workloads.TOY, "build", ""),
    (workloads.TOY, "maxdev", "--reserve-pct 0.05"),
)
# The workloads the ``fallback`` line passes through again on ``linprog``.
_FALLBACK = ("export-lattice", "neighbor-maxdev")


def _update(sha, *values) -> None:
    """Feed each value's shape and float bytes to ``sha``; None counts as
    NaN."""
    for value in values:
        data = np.asarray(np.nan if value is None else value, dtype=float)
        sha.update(repr(data.shape).encode() + data.tobytes())


class _CountedRuns:
    """A system's ``_Highs`` instance that adds each ``run`` and its
    simplex iterations to ``log[2]`` and ``log[3]``."""

    def __init__(self, solver, log):
        self._solver, self._log = solver, log

    def run(self):
        status = self._solver.run()
        self._log[2] += 1
        self._log[3] += self._solver.getInfo().simplex_iteration_count
        return status

    def __getattr__(self, name):
        return getattr(self._solver, name)


@contextlib.contextmanager
def _recording(*owners):
    """Digest every ``maximize`` call in the block, made through
    ``gridflex.lp`` or through an ``owners`` module's own binding of the
    name, and every ``LPSystem`` solve: a system's stack and first working
    rows once when it is built, then per solve its ``c``, ``free`` and
    result.  Yields ``[count, sha, runs, iterations]``; a system solve
    counts as one LP, and the HiGHS runs on a system's own model, with
    their simplex iterations, are counted apart from the digest."""
    real, log = lp.maximize, [0, hashlib.sha256(), 0, 0]
    system_init, system_solve = lp.LPSystem.__init__, lp.LPSystem.maximize

    def maximize(c, a_ub, b_ub):
        res = real(c, a_ub, b_ub)
        log[0] += 1
        # The three None stand where the seam once took equalities and
        # bounds, so digests stay comparable with those of older trees.
        _update(log[1], c, a_ub, b_ub, None, None, None, res.x, res.value)
        log[1].update(res.status.encode())
        return res

    def init(system, a_ub, b_ub, working):
        system_init(system, a_ub, b_ub, working)
        if system._solver is not None:
            system._solver = _CountedRuns(system._solver, log)
        log[1].update(b"system")
        _update(log[1], system.a_ub, system.b_ub, working)

    def solve(system, c, free):
        res = system_solve(system, c, free)
        log[0] += 1
        _update(log[1], c, free, res.x, res.value)
        log[1].update(res.status.encode())
        return res

    owners = (lp,) + owners
    for owner in owners:
        owner.maximize = maximize
    lp.LPSystem.__init__, lp.LPSystem.maximize = init, solve
    try:
        yield log
    finally:
        for owner in owners:
            owner.maximize = real
        lp.LPSystem.__init__, lp.LPSystem.maximize = system_init, system_solve


def _artifacts(tmp: Path, errors: list) -> tuple[int, str, dict]:
    """Run the ``artifacts`` battery under ``tmp``; returns the number of
    artifacts written, the digest and the outputs (``run<k>`` to its exit
    code, ``run<k>/<path>`` to an artifact's text), and notes each failed
    run in ``errors``."""
    count, sha, outputs = 0, hashlib.sha256(), {}
    for k, (case, command, options) in enumerate(_CLI_RUNS):
        out_dir = tmp / "artifacts" / f"run{k}"
        code, _, detail = workloads.CliCommands._call(
            ["--out-dir", str(out_dir), command, "--case", str(case),
             *options.split()])
        if code:
            errors.append(f"artifacts run {k} ({command} {options}): exit "
                          f"{code}: {detail.strip()[-300:]}")
        sha.update(f"run {k} exit {code}\n".encode())
        outputs[f"run{k}"] = str(code)
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            sha.update(f"{path.relative_to(out_dir)} {len(data)}\n".encode() + data)
            outputs[f"run{k}/{path.relative_to(out_dir)}"] = data.decode(
                "utf-8", "replace")
            count += 1
    return count, sha.hexdigest(), outputs


# A decimal number: its digits, fraction and exponent.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _moves(saved: dict, outputs: dict) -> list[str]:
    """One line per output of ``saved`` or ``outputs`` that differs between
    them: the largest move of a number in it when only numbers differ,
    else what else differs."""
    lines = []
    for name in sorted(saved.keys() | outputs.keys()):
        old, new = saved.get(name), outputs.get(name)
        if old == new:
            continue
        if old is None or new is None:
            side = "saved" if new is None else "new"
            lines.append(f"  {name}: only in the {side} run")
            continue
        # The text between the numbers, and so how many there are.
        if _NUMBER.split(old) != _NUMBER.split(new):
            lines.append(f"  {name}: differs in more than numbers")
            continue
        old_nums, new_nums = _NUMBER.findall(old), _NUMBER.findall(new)
        moves = [abs(float(a) - float(b)) for a, b in zip(old_nums, new_nums)
                 if a != b]
        lines.append(f"  {name}: {len(moves)} of {len(old_nums)} numbers "
                     f"moved, the largest by {max(moves):.3g}")
    return lines


def _workload(name: str, tmp: Path, errors: list):
    """Set up workload ``name`` at seed 0 and return a function that runs
    one pass of it in-process, noting each failed unit in ``errors``."""
    workload = workloads.make(name, 0, tmp)
    workload.setup()
    return lambda: workload.run_pass(lambda unit, _, error: error and errors.append(
        f"{name} {unit}: {error}"), in_process=True)


def _line(name: str, log) -> str:
    return (f"{name:16s} {log[0]:7d} {log[1].hexdigest()} "
            f"runs {log[2]} iters {log[3]}")


def _outside_the_repository(name: str) -> Path:
    path = Path(name).resolve()
    if path.is_relative_to(ROOT):
        raise argparse.ArgumentTypeError(f"{name} lies inside the repository")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=_outside_the_repository, metavar="FILE",
                        help="write the artifacts battery's outputs to FILE")
    parser.add_argument("--against", type=_outside_the_repository,
                        metavar="FILE", help="report how the artifacts differ "
                        "from those a --save run wrote to FILE")
    args = parser.parse_args()
    saved = args.against and json.loads(args.against.read_text())
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            run = _workload(name, Path(tmp), errors)
            with _recording() as log:
                run()
            print(_line(name, log))
        count, digest, outputs = _artifacts(Path(tmp), errors)
        runs = [_workload(name, Path(tmp), errors) for name in _FALLBACK]
        backend, lp._backend = lp._backend, lp._solve_linprog
        try:
            with _recording() as fallback:
                for run in runs:
                    run()
        finally:
            lp._backend = backend
    with _recording(test_acceptance) as log, \
            contextlib.redirect_stdout(io.StringIO()):
        test_acceptance.test_criterion_2_projection_oracle()
    print(_line("criterion-2", log))
    print(f"{'artifacts':16s} {count:7d} {digest}")
    print(_line("fallback", fallback))
    if args.save:
        args.save.write_text(json.dumps(outputs, indent=0, sort_keys=True))
    if args.against:
        moved = _moves(saved, outputs)
        print(f"against {args.against}: {len(moved)} output(s) differ")
        for line in moved:
            print(line)
    for error in errors:
        print(f"failed: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
