"""Command-line front end.

Exit codes: 0 success, 1 computational failure, 2 usage or input error.
All artifacts embed the configuration and case hashes and contain no
timestamps, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import __version__, lp
from .analysis import (FlexibilitySpec, Study, compare_utilization,
                       exported_flexibility, nodal_deviation_report)
from .errors import CaseError, GridflexError
from .network import ReserveConfig, load_case, partition, scale_load
from .polytope import (CONTAIN_TOL, DEFAULT_ROW_CAP, REDUNDANCY_TOL, HPolytope,
                       hull_2d, vertices, write_vertices_csv)
from .sensitivity import compute_dc_flows

_EXIT_COMPUTE = 1
_EXIT_USAGE = 2


def _split(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _ids(opts: dict, key: str) -> tuple[str, ...] | None:
    """Ids of a comma-separated option; ``None`` when it is not given."""
    ids = None if opts[key] is None else _split(opts[key])
    if ids == ():
        raise CaseError(f"--{key.replace('_', '-')} names no id; omit it instead")
    return ids


def _sanitize(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in label)


def _finite_positive(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and positive, got {value}")
    return value


def _guard(fn):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GridflexError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_EXIT_USAGE if isinstance(exc, CaseError) else _EXIT_COMPUTE)

    return wrapper


def case_options(fn):
    fn = click.option("--case", "case_path", required=True,
                      type=click.Path(), help="Case file (JSON).")(fn)
    fn = click.option("--scale", default=1.0, show_default=True,
                      help="Uniform load scale factor in (0, 1].")(fn)
    fn = click.option("--reserves", "reserve_mode", default="file",
                      type=click.Choice(["file", "full", "fraction"]),
                      show_default=True,
                      help="How generator reserve bands are derived.")(fn)
    fn = click.option("--reserve-fraction", default=0.0, show_default=True,
                      help="Band as a fraction of the setpoint "
                           "(mode 'fraction').")(fn)
    fn = click.option("--reserve-units", default=None,
                      help="Comma-separated unit ids allowed to provide "
                           "reserves (default: all).")(fn)
    return fn


def spec_options(fn):
    fn = click.option("--approach", default="active", show_default=True,
                      type=click.Choice(["active", "passive"]))(fn)
    fn = click.option("--security", default="n", show_default=True,
                      type=click.Choice(["n", "n1"]))(fn)
    fn = click.option("--gen-outages", default=None,
                      help="Comma-separated unit ids (default: every "
                           "dispatched unit).")(fn)
    fn = click.option("--line-outages", default=None,
                      help="Comma-separated line ids (default: every "
                           "non-bridge study-area line).")(fn)
    fn = click.option("--strict-line-outages", is_flag=True, default=False,
                      help="Bound physical post-outage flows instead of the "
                           "redistribution term alone.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
@click.option("--out-dir", default=None, envvar="GRIDFLEX_OUT_DIR",
              show_default="current directory",
              help="Directory for output artifacts (env: GRIDFLEX_OUT_DIR).")
@click.option("--feas-tol", default=1e-7, show_default=True,
              callback=_finite_positive,
              help="LP primal and dual feasibility tolerance for this "
                   "command; the default is HiGHS's own.")
@click.option("--redund-tol", default=REDUNDANCY_TOL, show_default=True,
              callback=_finite_positive,
              help="Slack within which an LP confirms a projection facet.")
@click.option("--contain-tol", default=CONTAIN_TOL, show_default=True,
              callback=_finite_positive, help="Containment check tolerance.")
@click.option("--row-cap", default=DEFAULT_ROW_CAP, show_default=True,
              type=click.IntRange(min=1),
              help="Abort threshold for the facet count of a projection.")
@click.pass_context
def main(ctx, out_dir, feas_tol, redund_tol, contain_tol, row_cap):
    """Flexibility polytopes for two-area DC power systems."""
    ctx.with_resource(lp.feasibility_tolerance(feas_tol))
    ctx.obj = dict(ctx.params, out_dir=out_dir or ".")


def _setup(ctx, opts: dict):
    """Case, reserves, flexibility spec (for commands that take one) and
    the metadata every artifact of the command carries.

    The configuration hash covers the command, its options, the case
    content and every global option that can change an artifact.
    """
    scale = opts["scale"]
    if not 0.0 < scale <= 1.0:
        raise CaseError(f"--scale must lie in (0, 1], got {scale}")
    _check_out_dir(ctx.obj["out_dir"])
    case = load_case(opts["case_path"])
    if scale != 1.0:
        case = scale_load(case, scale)
    reserves = ReserveConfig(mode=opts["reserve_mode"],
                             fraction=opts["reserve_fraction"],
                             units=_ids(opts, "reserve_units"))
    spec = None
    if "approach" in opts:
        spec = FlexibilitySpec(
            approach=opts["approach"],
            security=opts["security"],
            reserves=reserves,
            gen_outages=_ids(opts, "gen_outages"),
            line_outages=_ids(opts, "line_outages"),
            strict_line_outages=opts["strict_line_outages"],
        )
    config = {k: v for k, v in {**ctx.obj, **opts}.items()
              if k not in ("out_dir", "case_path")}
    config.update(command=ctx.info_name, case_hash=case.case_hash())
    blob = json.dumps(config, sort_keys=True).encode()
    meta = {"config_hash": hashlib.sha256(blob).hexdigest(),
            "case_hash": config["case_hash"], "tool": f"gridflex {__version__}"}
    return case, reserves, spec, meta


def _check_out_dir(out_dir: str) -> None:
    """Fail before any work when a file stands at ``out_dir`` or above it,
    with the error :func:`os.makedirs` would give; creates nothing."""
    target = path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        code = errno.EEXIST if path == target else errno.ENOTDIR
        raise CaseError(f"cannot create output directory {out_dir}: "
                        f"{os.strerror(code)}")


def _out_path(ctx, name: str) -> str:
    out_dir = ctx.obj["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise CaseError(f"cannot create output directory {out_dir}: "
                        f"{exc.strerror or exc}")
    return os.path.join(out_dir, name)


def _write_json(ctx, name: str, record: dict, meta: dict) -> str:
    """Write one JSON artifact; ``meta`` is merged into its ``meta`` record."""
    record = {**record, "meta": {**record.get("meta", {}), **meta}}
    path = _out_path(ctx, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


@main.command()
@case_options
@spec_options
@click.pass_context
@_guard
def build(ctx, **opts):
    """Build the flexibility set and its tie-deviation projection."""
    case, _, spec, meta = _setup(ctx, opts)
    study = Study.build(case, spec.reserves)
    block = study.assemble(spec)
    started = time.perf_counter()
    fe = study.project_block(block, spec, tol=ctx.obj["redund_tol"],
                             row_cap=ctx.obj["row_cap"])
    elapsed = time.perf_counter() - started
    flex = study.flexibility_set(block, spec)

    set_path = _write_json(ctx, "flexibility_set.json", block.to_json_dict(), meta)
    poly_path = _write_json(ctx, "external_polytope.json", fe.to_json_dict(), meta)

    click.echo(f"{'stage':<28}{'rows':>8}")
    click.echo(f"{'assembled constraints':<28}{block.nrows:>8}")
    click.echo(f"{'flexibility set (dims)':<28}{flex.dim:>8}")
    click.echo(f"{'projected tie polytope':<28}{fe.poly.nrows:>8}")
    click.echo(f"projection time: {elapsed:.2f} s")
    click.echo(f"wrote {set_path}")
    click.echo(f"wrote {poly_path}")


@main.command()
@case_options
@spec_options
@click.pass_context
@_guard
def metrics(ctx, **opts):
    """Exported flexibility: pairwise projection areas and their sum."""
    case, _, spec, meta = _setup(ctx, opts)
    fe = Study.build(case, spec.reserves).export(
        spec, tol=ctx.obj["redund_tol"], row_cap=ctx.obj["row_cap"])
    report = exported_flexibility(fe)
    path = _write_json(ctx, "exported_flexibility.json", report.to_json_dict(), meta)
    click.echo(f"{'tie pair':<40}{'area (pu^2)':>14}")
    for x, y, area in report.pair_areas:
        click.echo(f"{x + ' / ' + y:<40}{area:>14.4f}")
    click.echo(f"{'total':<40}{report.total:>14.4f}")
    click.echo(f"wrote {path}")


@main.command()
@case_options
@spec_options
@click.option("--atc-ab", default=None, type=float,
              help="Transfer capacity study->neighbor (default: case value).")
@click.option("--atc-ba", default=None, type=float,
              help="Transfer capacity neighbor->study (default: case value).")
@click.pass_context
@_guard
def atc(ctx, **opts):
    """Compare the active tie polytope against the transfer-capacity set."""
    case, _, spec, meta = _setup(ctx, opts)
    study = Study.build(case, spec.reserves)
    atc_fe = study.atc_polytope(opts["atc_ab"], opts["atc_ba"])
    fe = study.export(spec, tol=ctx.obj["redund_tol"], row_cap=ctx.obj["row_cap"])
    comparison = compare_utilization(fe, atc_fe, tol=ctx.obj["contain_tol"])
    path = _write_json(ctx, "atc_comparison.json", comparison.to_json_dict(), meta)
    click.echo(f"active within transfer set: {comparison.active_within_atc}")
    click.echo(f"transfer set within active: {comparison.atc_within_active}")
    click.echo(f"total areas (pu^2): active {comparison.total_active:.4f}, "
               f"transfer {comparison.total_atc:.4f}")
    click.echo(f"wrote {path}")


@main.command()
@case_options
@click.option("--reserve-pct", default=0.05, show_default=True,
              help="Neighbor reserve band as a fraction of each setpoint.")
@click.option("--modes", default="passive,active,atc", show_default=True,
              help="Comma-separated subset of passive,active,atc.")
@click.option("--security", default="n", show_default=True,
              type=click.Choice(["n", "n1"]),
              help="Security level of the exporter's communicated sets.")
@click.option("--atc-ab", default=None, type=float)
@click.option("--atc-ba", default=None, type=float)
@click.option("--neighbor-security", is_flag=True, default=False,
              help="Apply the neighbor's own outage bands in the LPs.")
@click.pass_context
@_guard
def maxdev(ctx, **opts):
    """Per-bus maximum deviations in the neighbor area."""
    case, reserves, _, meta = _setup(ctx, opts)
    exporter = (reserves if opts["reserve_mode"] != "file"
                else ReserveConfig(mode="full", units=reserves.units))
    report = nodal_deviation_report(
        case, reserve_fraction=opts["reserve_pct"],
        modes=_split(opts["modes"]), exporter_reserves=exporter,
        security=opts["security"],
        atc_ab=opts["atc_ab"], atc_ba=opts["atc_ba"],
        include_neighbor_security=opts["neighbor_security"],
        tol=ctx.obj["redund_tol"], row_cap=ctx.obj["row_cap"])
    path = _out_path(ctx, "max_deviations.csv")
    report.to_csv(path, meta=meta)
    click.echo(f"{'bus':>6}{'mode':>10}{'max up':>12}{'max dn':>12}")
    for bus, mode, up, dn in report.rows:
        click.echo(f"{bus:>6}{mode:>10}{up:>12.4f}{dn:>12.4f}")
    click.echo(f"wrote {path}")


@main.command()
@case_options
@spec_options
@click.option("--slice-at", default=0.0, show_default=True,
              help="Fixed coordinate value for 2-D cuts of 3-tie sets.")
@click.pass_context
@_guard
def plotdata(ctx, **opts):
    """Vertex CSVs for every tie pair projection and, with three ties,
    every fixed-coordinate cut."""
    case, _, spec, meta = _setup(ctx, opts)
    ties = partition(case).ties
    if len(ties) < 2:
        raise CaseError("plotdata needs at least two ties; the study area "
                        f"has one, {ties[0].line.id}")
    slice_at = opts["slice_at"]
    fe = Study.build(case, spec.reserves).export(
        spec, tol=ctx.obj["redund_tol"], row_cap=ctx.obj["row_cap"])
    labels = fe.labels
    verts = fe.vertices
    if len(labels) == 3:
        for k, (lo, hi) in enumerate(zip(verts.min(axis=0), verts.max(axis=0))):
            if not lo <= slice_at <= hi:
                raise CaseError(f"--slice-at {slice_at:g} lies outside the range "
                                f"[{lo:g}, {hi:g}] of {labels[k]}")
    for (i, x), (j, y) in itertools.combinations(enumerate(labels), 2):
        path = _out_path(ctx, f"proj_{_sanitize(x)}__{_sanitize(y)}.csv")
        write_vertices_csv(path, hull_2d(verts[:, [i, j]]), header=f"{x},{y}",
                           meta={**meta, "kind": "projection"})
        click.echo(f"wrote {path}")
    if len(labels) == 3:
        a, b = fe.poly.A, fe.poly.b
        for k, fixed in enumerate(labels):
            others = labels[:k] + labels[k + 1:]
            cut = HPolytope(np.delete(a, k, axis=1), b - a[:, k] * slice_at, others)
            path = _out_path(ctx, f"cut_{_sanitize(fixed)}.csv")
            write_vertices_csv(path, hull_2d(vertices(cut)[:, :2]),
                               header=",".join(others[:2]),
                               meta={**meta, "kind": "cut",
                                     "fixed": fixed, "value": slice_at})
            click.echo(f"wrote {path}")


@main.command()
@click.option("--case", "case_path", required=True, type=click.Path())
@click.pass_context
@_guard
def validate(ctx, case_path):
    """Load and validate a case file; report its shape."""
    case = load_case(case_path)
    view = partition(case)
    flows = compute_dc_flows(case)
    limit_of = {ln.id: ln.flow_limit_pu for ln in case.lines}
    worst = max(abs(f) / limit_of[l]
                for l, f in zip(flows.line_ids, flows.p_line_pu))
    click.echo(f"case:        {case.name}")
    click.echo(f"areas:       {case.areas[0]} (study), {case.areas[1]}")
    click.echo(f"buses:       {len(case.buses)}")
    click.echo(f"lines:       {len(case.lines)} ({view.n_e} ties)")
    click.echo(f"generators:  {len(case.generators)}")
    click.echo(f"total load:  {case.total_load():.4f} pu")
    click.echo(f"worst line loading: {100 * worst:.1f}% of rating")
    click.echo("case is valid")


if __name__ == "__main__":
    main()
