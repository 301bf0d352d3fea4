"""Two-area DC network cases: loading, validation, scaling, partitioning.

A :class:`NetworkCase` is the ground truth every other module works
from.  Cases are immutable after construction; operations that change
the operating point (:func:`scale_load`, :func:`configure_reserves`)
return new cases.

Conventions
-----------
* All powers are per unit on a 100 MVA base.
* The first entry of ``areas`` is the study area, the second the
  neighbor.
* Line flows are positive from ``from_bus`` to ``to_bus``; thermal
  limits are symmetric.
* Tie-line deviations are measured as power imported into the study
  area, so the sum of all source deviations (internal generation plus
  tie imports) is zero whenever the area stays balanced.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

from .errors import CaseError

BALANCE_TOL = 1e-6
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Bus:
    """Network node with a fixed active-power load."""

    id: int
    area_id: str
    load_pu: float


@dataclass(frozen=True)
class TransmissionLine:
    """Branch with a symmetric thermal limit.

    ``is_tie`` is derived at load time, not read from the file: true
    iff the endpoint areas differ.
    """

    id: str
    from_bus: int
    to_bus: int
    reactance_pu: float
    flow_limit_pu: float
    is_tie: bool = field(default=False, metadata={"derived": True})


@dataclass(frozen=True)
class Generator:
    """Dispatchable unit.

    ``res_up_pu`` and ``res_dn_pu`` bound the deviations from the
    setpoint that the operator may command; they always fit inside
    ``[p_min_pu, p_max_pu]``.
    """

    id: str
    bus: int
    p_sched_pu: float
    p_min_pu: float
    p_max_pu: float
    res_up_pu: float = 0.0
    res_dn_pu: float = 0.0

    @property
    def capacity_pu(self) -> float:
        return self.p_max_pu


@dataclass(frozen=True)
class NetworkCase:
    """Validated two-area network with a balanced dispatch."""

    name: str
    buses: tuple[Bus, ...]
    lines: tuple[TransmissionLine, ...]
    generators: tuple[Generator, ...]
    areas: tuple[str, str]
    reference_bus: int
    mva_base: float = 100.0
    atc_a_to_b_pu: float | None = None
    atc_b_to_a_pu: float | None = None

    @property
    def study_area(self) -> str:
        return self.areas[0]

    @property
    def neighbor_area(self) -> str:
        return self.areas[1]

    def bus_map(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    def tie_lines(self) -> tuple[TransmissionLine, ...]:
        return tuple(ln for ln in self.lines if ln.is_tie)

    def area_generators(self, area_id: str) -> tuple[Generator, ...]:
        in_area = {b.id for b in self.buses if b.area_id == area_id}
        return tuple(g for g in self.generators if g.bus in in_area)

    def total_load(self) -> float:
        return sum(b.load_pu for b in self.buses)

    def total_generation(self) -> float:
        return sum(g.p_sched_pu for g in self.generators)

    def to_dict(self) -> dict:
        """Canonical dictionary form (sorted element order)."""
        atc = None
        if self.atc_a_to_b_pu is not None or self.atc_b_to_a_pu is not None:
            atc = {"a_to_b_pu": self.atc_a_to_b_pu, "b_to_a_pu": self.atc_b_to_a_pu}
        return {
            "name": self.name,
            "mva_base": self.mva_base,
            "areas": list(self.areas),
            "reference_bus": self.reference_bus,
            "atc": atc,
            "buses": [_record_dict(b) for b in sorted(self.buses, key=lambda b: b.id)],
            "lines": [_record_dict(ln) for ln in sorted(self.lines, key=_line_key)],
            "generators": [_record_dict(g) for g in
                           sorted(self.generators, key=lambda g: (g.bus, g.id))],
        }

    def case_hash(self) -> str:
        return self._case_hash

    @cached_property
    def _case_hash(self) -> str:
        """Hash of the canonical form, computed once per case object."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _line_key(ln: TransmissionLine) -> tuple:
    return (ln.from_bus, ln.to_bus, ln.id)


@dataclass(frozen=True)
class TieAttachment:
    """A tie line seen from the study side of one area.

    ``import_sign`` converts a flow in file orientation into power
    imported into the area: +1 when ``to_bus`` lies inside the area,
    -1 when ``from_bus`` does.
    """

    line: TransmissionLine
    boundary_bus: int
    import_sign: float


@dataclass(frozen=True)
class AreaView:
    """Deterministic per-area indexing of buses, lines, and sources.

    Internal sources are the generator buses with a nonzero reserve
    band, ordered by ascending bus id; external sources are the tie
    lines, ordered like internal lines by ``(from, to, id)``.  These
    orderings fix the meaning of every deviation vector downstream.
    """

    case: NetworkCase
    area: str
    neighbor: str
    buses: tuple[Bus, ...]
    internal_lines: tuple[TransmissionLine, ...]
    ties: tuple[TieAttachment, ...]
    source_buses: tuple[int, ...]
    reference_bus: int

    @property
    def n_i(self) -> int:
        return len(self.source_buses)

    @property
    def n_e(self) -> int:
        return len(self.ties)

    @property
    def internal_labels(self) -> tuple[str, ...]:
        return tuple(f"bus:{b}" for b in self.source_buses)

    @property
    def external_labels(self) -> tuple[str, ...]:
        return tuple(f"tie:{t.line.id}" for t in self.ties)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.internal_labels + self.external_labels

    @property
    def line_ids(self) -> tuple[str, ...]:
        """Row order of every line-indexed matrix: internal lines then ties."""
        return tuple(ln.id for ln in self.internal_lines) + tuple(
            t.line.id for t in self.ties)

    def area_generators(self) -> tuple[Generator, ...]:
        return self.case.area_generators(self.area)


# Field type -> (conversion, the JSON types it accepts); never a bool.
_KINDS = {"int": (int, (int, float)), "float": (float, (int, float)),
          "str": (str, (str,)), "list": (list, (list,)), "dict": (dict, (dict,))}


def _convert(value, kind: str, context: str, key: str):
    """``value`` as a field of type ``kind``: numbers must be finite, and
    an ``int`` field takes no fractional part."""
    cast, accepts = _KINDS[kind]
    try:
        if isinstance(value, bool) or not isinstance(value, accepts):
            raise TypeError
        out = cast(value)
        if cast in (int, float) and not (math.isfinite(out) and out == value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise CaseError(f"{context}: key '{key}' is not a valid {kind} "
                        f"({reprlib.repr(value)})") from None
    return out


def _read(raw, schema, context: str) -> dict:
    """Checked values of the ``(key, type, default)`` entries of ``schema``
    from one JSON object; a key that is absent or null takes its default."""
    if not isinstance(raw, dict):
        raise CaseError(f"{context}: not a JSON object")
    out = {}
    for key, kind, default in schema:
        if raw.get(key) is not None:
            out[key] = _convert(raw[key], kind, context, key)
        elif default is MISSING:
            raise CaseError(f"{context}: missing key '{key}'")
        else:
            out[key] = default
    return out


# The file schema of each record: every field that is not derived.
_SCHEMA = {cls: tuple((f.name, f.type, f.default) for f in fields(cls)
                      if not f.metadata.get("derived"))
           for cls in (Bus, TransmissionLine, Generator)}
_CASE_SCHEMA = (("areas", "list", MISSING), ("reference_bus", "int", MISSING),
                ("mva_base", "float", 100.0), ("atc", "dict", {}),
                ("buses", "list", MISSING), ("lines", "list", MISSING),
                ("generators", "list", MISSING))


def _record_dict(record) -> dict:
    return {key: getattr(record, key) for key, _, _ in _SCHEMA[type(record)]}


def case_from_dict(raw: dict, name: str = "case") -> NetworkCase:
    """Build and validate a :class:`NetworkCase` from parsed JSON against
    the record dataclasses; top-level errors are reported under ``name``."""
    top = _read(raw, (("name", "str", name),) + _CASE_SCHEMA, name)
    areas = top["areas"]
    if not (len(areas) == 2 and all(isinstance(a, str) for a in areas)
            and areas[0] != areas[1]):
        raise CaseError("'areas' must list exactly two distinct area ids")
    atc = _read(top["atc"], (("a_to_b_pu", "float", None),
                             ("b_to_a_pu", "float", None)), "atc")
    bus_kw, line_kw, gen_kw = (
        [_read(r, _SCHEMA[cls], f"{noun} #{i}") for i, r in enumerate(top[key])]
        for key, cls, noun in (("buses", Bus, "bus"),
                               ("lines", TransmissionLine, "line"),
                               ("generators", Generator, "generator")))
    buses = tuple(Bus(**kw) for kw in bus_kw)
    bus_area = {b.id: b.area_id for b in buses}
    lines = tuple(TransmissionLine(**kw, is_tie=bus_area.get(kw["from_bus"])
                                   != bus_area.get(kw["to_bus"]))
                  for kw in line_kw)
    case = NetworkCase(
        name=top["name"],
        buses=buses,
        lines=lines,
        generators=tuple(Generator(**kw) for kw in gen_kw),
        areas=(areas[0], areas[1]),
        reference_bus=top["reference_bus"],
        mva_base=top["mva_base"],
        atc_a_to_b_pu=atc["a_to_b_pu"],
        atc_b_to_a_pu=atc["b_to_a_pu"],
    )
    validate_case(case)
    return case


def load_case(path: str) -> NetworkCase:
    """Load, parse, and validate a case file.

    Raises :class:`CaseError` for a missing or malformed file and for
    any violated model invariant, naming the offending element.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CaseError(f"case file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CaseError(f"case file is not valid JSON: {path} ({exc})")
    return case_from_dict(raw, name=str(path))


def validate_case(case: NetworkCase) -> None:
    """Check every model invariant; raise :class:`CaseError` on the first failure."""
    seen: set[int] = set()
    for b in case.buses:
        if b.id in seen:
            raise CaseError("duplicate bus id", b.id)
        seen.add(b.id)
        if b.load_pu < 0:
            raise CaseError("bus load must be nonnegative", b.id)
        if b.area_id not in case.areas:
            raise CaseError(f"bus area '{b.area_id}' not in declared areas", b.id)
    bus_map = case.bus_map()

    seen_lines: set[str] = set()
    for ln in case.lines:
        if ln.id in seen_lines:
            raise CaseError("duplicate line id", ln.id)
        seen_lines.add(ln.id)
        if ln.from_bus == ln.to_bus:
            raise CaseError("line endpoints must differ", ln.id)
        for end in (ln.from_bus, ln.to_bus):
            if end not in bus_map:
                raise CaseError(f"line endpoint {end} is not a bus", ln.id)
        if ln.reactance_pu <= 0:
            raise CaseError("line reactance must be positive", ln.id)
        if ln.flow_limit_pu <= 0:
            raise CaseError("line flow limit must be positive", ln.id)

    seen_gens: set[str] = set()
    for g in case.generators:
        if g.id in seen_gens:
            raise CaseError("duplicate generator id", g.id)
        seen_gens.add(g.id)
        if g.bus not in bus_map:
            raise CaseError(f"generator bus {g.bus} is not a bus", g.id)
        if not (g.p_min_pu - _BOUND_TOL <= g.p_sched_pu <= g.p_max_pu + _BOUND_TOL):
            raise CaseError("generator setpoint outside [p_min, p_max]", g.id)
        if g.res_up_pu < 0 or g.res_dn_pu < 0:
            raise CaseError("generator reserves must be nonnegative", g.id)
        if g.p_sched_pu + g.res_up_pu > g.p_max_pu + _BOUND_TOL:
            raise CaseError("upward reserve exceeds capacity headroom", g.id)
        if g.p_sched_pu - g.res_dn_pu < g.p_min_pu - _BOUND_TOL:
            raise CaseError("downward reserve crosses minimum output", g.id)

    if case.reference_bus not in bus_map:
        raise CaseError("reference bus is not a bus", case.reference_bus)
    if bus_map[case.reference_bus].area_id != case.study_area:
        raise CaseError("reference bus must lie in the study area",
                        case.reference_bus)

    if not any(ln.is_tie for ln in case.lines):
        raise CaseError("at least one tie-line is required")
    for area in case.areas:
        if not any(b.area_id == area for b in case.buses):
            raise CaseError(f"area '{area}' has no buses")

    for area in case.areas:
        ids = [b.id for b in case.buses if b.area_id == area]
        edges = [(ln.from_bus, ln.to_bus) for ln in case.lines if not ln.is_tie
                 and bus_map[ln.from_bus].area_id == area]
        if not _connected(ids, edges):
            raise CaseError(f"area '{area}' subnetwork is not connected")
    all_edges = [(ln.from_bus, ln.to_bus) for ln in case.lines]
    if not _connected([b.id for b in case.buses], all_edges):
        raise CaseError("network graph is not connected")

    imbalance = case.total_generation() - case.total_load()
    if abs(imbalance) > BALANCE_TOL:
        raise CaseError(
            f"dispatch is unbalanced by {imbalance:+.3e} pu (tolerance {BALANCE_TOL:g})")

    # The scheduled flows themselves must respect every thermal limit.
    from .sensitivity import compute_dc_flows

    limits = {ln.id: ln.flow_limit_pu for ln in case.lines}
    flows = compute_dc_flows(case)
    for lid, f in zip(flows.line_ids, flows.p_line_pu):
        if abs(f) > limits[lid] + _BOUND_TOL:
            raise CaseError(
                f"scheduled flow {f:+.4f} pu exceeds limit {limits[lid]:.4f} pu", lid)


def _connected(bus_ids: list[int], edges: list[tuple[int, int]]) -> bool:
    if not bus_ids:
        return True
    adj: dict[int, list[int]] = {b: [] for b in bus_ids}
    for f, t in edges:
        if f in adj and t in adj:
            adj[f].append(t)
            adj[t].append(f)
    stack = [bus_ids[0]]
    seen = {bus_ids[0]}
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(bus_ids)


def scale_load(case: NetworkCase, factor: float) -> NetworkCase:
    """Scale every load by ``factor`` and rebalance the dispatch.

    All generator setpoints are scaled by the ratio of total scaled
    load to total original generation, keeping the relative dispatch
    pattern.  The result is re-validated, so a setpoint pushed outside
    a generator bound or reserve band raises :class:`CaseError` naming
    the unit.
    """
    if factor <= 0:
        raise CaseError(f"load scale factor must be positive, got {factor}")
    total_gen = case.total_generation()
    if total_gen <= 0:
        raise CaseError("cannot rebalance a case with zero total generation")
    ratio = factor * case.total_load() / total_gen
    buses = tuple(replace(b, load_pu=b.load_pu * factor) for b in case.buses)
    gens = tuple(replace(g, p_sched_pu=g.p_sched_pu * ratio)
                 for g in case.generators)
    scaled = replace(case, buses=buses, generators=gens)
    validate_case(scaled)
    return scaled


@dataclass(frozen=True)
class ReserveConfig:
    """How generator reserve bands are derived for an analysis.

    mode
        ``"file"`` keeps the bands stored in the case, ``"full"``
        opens each unit up to its capacity limits, ``"fraction"``
        grants ``fraction`` times the setpoint in each direction
        (clipped to the capacity limits).
    units
        When given, only the listed unit ids keep a nonzero band.
    """

    mode: str = "file"
    fraction: float = 0.0
    units: tuple[str, ...] | None = None

    def describe(self) -> str:
        tag = self.mode if self.mode != "fraction" else f"fraction={self.fraction:g}"
        if self.units is not None:
            tag += f";units={','.join(self.units)}"
        return tag


def configure_reserves(case: NetworkCase, config: ReserveConfig) -> NetworkCase:
    """Return a copy of ``case`` with reserve bands set per ``config``."""
    if config.mode not in ("file", "full", "fraction"):
        raise CaseError(f"unknown reserve mode '{config.mode}'")
    if config.mode == "fraction" and not (math.isfinite(config.fraction)
                                          and config.fraction >= 0):
        raise CaseError("reserve fraction must be finite and nonnegative, "
                        f"got {config.fraction:g}")
    allowed = None if config.units is None else set(config.units)
    if allowed is not None:
        known = {g.id for g in case.generators}
        for uid in allowed:
            if uid not in known:
                raise CaseError("reserve unit filter names unknown generator", uid)
    gens = []
    for g in case.generators:
        if allowed is not None and g.id not in allowed:
            gens.append(replace(g, res_up_pu=0.0, res_dn_pu=0.0))
            continue
        if config.mode == "file":
            gens.append(g)
        elif config.mode == "full":
            gens.append(replace(
                g,
                res_up_pu=max(0.0, g.p_max_pu - g.p_sched_pu),
                res_dn_pu=max(0.0, g.p_sched_pu - g.p_min_pu),
            ))
        else:
            band = config.fraction * g.p_sched_pu
            gens.append(replace(
                g,
                res_up_pu=min(band, max(0.0, g.p_max_pu - g.p_sched_pu)),
                res_dn_pu=min(band, max(0.0, g.p_sched_pu - g.p_min_pu)),
            ))
    return replace(case, generators=tuple(gens))


def partition(case: NetworkCase, area: str | None = None) -> AreaView:
    """Split the case into the view of one area (default: the study area).

    Internal sources are generator buses with a nonzero reserve band,
    ordered by ascending bus id.  External sources are the tie lines,
    ordered by ``(from_bus, to_bus, id)``.  Lines with both ends inside
    the area are internal regardless of how the file spells them.
    """
    if area is None:
        area = case.study_area
    if area not in case.areas:
        raise CaseError(f"unknown area '{area}'")
    neighbor = case.areas[1] if area == case.areas[0] else case.areas[0]
    bus_map = case.bus_map()
    in_area = {b.id for b in case.buses if b.area_id == area}

    buses = tuple(sorted((b for b in case.buses if b.id in in_area),
                         key=lambda b: b.id))
    internal = tuple(sorted(
        (ln for ln in case.lines
         if ln.from_bus in in_area and ln.to_bus in in_area), key=_line_key))
    ties = []
    for ln in sorted((ln for ln in case.lines if ln.is_tie), key=_line_key):
        if ln.to_bus in in_area:
            ties.append(TieAttachment(ln, boundary_bus=ln.to_bus, import_sign=1.0))
        elif ln.from_bus in in_area:
            ties.append(TieAttachment(ln, boundary_bus=ln.from_bus, import_sign=-1.0))

    band = {}
    for g in case.generators:
        if g.bus in in_area:
            band[g.bus] = band.get(g.bus, 0.0) + g.res_up_pu + g.res_dn_pu
    sources = tuple(sorted(b for b, w in band.items() if w > 0.0))

    if bus_map[case.reference_bus].area_id == area:
        reference = case.reference_bus
    else:
        gen_buses = sorted({g.bus for g in case.generators if g.bus in in_area})
        reference = gen_buses[0] if gen_buses else buses[0].id

    return AreaView(
        case=case, area=area, neighbor=neighbor, buses=buses,
        internal_lines=internal, ties=tuple(ties), source_buses=sources,
        reference_bus=reference,
    )
