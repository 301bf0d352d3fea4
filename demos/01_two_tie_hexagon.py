"""Walk the whole pipeline on a case small enough to check by hand.

Two buses, one per area, joined by two parallel ties with 1 pu of spare
capacity each.  The study area holds one generator with a 1 pu reserve
band.  Every deviation must balance, so the feasible tie imports are

    { (e1, e2) : |e1| <= 1, |e2| <= 1, |e1 + e2| <= 1 }

a hexagon of area 3.  The script builds the constraint set, projects
away the generator dimension, and prints the vertices.
"""

import importlib.resources as resources

import numpy as np

from gridflex import (FlexibilitySpec, ReserveConfig, area_2d, load_case,
                      vertices_2d)
from gridflex.analysis import Study

case = load_case(str(resources.files("gridflex") / "data" / "toy_hexagon.json"))
print(f"case '{case.name}': {len(case.buses)} buses, "
      f"{len(case.tie_lines())} ties, balanced at {case.total_load():.1f} pu")

study = Study.build(case, ReserveConfig())
spec = FlexibilitySpec("active", "n")
block = study.assemble(spec)
print(f"\nflexibility set over {study.view.labels}: {block.nrows} rows")

fe = study.project_block(block, spec)
print(f"projected onto {fe.labels}: {fe.poly.nrows} rows")

verts = vertices_2d(fe.poly)
print("\nvertices of the tie-deviation hexagon (import convention, pu):")
for v in verts:
    print(f"  ({v[0]:+.3f}, {v[1]:+.3f})")
print(f"area: {area_2d(fe.poly):.6f} pu^2")

fe_passive = study.export(FlexibilitySpec("passive", "n"))
print(f"\npassive set rows: {fe_passive.poly.nrows} "
      "(a segment: without redispatch the two ties can only swap flow)")
corners = vertices_2d(fe_passive.poly)
print("passive extreme points:", np.round(corners, 6).tolist())
