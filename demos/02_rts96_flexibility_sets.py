"""Flexibility sets of the two-area RTS-96 system at two load levels.

Builds the four tie-deviation polytopes (active/passive, with and
without single-outage security) at peak load and at 70% of it, checks
the expected inclusions, and tabulates the exported flexibility: the
summed areas of all pairwise tie projections.

Takes about two seconds.  The security cases stack a few thousand
outage rows; parallel rows merge to under a thousand before any LP, and
each LP sees at most about a hundred of them."""

import importlib.resources as resources
import time

from gridflex import (FlexibilitySpec, ReserveConfig, contains,
                      exported_flexibility, external_polytope, load_case,
                      scale_load)

case = load_case(str(resources.files("gridflex") / "data" / "rts96_2area.json"))
reserves = ReserveConfig(mode="full")  # every unit may be redispatched

for scale in (1.0, 0.7):
    working = case if scale == 1.0 else scale_load(case, scale)
    print(f"\n=== load level {scale:.0%} "
          f"(total {working.total_load():.1f} pu) ===")
    sets = {}
    for approach in ("active", "passive"):
        for security in ("n", "n1"):
            started = time.perf_counter()
            fe = external_polytope(
                working, FlexibilitySpec(approach, security, reserves))
            sets[(approach, security)] = fe
            print(f"  {approach}/{security}: {fe.poly.nrows} facets "
                  f"({time.perf_counter() - started:.1f} s)")

    print("  inclusions:")
    for inner, outer in [
        (("passive", "n1"), ("active", "n1")),
        (("active", "n1"), ("active", "n")),
        (("passive", "n"), ("active", "n")),
        (("passive", "n1"), ("passive", "n")),
    ]:
        ok = contains(sets[outer].poly, sets[inner].poly, tol=1e-6).contained
        print(f"    {'/'.join(inner)} within {'/'.join(outer)}: {ok}")

    print("  exported flexibility (pu^2):")
    for key, fe in sets.items():
        report = exported_flexibility(fe)
        pairs = ", ".join(f"{a:.1f}" for _, _, a in report.pair_areas)
        print(f"    {'/'.join(key):<12} total {report.total:7.1f}   "
              f"(pairs: {pairs})")
