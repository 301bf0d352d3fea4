"""Time ``import gridflex`` plus case loading in a fresh interpreter.

    python3 setup_probe.py SRC_DIR [CASE_FILE[@SCALE] ...]

Loads each case file once, applies ``scale_load`` for every ``@SCALE``
spec, and prints the elapsed seconds as its last line.  The clock starts
before the import, so the figure is what a new process pays before its
first unit of work.
"""

import sys
import time


def main(argv):
    src, specs = argv[0], argv[1:]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import gridflex

    cases = {}
    for spec in specs:
        path, _, scale = spec.partition("@")
        if path not in cases:
            cases[path] = gridflex.load_case(path)
        if scale:
            try:
                gridflex.scale_load(cases[path], float(scale))
            except gridflex.CaseError:
                pass  # the workload reports the failing level as failed units
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1:])
