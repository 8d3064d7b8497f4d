"""Set-up probe, run in a fresh interpreter: time ``import ellab`` plus one op.

Usage: python probe.py SRC_DIR WORKLOAD ITEM_JSON
Prints the elapsed seconds, then the least of REFERENCE_REPEATS timings of
the reference work taken just before.  The clock starts before anything
else is imported.
"""

import time

import reference

REFERENCE_REPEATS = 30
REFERENCE_NS = min(reference.time_reference() for _ in range(REFERENCE_REPEATS))
START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    src, workload, payload = sys.argv[1:4]
    sys.path.insert(0, src)
    import ops  # imports ellab

    item = json.loads(payload)
    if workload in ("case_a", "case_b"):
        left_row, right_row, labels = item
        ops.certify_op(ops.build_diagram((tuple(left_row), tuple(right_row), tuple(labels))))
    elif workload == "universe_cold":
        try:
            ops.universe_op(ops.build_config(tuple(item)))
        except ops.errors.TorsionContradiction:
            pass  # a known failing composition still costs its set-up
    else:
        ops.cli_render(item)
    print(repr(time.perf_counter() - START), REFERENCE_NS)


if __name__ == "__main__":
    main()
