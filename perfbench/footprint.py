"""Resident memory that ellab adds to a fresh interpreter, for one workload.

Usage: python footprint.py SRC_DIR WORKLOAD [COMMANDS_JSON]
Builds fixed inputs as plain data and notes the peak RSS; then imports
ellab and makes one pass over the inputs, building each program object just
before its op and dropping it after.  Prints by how many KiB the peak RSS
grew: the import plus the program's working memory (caches, certificates),
without the benchmark's own data.  The pass is the same for every seed:
every composition for universe_cold, a fixed sixteenth of the diagrams of
every row pair for case_a and case_b, and for cli the commands given as
COMMANDS_JSON (building them here would raise the peak before the
baseline), rendered in this process.

The peak is VmHWM from /proc/self/status (Linux): unlike ru_maxrss, it
starts afresh at exec and does not inherit the parent's peak.
"""

import json
import sys

import inputs

SWEEP_SHARE = 16


def peak_kib():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    src, workload = sys.argv[1], sys.argv[2]
    if workload == "cli":
        items = json.loads(sys.argv[3])
        order = range(len(items))
    elif workload == "universe_cold":
        items = inputs.universe_items()
        order = range(len(items))
    else:
        items = inputs.case_a_items() if workload == "case_a" else inputs.case_b_items()
        order = sorted(inputs.seeded_share(items, 0, workload, SWEEP_SHARE))
    baseline = peak_kib()

    sys.path.insert(0, src)
    import ops  # imports ellab

    for index in order:
        if workload == "cli":
            ops.cli_render(items[index])
        elif workload == "universe_cold":
            try:
                ops.universe_op(ops.build_config(items[index]))
            except ops.errors.TorsionContradiction:
                pass  # a known failing composition; the timed run counts it
        else:
            ops.certify_op(ops.build_diagram(items[index]))
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
