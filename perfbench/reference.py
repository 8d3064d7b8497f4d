"""Fixed reference work that measures the machine's current speed.

The machine is shared: other tenants slow everything, for seconds at a time,
by up to half.  Timings are scaled by how long this fixed work takes in the
same run, so that a slow period does not read as a slow program.
"""

import time

# Times are reported as if `reference_work` took this long: about its time on
# an idle 2-core Xeon with Python 3.11, so that reported times read close to
# the program's own there.
NOMINAL_NS = 130_000

_ROWS = frozenset({(3, 3, 3, 3), (9, 1, 1, 1), (4, 4, 2, 2), (8, 2, 1, 1), (6, 3, 2, 1),
                   (5, 5, 1, 1), (4, 4, 2, 1, 1), (6, 2, 2, 1, 1), (3, 3, 3, 2, 1)})


def reference_work():
    """Pure-Python work of the kind the program does: small tuples, sorting,
    dict and set building, membership tests."""
    total = 0
    for k in range(40):
        row = tuple((k * 7 + i * 3) % 13 + 1 for i in range(5))
        part = tuple(sorted(row, reverse=True))
        index = {i: v for i, v in enumerate(part)}
        total += sum(index.values()) + len(frozenset(part)) + (row in _ROWS)
    return total


def time_reference():
    """Nanoseconds one `reference_work` call takes now."""
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start
