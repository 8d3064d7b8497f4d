"""Diff two suite results files per workload and metric against the bounds.

    python3 perfbench/compare.py BASE.json CHANGE.json

For each metric: both medians, the change as a share of the base median
(positive = worse), both run spreads, and a verdict:

* ``worse``      the change's median is worse by more than the bound;
* ``unresolved`` either side's spread exceeds the bound, unless every run of
                 the change reads better than every run of the base;
* ``better``     better by more than the base's own spread;
* ``same``       otherwise.

Per-layer metrics have no bound and get no verdict.  Exit code 1 when any
metric is ``worse``.
"""

from __future__ import annotations

import json
import sys


def _worse_share(metric, base, change):
    """Relative change of the median, signed so that positive means worse."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    share = (change - base) / abs(base)
    return share if metric["better"] == "lower" else -share


def _all_better(metric, base_values, change_values):
    if metric["better"] == "lower":
        return max(change_values) < min(base_values)
    return min(change_values) > max(base_values)


def verdict(stats_base, stats_change, base_values, change_values):
    bound = stats_base.get("bound")
    if bound is None:
        return ""
    worse = _worse_share(stats_base, stats_base["median"], stats_change["median"])
    if max(stats_base["spread"], stats_change["spread"]) > bound:
        return "better" if _all_better(stats_base, base_values, change_values) else "unresolved"
    if worse > bound:
        return "worse"
    if -worse > stats_base["spread"]:
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.load(open(path, encoding="utf-8")) for path in argv)
    for label, report in (("base", base), ("change", change)):
        env = report["environment"]
        print(f"# {label}: commit {env['commit'][:12]}, python {env['python']}, "
              f"{env['cpu_model']}, nproc {env['nproc']}, seeds {report['seeds']}, "
              f"{report['seconds']} s, trace {report['trace']}")
    print(f"{'workload':<14} {'metric':<44} {'base':>12} {'change':>12} {'worse%':>8} "
          f"{'spread':>13} {'bound':>6}  verdict")
    any_worse = False
    for workload, data in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            print(f"{workload:<14} missing from the change")
            continue
        for name, stats in data["summary"].items():
            if name not in other["summary"]:
                continue
            stats_change = other["summary"][name]
            base_values = [r["metrics"][name]["value"] for r in data["runs"]]
            change_values = [r["metrics"][name]["value"] for r in other["runs"]]
            result = verdict(stats, stats_change, base_values, change_values)
            any_worse |= result == "worse"
            worse = 100 * _worse_share(stats, stats["median"], stats_change["median"])
            spreads = f"{stats['spread']:.3f}/{stats_change['spread']:.3f}"
            print(f"{workload:<14} {name:<44} {stats['median']:>12.6g} "
                  f"{stats_change['median']:>12.6g} {worse:>8.2f} {spreads:>13} "
                  f"{stats.get('bound', ''):>6}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
