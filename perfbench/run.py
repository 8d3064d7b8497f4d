"""ellab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload case_a --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` beside this directory.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Each run also
writes a results file (environment, outcome histogram, output digest, tail
percentile) to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": git_commit()}


def git_commit():
    """HEAD of the enclosing checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ellab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no ellab sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.environ.pop("ELLAB_CATALOG", None)
    sys.path.insert(0, str(SRC))
    import ellab
    if Path(ellab.__file__).resolve().parent != (SRC / "ellab").resolve():
        print(f"error: imported ellab from {ellab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make_workload(args.workload, args.seed, bool(args.trace))
    if args.trace:
        metrics, run, details = workloads.traced_run(workload, RESULTS / f"{stem}.spans.tsv")
        wanted = spec["per_layer"]
    else:
        metrics, run, details = workloads.untraced_run(workload, args.seconds)
        wanted = spec["end_to_end"]

    result = {
        "correct": run.failures.wrong == 0,
        "attempted": run.visits,
        "failed": run.failures.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result,
              "failure_reasons": dict(run.failures.reasons.most_common()),
              **run.outputs.summary(), **details,
              "all_metrics": dict(sorted(metrics.items()))}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
