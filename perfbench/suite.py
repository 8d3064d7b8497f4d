"""Run every workload over several seeds, print each metric, write a results file.

    python3 perfbench/suite.py                        # 10 seeds, every workload
    python3 perfbench/suite.py --seeds 1-5 --workloads cli,case_b
    python3 perfbench/suite.py --trace 1 --seeds 1-2  # per-layer metrics

Each run is a fresh ``run.py`` process.  The table gives, per workload and
metric, the median over the runs, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median, which is flagged when it exceeds the
metric's bound.  The results file (default ``perfbench/results/BENCH.json``)
records the environment, the seeds and every run; ``compare.py`` diffs two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as run_module

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values):
    if len(values) < 2:
        value = values[0] if values else 0
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results" / "BENCH.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    report = {"environment": run_module.environment(), "seeds": seeds,
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print(f"{'workload':<14} {'metric':<44} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        summary = {}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            stats = summarize(values) | {"unit": metric["unit"], "better": metric["better"]}
            if "bound" in metric:
                stats["bound"] = metric["bound"]
            summary[name] = stats
            bound = metric.get("bound")
            flag = "" if bound is None or stats["spread"] <= bound else "  SPREAD > BOUND"
            print(f"{workload:<14} {name:<44} {metric['unit']:<6} {stats['median']:>12.6g} "
                  f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['spread']:>7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        failed = sum(r["failed"] for r in runs[workload])
        attempted = sum(r["attempted"] for r in runs[workload])
        correct = all(r["correct"] for r in runs[workload])
        print(f"{workload:<14} {'failed / attempted (all runs)':<44} {'count':<6} "
              f"{failed:>12} {attempted:>12}   correct={correct}")
        report["workloads"][workload] = {"runs": runs[workload], "summary": summary}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"# wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
