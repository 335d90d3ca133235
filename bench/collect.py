"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds S] [--out bench/BENCH_<label>.json]

Runs bench/run.py once per (workload, seed), one after another, and
reports per metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--out")
    args = parser.parse_args()
    report: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k.count(".") == 0 or k.startswith("trace.")), file=sys.stderr)
        metrics = {
            name: {"unit": unit, **summarise([r["metrics"][name]["value"] for r in runs])}
            for name, unit in ((k, v["unit"]) for k, v in runs[0]["metrics"].items())
        }
        report[workload] = {
            "seeds": seeds_of(args.seeds),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            if name.count(".") == 0 or name.startswith("trace."):
                print(f"{workload:20s} {name:22s} median={m['median']:.5g} spread={m['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
