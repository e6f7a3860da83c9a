"""Record repeated runs of every workload: the trajectory's reference point.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 10 \\
        --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), in order, with tracing off,
and records every metric of the result line plus every figure the
report prints (``<name> <value> <unit>`` lines).  For each metric it
stores the values, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (quartile distance over median), which is what a
later change's runs are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent



def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def report_figures(stdout: str) -> dict[str, float]:
    """``<workload-prefixed name> <number> ...`` lines of the report."""
    figures = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].startswith(
                ("batch_", "store_", "serve_")):
            try:
                figures[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return figures


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    out = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
           "cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "workloads": {}}
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {}
        walls = []
        for seed in out["seeds"]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            row = {name: m["value"] for name, m in result["metrics"].items()}
            row.update(report_figures(proc.stdout))
            for name, value in row.items():
                samples.setdefault(name, []).append(value)
            print(f"{workload} seed {seed} ({walls[-1]:.1f} s): "
                  + ", ".join(f"{k}={v:.4g}" for k, v in row.items()),
                  flush=True)
        out["workloads"][workload] = {
            "run_wall_s": summarize(walls),
            "metrics": {name: summarize(values)
                        for name, values in samples.items()}}
        for name, summary in out["workloads"][workload]["metrics"].items():
            print(f"  {name:<32} median {summary['median']:<12.5g} "
                  f"spread {summary.get('spread')}", flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
