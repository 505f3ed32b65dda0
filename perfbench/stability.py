#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/stability.py --workloads gen8 survey8 --seeds 1 2 3 4 5 \\
        --out perfbench/results/stability.json

Each (workload, seed) pair is one ``run.py`` process at ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the interquartile distance as a share of the median, next to the metric's
bound.  ``--traced-seed`` adds one ``--trace 1`` run per workload and stores
its per-layer metrics.  Exits 1 when any run fails its correctness gates.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "exit": done.returncode}
    return json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result = run(workload, seed, seconds, 0)
            ok &= result.get("correct", False)
            for name, metric in result.get("metrics", {}).items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result.get('correct')}", flush=True)
        entry = {"seeds": args.seeds, "metrics": {
            name: summarise(vals, bounds[name]) for name, vals in values.items() if len(vals) >= 2}}
        for name, stats in entry["metrics"].items():
            flag = "" if name == "setup_s" or stats["spread"] < stats["bound"] / 3 else "  <-- wide"
            print(f"  {name:18s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.4f} (bound {stats['bound']}){flag}", flush=True)
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, seconds, 1)
            ok &= traced.get("correct", False)
            entry["per_layer"] = {"seed": args.traced_seed, "metrics": traced.get("metrics", {})}
        summary[workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps({"run_seconds": seconds, "workloads": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
