"""Repeat the benchmark over seeds and record the spread of every metric.

Usage: python3 perfbench/baseline.py [--runs 10] [--workload W ...] [--out FILE]

For each workload, runs `run.py --trace 0` once per seed 0..runs-1 with the
run length from BENCHMARK.json and reports each end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread, the quartile distance as
a share of the median. Then one `--trace 1` run at seed 0 gives the per-layer
table and the tracing overhead. With --out, writes all of it as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(whys))
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    record = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}, {len(os.sched_getaffinity(0))} cores",
        "run_seconds": seconds,
        "runs_per_workload": args.runs,
        "workloads": {},
    }
    for w in args.workload or list(whys):
        values: dict[str, list[float]] = {}
        attempted = 0
        for seed in range(args.runs):
            result = run(w, seed, seconds, 0)
            attempted += result["attempted"]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        table = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            table[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            steady = k == "setup_s" or spread < bounds[k] / 3
            flag = "" if steady else "  <-- above a third of the bound"
            print(f"{w:10s} {k:14s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[k]}{flag}", flush=True)
        entry = {"why": whys[w], "queries_attempted": attempted, "end_to_end": table}
        traced = run(w, 0, seconds, 1)["metrics"]
        entry["trace_overhead_s"] = traced["trace.overhead_s"]["value"]
        entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
        print(f"{w:10s} trace.overhead_s {entry['trace_overhead_s']:.3f}", flush=True)
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
