"""Self-check of the benchmark's own checking and tracing.

Usage: python3 perfbench/selfcheck.py    (from the root of a checkout)

Runs the essential workload at seed 0 in this process and checks that
  1. one corrupted byte in one query's output (a vertex id digit, so only
     the byte digest can tell) is counted as one failed query;
  2. a layer missing from the package reads as zero calls without an error,
     while the same calls are counted when the layer is there;
  3. span self times add up to the traced wall time minus the unattributed
     time, and no span lasts less than its children.
Exits 0 when all three hold.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOAD = "essential"


def records_of(p, corrupt: int | None = None) -> dict:
    """The pass as the child reports it, optionally with one digit changed."""
    queries = []
    for k, (rec, parts) in enumerate(zip(p.records, p.texts)):
        rec = dict(rec)
        if k == corrupt:
            text = parts[0]
            at = max(i for i, ch in enumerate(text) if ch.isdigit())
            digit = str((int(text[at]) + 1) % 10)
            parts = [text[:at] + digit + text[at + 1:]] + parts[1:]
        checks.finish(WORKLOAD, rec, parts)
        queries.append(rec)
    return {"queries": queries}


def main() -> int:
    inputs = workloads.load(WORKLOAD, 0)
    failures = []

    # A missing layer: hide phfiber.linalg from the import system while the
    # first tracer installs, then let a second tracer wrap only linalg.
    hidden = sys.modules["phfiber.linalg"]
    sys.modules["phfiber.linalg"] = None
    try:
        without = Tracer()
        without.install()
    finally:
        sys.modules["phfiber.linalg"] = hidden
    only_linalg = Tracer(layers=("linalg",))
    only_linalg.install()

    t0 = time.perf_counter()
    p = workloads.run_pass(WORKLOAD, inputs)
    wall_s = time.perf_counter() - t0

    clean = checks.Checker(WORKLOAD, 0)
    clean.check_pass(records_of(p))
    corrupted = checks.Checker(WORKLOAD, 0)
    corrupted.check_pass(records_of(p, corrupt=len(p.records) - 1))
    if not clean.correct or clean.failed:
        failures.append(f"clean pass flagged: {clean.problems}")
    if corrupted.failed != 1 or corrupted.attempted != len(p.records):
        failures.append(
            f"corrupted byte: {corrupted.failed} of {corrupted.attempted} queries failed, want 1"
        )

    trace = without.summary(wall_s)
    metrics = run.per_layer_metrics(trace, 0.0)
    missing_calls = metrics["linalg.rank_mod_p.calls"]["value"]
    present_calls = only_linalg.summary(wall_s)["linalg.rank_mod_p.calls"]
    if missing_calls != 0 or metrics["linalg.self_s"]["value"] != 0 or present_calls == 0:
        failures.append(
            f"missing layer: {missing_calls} calls while hidden, {present_calls} when present"
        )
    if set(LAYERS) - {k.split(".")[0] for k in metrics}:
        failures.append("a layer has no per-layer metric")

    problem = run.span_sum_problem(trace, wall_s)
    if problem:
        failures.append(problem)

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
