"""phfiber benchmark: runs one workload and prints its metrics.

Usage:
  python3 perfbench/run.py --workload {image,atlas,transport,essential}
                           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; phfiber is imported from its `src`. Every
pass runs in a fresh interpreter (`child.py`), as a CLI user pays cold start
on every call, so no memo can carry results from one pass to the next.

--trace 0 runs as many passes as fit in S seconds, at least MIN_PASSES, and
starts SETUPS_PER_PASS interpreters that only set up before each pass and
after the last, so set-up is sampled across the whole run. Every time is
scaled to a reference host speed by the probe of `hostspeed.py`, which each
interpreter runs in its own process next to what it times. It reports:
  wall_s         one full pass of the workload's queries (the sum of their
                 latencies), median over passes
  query_p50_ms   per-query latency, 50th percentile within a pass (nearest
                 rank averaged over the 47.5th to 52.5th), median over passes
  query_p90_ms   the same at the 90th percentile
  setup_s        spawn of an interpreter to its complexes being loaded
                 (includes `import phfiber` and so numpy), median over every
                 interpreter of the run
  peak_rss_mb    ru_maxrss of a pass's own process, median over passes
The unscaled and the scaled pass wall times go to stderr.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, plus trace.overhead_s, the traced minus the
untraced wall time, both scaled. Self times are not scaled. It also
requires both passes to print the same bytes.

Every query is checked: at seed 0 its output's sha256 and its summary must
match golden.json, at other seeds its relabelling-invariant summary must.
An exception or a mismatch counts as a failed query. The exact counts of
checks.EXPECTED_COUNTS must hold on every pass. The last line printed is
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 when the
run is not correct, and 2, with no result line, when there is nothing to run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import WORKLOADS, Checker
from hostspeed import REF_UNIT_S
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUPS_PER_PASS = 3
MIN_PASSES = 2
QUANTILE_HALF_WIDTH = 0.025

# name -> unit of the per-layer metrics; each function contributes .calls and .self_s.
TRACED_FUNCTIONS = (
    "strata.enumerate_filter_strata",
    "strata.representative_filter",
    "strata.barcode_of_stratum",
    "strata.stratum_closure_leq",
    "persistence.barcode_of_filter",
    "persistence.betti_numbers",
    "barcodes.canonicalize_barcode",
    "barcodes.map_bars_raw",
    "fiber.fiber_complex",
    "fiber.cell_block_labels",
    "fiber.triangulate_fiber",
    "fiber.fiber_homology",
    "fiber.FiberComplex.cell_index",
    "monodromy.monodromy_map",
    "category.enumerate_morphism_classes",
    "structure.is_removable",
    "structure.symmetry_action_on_fiber",
    "simplicial.boundary_matrix",
    "linalg.rank_mod_p",
    "linalg.nullspace_mod_p",
    "io.dumps",
)
PER_LAYER = {
    **{f"{f}.{k}": u for f in TRACED_FUNCTIONS for k, u in (("calls", "count"), ("self_s", "s"))},
    "strata.count": "count",
    "fiber.cells": "count",
    "fiber.face_pairs": "count",
    "fiber.recheck_yield": "ratio",
    "monodromy.cells_mapped": "count",
    "monodromy.cells_collapsed": "count",
    "category.class_yield": "ratio",
    "io.out_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Child:
    """One fresh interpreter running child.py, timed from spawn to READY."""

    def __init__(self, workload: str, seed: int, mode: str, deadline: float) -> None:
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), workload, str(seed), mode],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], _left(deadline))
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - t0
            if line != b"READY\n":
                raise ChildFailed(f"{mode} child did not set up")
            out, _ = self.proc.communicate(timeout=_left(deadline))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ChildFailed(f"{mode} child ran out of time") from None
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with {self.proc.returncode}")
        self.result = json.loads(out.decode().strip().splitlines()[-1])
        self.scaled_setup_s = self.setup_s * REF_UNIT_S / self.result["unit_s"]


class ChildFailed(Exception):
    pass


def _fits(passes: list[dict], elapsed: float, seconds: float) -> bool:
    """Whether one more pass of the mean length so far still ends within seconds."""
    mean = sum(p["wall_s"] for p in passes) / len(passes)
    return elapsed + mean <= seconds


def _left(deadline: float) -> float:
    return max(0.1, deadline - time.perf_counter())


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank q-quantile averaged over q +- QUANTILE_HALF_WIDTH.

    Each sorted value weighs by the share of that interval over which it is
    the nearest-rank quantile. Where neighbouring ranks lie far apart, as in
    the tail of atlas, this is steadier than one rank. At q = 0.5 it gives
    the median of an even number of values; at q = 0.9 it is a single rank
    on image (2 values) and essential (6).
    """
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = q - QUANTILE_HALF_WIDTH, q + QUANTILE_HALF_WIDTH
    total = 0.0
    for r, x in enumerate(ordered):
        total += x * max(0.0, min(hi, (r + 1) / n) - max(lo, r / n))
    return total / (hi - lo)


def scaled_latencies(result: dict) -> tuple[float, list[float]]:
    """A pass's wall time and its latency samples, in ms at the reference speed."""
    ms = [q["ms"] * q["factor"] for q in result["queries"]]
    return sum(ms), [m for m, q in zip(ms, result["queries"]) if q["latency"]]


def run_untraced(workload: str, seed: int, seconds: float, checker: Checker, deadline: float):
    def sample_setups() -> None:
        for _ in range(SETUPS_PER_PASS):
            setups.append(Child(workload, seed, "setup", deadline).scaled_setup_s)

    setups: list[float] = []
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or _fits(passes, time.perf_counter() - t0, seconds):
        sample_setups()
        try:
            child = Child(workload, seed, "pass", deadline)
        except ChildFailed as exc:
            checker.problems.append(str(exc))
            checker.check_pass(None)
            break
        setups.append(child.scaled_setup_s)
        checker.check_pass(child.result)
        passes.append(child.result)
    sample_setups()
    if not passes:
        return {}
    walls, latencies = zip(*map(scaled_latencies, passes))
    raw = " ".join(f"{r['wall_s']:.3f}" for r in passes)
    print(
        f"{workload}: {len(latencies[0])} latency samples per pass, {len(setups)} set-ups, "
        f"pass wall times {raw} s unscaled, {' '.join(f'{w / 1e3:.3f}' for w in walls)} s scaled",
        file=sys.stderr,
    )
    values = {
        "wall_s": statistics.median(walls) / 1e3,
        "query_p50_ms": statistics.median(percentile(lat, 0.5) for lat in latencies),
        "query_p90_ms": statistics.median(percentile(lat, 0.9) for lat in latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_traced(workload: str, seed: int, checker: Checker, deadline: float):
    results = []
    for mode in ("pass", "traced"):
        try:
            results.append(Child(workload, seed, mode, deadline).result)
        except ChildFailed as exc:
            checker.problems.append(str(exc))
            checker.check_pass(None)
            return {}
        checker.check_pass(results[-1])
    plain, traced = results
    digests = [{q["id"]: q.get("sha256") for q in r["queries"]} for r in results]
    if digests[0] != digests[1]:
        checker.problems.append("traced pass printed other bytes than the untraced pass")
    trace = traced["trace"]
    problem = span_sum_problem(trace, traced["wall_s"])
    if problem:
        checker.problems.append(problem)
    overhead_ms = scaled_latencies(traced)[0] - scaled_latencies(plain)[0]
    return per_layer_metrics(trace, overhead_ms / 1e3)


def span_sum_problem(trace: dict, wall_s: float) -> str | None:
    """Self times must be nonnegative and add up to the attributed wall time."""
    if trace["trace.negative_self_spans"]:
        return f"{trace['trace.negative_self_spans']} spans last less than their children"
    attributed = wall_s - trace["trace.unattributed_s"]
    if math.isclose(trace["trace.self_sum_s"], attributed, rel_tol=1e-6, abs_tol=1e-6):
        return None
    return f"span self times sum to {trace['trace.self_sum_s']}, not to {attributed}"


def per_layer_metrics(trace: dict, overhead_s: float) -> dict:
    """Every per-layer metric; a name the package no longer has reads as 0."""
    values = dict(trace, **{"trace.overhead_s": overhead_s})
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phfiber" / "__init__.py").is_file():
        print(f"error: no phfiber sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + 170
    checker = Checker(args.workload, args.seed)
    try:
        if args.trace:
            metrics = run_traced(args.workload, args.seed, checker, deadline)
        else:
            metrics = run_untraced(args.workload, args.seed, args.seconds, checker, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in checker.problems[:20]:
        print(f"FAILED {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
