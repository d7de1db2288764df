"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED {setup,pass,traced}

Imports phfiber from the checkout's `src`, loads the workload's inputs, and
prints `READY` once the complexes are loaded; the parent times set-up from
its spawn of this process to that line. Then the host speed probe of
`hostspeed` runs for a moment, and `setup` exits. `pass` runs the workload's
queries once, with the probe on a timer; `traced` does the same under the
tracer, whose spans leave the probe out too. The last line printed is one
JSON object: the probe's time per unit after set-up, and for a pass its wall
time without the probe, peak RSS, and for each query its latency without the
probe, scale factor, sha256 digest and invariant summary.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import phfiber

    if not Path(phfiber.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"phfiber imported from {phfiber.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import hostspeed
    import workloads

    inputs = workloads.load(workload, seed)
    print("READY", flush=True)
    result = {"unit_s": hostspeed.unit_seconds()}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    with hostspeed.Probe() as probe:
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer(clock=probe.clock)
            tracer.install()
        t0 = probe.clock()
        p = workloads.run_pass(workload, inputs, probe)
        wall_s = probe.clock() - t0
    for rec, factor in zip(p.records, probe.factors()):
        rec["factor"] = factor
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for rec, parts in zip(p.records, p.texts):
        checks.finish(workload, rec, parts)
    result.update(wall_s=wall_s, rss_kb=rss_kb, queries=p.records)
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
