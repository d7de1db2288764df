"""Record the benchmark's inputs and goldens from the checked-out phfiber.

Usage: python3 perfbench/record.py

Writes `inputs.json` (the interior barcode types of path4 and of the hollow
triangle, which the atlas and transport workloads ask about) and
`golden.json` (per query: the sha256 of the printed output at seed 0, and its
relabelling-invariant summary). Before writing, it checks that seed 1 gives
the same summaries as seed 0 and prints every workload's exact counts for
comparison with `checks.EXPECTED_COUNTS`.

Run it only for a deliberate output change, in a change of its own.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import phfiber as ph  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def interior_types(maximal) -> list[str]:
    K = ph.build_complex(maximal)
    records = ph.group_strata_by_barcode(K, ph.enumerate_filter_strata(K, "interior_only"))
    return [ph.format_barcode_type(r.barcode_type) for r in records]


def golden_pass(workload: str, seed: int) -> dict:
    p = workloads.run_pass(workload, workloads.load(workload, seed))
    out = {}
    for rec, parts in zip(p.records, p.texts):
        if rec["error"] is not None:
            raise RuntimeError(f"{workload} query {rec['id']} failed: {rec['error']}")
        out[rec["id"]] = {
            "sha256": checks.digest(parts),
            "summary": checks.summarize(workload, rec["id"], parts),
        }
    return out


def dump_golden(golden: dict) -> str:
    """JSON with one query per line, so a re-recording diffs by query."""
    blocks = []
    for w, queries in golden.items():
        lines = [f"  {json.dumps(q)}: {json.dumps(g)}" for q, g in queries.items()]
        blocks.append(f"{json.dumps(w)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    inputs = {
        "path4_interior": interior_types(workloads.PATH4),
        "triangle_interior": interior_types(workloads.TRIANGLE),
    }
    workloads.INPUTS.write_text(json.dumps(inputs, indent=1) + "\n")
    golden = {}
    for w in checks.WORKLOADS:
        golden[w] = golden_pass(w, 0)
        other = golden_pass(w, 1)
        for qid, g in golden[w].items():
            if other[qid]["summary"] != g["summary"]:
                raise RuntimeError(f"{w} query {qid}: summary depends on the labels")
        summaries = {qid: g["summary"] for qid, g in golden[w].items()}
        print(w, json.dumps(checks.counts(w, summaries)))
    (HERE / "golden.json").write_text(dump_golden(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
