"""Correctness checks on the printed outputs: summaries, exact counts, goldens.

Nothing here imports phfiber; run.py checks the children's records with
it, and the children summarize their outputs with it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Counts measured when the goldens were recorded. They change only when the
# work itself changes, so a drift is reported loudly even when the digests
# were re-recorded.
EXPECTED_COUNTS = {
    "image": {
        "strata square/interior/F2": 20978,
        "types square/interior/F2": 334,
        "strata path4/all/F3": 14471,
        "types path4/all/F3": 667,
    },
    "atlas": {"types": 167, "cells": 3844, "face_pairs": 3012},
    "transport": {"fibers": 34, "pairs": 1122, "classes": 275, "mapped_cells": 3463},
    "essential": {"complexes": 6, "essential": 4},
}
WORKLOADS = tuple(EXPECTED_COUNTS)


def digest(parts: list[str]) -> str:
    """sha256 of a query's printed output, the texts concatenated."""
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def finish(workload: str, rec: dict, parts: list[str] | None) -> None:
    """Add the digest and summary of a query's output to its record.

    An output that cannot be summarized is recorded as the query's error.
    """
    if parts is None:
        return
    rec["sha256"] = digest(parts)
    try:
        rec["summary"] = summarize(workload, rec["id"], parts)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        rec["error"] = f"unreadable output: {type(exc).__name__}: {exc}"


def summarize(workload: str, qid: str, parts: list[str]):
    """A relabelling-invariant summary of one query's printed output."""
    docs = [json.loads(t) for t in parts]
    if workload == "image":
        return [
            [r["barcode_type"], len(r["member_ids"]), r["codim"], r["bounded_deficit"]]
            for r in docs[0]
        ]
    if workload == "atlas" or qid.startswith("fiber "):
        summary = _fiber_summary(docs[0])
        if len(docs) > 1:
            summary["betti"] = docs[1]
        return summary
    if qid.startswith("pair "):
        maps = docs[1:]
        return {
            "classes": len(docs[0]),
            "cells": [len(m["cell_map"]) for m in maps],
            "collapsed": [len(m["collapsed_cells"]) for m in maps],
        }
    if qid.startswith("orbits "):
        return sorted(len(o) for o in docs[0])
    if workload == "essential":
        witness = docs[0]["removable_subset"]
        return {
            "essential": docs[0]["essential"],
            "witness_size": None if witness is None else len(witness),
        }
    raise ValueError(f"no summary for {workload} query {qid!r}")


def _fiber_summary(doc: dict) -> dict:
    dims: dict[int, int] = {}
    for c in doc["cells"]:
        dims[c["dim"]] = dims.get(c["dim"], 0) + 1
    return {
        "cells_per_dim": [dims.get(d, 0) for d in range(max(dims) + 1)],
        "face_pairs": len(doc["face_relation"]),
    }


def counts(workload: str, summaries: dict) -> dict:
    """The exact counts of one pass, read off its query summaries."""
    out: dict[str, int] = {}

    def add(key: str, n: int) -> None:
        out[key] = out.get(key, 0) + n

    for qid, s in summaries.items():
        if workload == "image":
            add(f"strata {qid}", sum(row[1] for row in s))
            add(f"types {qid}", len(s))
        elif workload == "atlas":
            add("types", 1)
            add("cells", sum(s["cells_per_dim"]))
            add("face_pairs", s["face_pairs"])
        elif workload == "transport":
            if qid.startswith("fiber "):
                add("fibers", 1)
            elif qid.startswith("pair "):
                add("pairs", 1)
                add("classes", s["classes"])
                add("mapped_cells", sum(s["cells"]))
        elif workload == "essential":
            add("complexes", 1)
            add("essential", int(s["essential"]))
    return out


class Checker:
    """Counts attempted and failed queries against the goldens and exact counts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.golden = json.loads(GOLDEN.read_text())[workload]
        self.expected_counts = EXPECTED_COUNTS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, result: dict | None) -> None:
        """Check one pass's queries; a pass that did not finish fails all of them."""
        if result is None:
            self.attempted += len(self.golden)
            self.failed += len(self.golden)
            self.problems.append("pass did not finish")
            return
        seen = {}
        for rec in result["queries"]:
            self.attempted += 1
            problem = self.query_problem(rec)
            if problem is None:
                seen[rec["id"]] = rec["summary"]
            else:
                self.failed += 1
                self.problems.append(f"{rec['id']}: {problem}")
        missing = len(set(self.golden) - {rec["id"] for rec in result["queries"]})
        self.attempted += missing
        self.failed += missing
        if missing:
            self.problems.append(f"{missing} queries never ran")
        got = counts(self.workload, seen)
        for key, want in self.expected_counts.items():
            if got.get(key) != want:
                self.problems.append(f"COUNT DRIFT {key}: expected {want}, got {got.get(key)}")

    def query_problem(self, rec: dict) -> str | None:
        if rec.get("error") is not None:
            return rec["error"]
        golden = self.golden.get(rec["id"])
        if golden is None:
            return "no golden for this query"
        if self.seed == 0 and rec["sha256"] != golden["sha256"]:
            return "output bytes differ from the golden"
        if rec["summary"] != golden["summary"]:
            return "output summary differs from the golden"
        return None

    @property
    def correct(self) -> bool:
        return not self.problems
