"""The four benchmark workloads: seeded inputs and the queries of one pass.

Every query goes through phfiber's public API, the functions the CLI handlers
call, and its result is the text the CLI would print: `io.dumps` of the
query's document. Names are looked up on the `phfiber` and `phfiber.io`
module objects at call time, so the tracer's wrappers are seen.

Inputs come from a seed. Seed 0 keeps the vertex ids as written here; any
other seed relabels them by a seeded permutation and shuffles the listed
simplices. The program only ever receives the relabelled complexes and the
barcode type strings from `inputs.json`, which do not depend on labels.
"""
from __future__ import annotations

import json
import random
import time
from pathlib import Path

import phfiber as ph
from phfiber import io

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs.json"

SQUARE = [[0, 1], [1, 2], [2, 3], [0, 3]]
PATH4 = [[0, 1], [1, 2], [2, 3]]
TRIANGLE = [[0, 1], [1, 2], [0, 2]]
# K6 minus a perfect matching: 6 vertices and 12 edges.
OCTAHEDRON = [[a, b] for a in range(6) for b in range(a + 1, 6) if b != a + 1 or a % 2]
HEXAGON = [[i, (i + 1) % 6] for i in range(6)]
HOLLOW_TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
WEDGE = [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]]
TETRAHEDRON = [[0, 1, 2, 3]]
TWO_TRIANGLES = [[0, 1, 2], [1, 2, 3]]

# (query id, complex, stratum mode, field) for `phfiber image`.
IMAGE_QUERIES = (
    ("square/interior/F2", SQUARE, "interior_only", 2),
    ("path4/all/F3", PATH4, "all", 3),
)
ESSENTIAL_QUERIES = (
    ("octahedron", OCTAHEDRON),
    ("hexagon", HEXAGON),
    ("hollow_tetrahedron", HOLLOW_TETRAHEDRON),
    ("wedge", WEDGE),
    ("tetrahedron", TETRAHEDRON),
    ("two_triangles", TWO_TRIANGLES),
)

def relabel(maximal, seed: int) -> list[list[int]]:
    """The complex with vertex ids permuted and simplices shuffled by seed."""
    if seed == 0:
        return [list(s) for s in maximal]
    rng = random.Random(seed)
    ids = sorted({v for s in maximal for v in s})
    images = ids[:]
    rng.shuffle(images)
    perm = dict(zip(ids, images))
    out = [[perm[v] for v in s] for s in maximal]
    for s in out:
        rng.shuffle(s)
    rng.shuffle(out)
    return out


def load(workload: str, seed: int) -> dict:
    """The workload's inputs: loaded complexes and the type strings it asks about."""
    types = json.loads(INPUTS.read_text())

    def cx(maximal):
        return io.complex_from_doc({"maximal_simplices": relabel(maximal, seed)})

    if workload == "image":
        return {"queries": [(qid, cx(m), mode, p) for qid, m, mode, p in IMAGE_QUERIES]}
    if workload == "atlas":
        return {"complex": cx(PATH4), "types": types["path4_interior"]}
    if workload == "transport":
        return {"complex": cx(TRIANGLE), "types": types["triangle_interior"]}
    if workload == "essential":
        return {"queries": [(qid, cx(m)) for qid, m in ESSENTIAL_QUERIES]}
    raise ValueError(f"unknown workload {workload!r}")


class Pass:
    """One closed-loop pass: each query starts when the previous one returns.

    A query returns the list of texts it printed; they are kept, and hashed
    and summarized only after the pass, so the pass time holds no checking.
    With a host speed probe (`hostspeed.Probe`), queries are timed on its
    clock, which leaves the probe's own time out, and it sees each query end.
    """

    def __init__(self, probe=None) -> None:
        self.records: list[dict] = []
        self.texts: list[list[str] | None] = []
        self.probe = probe
        self.clock = time.perf_counter if probe is None else probe.clock

    def query(self, qid: str, fn, latency: bool = True):
        """Run fn() as one query; an exception is recorded as a failed query."""
        t0 = self.clock()
        try:
            parts, value = fn()
        except Exception as exc:  # a failed query is counted; the pass goes on
            parts, value = None, None
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        ms = (self.clock() - t0) * 1e3
        self.records.append({"id": qid, "ms": ms, "latency": latency, "error": error})
        self.texts.append(parts)
        if self.probe is not None:
            self.probe.after_query(ms / 1e3)
        return value


def _pass_image(p: Pass, inputs: dict) -> None:
    for qid, K, mode, prime in inputs["queries"]:

        def q(K=K, mode=mode, prime=prime):
            strata = ph.enumerate_filter_strata(K, mode)
            records = ph.group_strata_by_barcode(K, strata, ph.FieldSpec(prime))
            return [io.dumps(io.image_doc(records))], None

        p.query(qid, q)


def _pass_atlas(p: Pass, inputs: dict) -> None:
    K = inputs["complex"]
    field = ph.FieldSpec(2)
    for t in inputs["types"]:

        def q(t=t):
            fc = ph.fiber_complex(K, ph.parse_barcode_type(t), field, "all")
            betti = ph.fiber_homology(ph.triangulate_fiber(fc), field)
            return [io.dumps(io.fiber_doc(fc)), io.dumps(list(betti))], None

        p.query(t, q)


def _pass_transport(p: Pass, inputs: dict) -> None:
    K = inputs["complex"]
    field = ph.FieldSpec(2)
    fibers = {}
    for t in inputs["types"]:

        def build(t=t):
            fc = ph.fiber_complex(K, ph.parse_barcode_type(t), field, "all")
            return [io.dumps(io.fiber_doc(fc))], fc

        fibers[t] = p.query(f"fiber {t}", build, latency=False)
    for s in inputs["types"]:
        for t in inputs["types"]:
            if s == t:
                continue

            def pair(s=s, t=t):
                src, dst = fibers[s], fibers[t]
                if src is None or dst is None:
                    raise RuntimeError("fiber of the pair was not built")
                classes = ph.enumerate_morphism_classes(src.barcode_type, dst.barcode_type)
                parts = [io.dumps(io.morphisms_doc(classes))]
                for c in classes:
                    mm = ph.monodromy_map(K, src, dst, c)
                    parts.append(io.dumps(io.monodromy_doc(mm)))
                return parts, None

            p.query(f"pair {s} -> {t}", pair)
    for t in inputs["types"]:

        def orbits(t=t):
            if fibers[t] is None:
                raise RuntimeError("fiber was not built")
            return [io.dumps([list(o) for o in ph.fiber_symmetry_orbits(fibers[t])])], None

        p.query(f"orbits {t}", orbits, latency=False)


def _pass_essential(p: Pass, inputs: dict) -> None:
    field = ph.FieldSpec(2)
    for qid, K in inputs["queries"]:

        def q(K=K):
            witness = ph.find_removable_subset(K, field)
            return [io.dumps(io.essential_doc(witness is None, witness))], None

        p.query(qid, q)


_PASSES = {
    "image": _pass_image,
    "atlas": _pass_atlas,
    "transport": _pass_transport,
    "essential": _pass_essential,
}


def run_pass(workload: str, inputs: dict, probe=None) -> Pass:
    p = Pass(probe)
    _PASSES[workload](p, inputs)
    return p
