"""Golden CLI output: every recorded invocation prints the recorded bytes.

Each case runs `phfiber.cli.main` in process on `demos/complexes/interval.json`,
`demos/complexes/triangle.json`, for one large fiber and the interior and lower-star
bound sweeps `demos/complexes/path5.json`, for the image, the all and interior bound
sweeps and one fiber of a larger complex `demos/complexes/square.json`, or, for an
answer that depends on the boundary signs mod p, `demos/complexes/rp2.json`, and
compares the sha256 of stdout and of stderr, and the exit code, with
`tests/golden_cli.json`. A refactor that is meant to leave results alone proves
it by passing this test unchanged.

Re-record only for a deliberate change of output, and say which output
changed and why in the same commit:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
COMPLEXES = ("demos/complexes/interval.json", "demos/complexes/triangle.json")
# path5's fiber JSON over this type is 2,986,801 bytes, the largest output recorded.
PATH5 = "demos/complexes/path5.json"
PATH5_TYPE = "0:(zero,inf),(1,2)"
# The square's image has 83,911 strata in all mode.
SQUARE = "demos/complexes/square.json"
# A square fiber whose Euler-count candidates are mostly not cells.
SQUARE_TYPE = "0:(1,inf),(2,3);1:(4,inf)"
# Minimal RP^2 is essential over F2 but not over F3 (H_1 = Z/2). Of its
# 147,244 coface-closed subsets, the F2 run keeps 14,208 and reduces one
# coboundary column per set it builds, with no reduction of K.
RP2 = "demos/complexes/rp2.json"

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(GOLDEN.parent)]

from phfiber.cli import main  # noqa: E402

from conftest import TYPE_STRINGS  # noqa: E402


def cases() -> list[list[str]]:
    """The recorded argument lists; complex paths are relative to the repo."""
    out: list[list[str]] = []
    types = list(TYPE_STRINGS.values())
    for path in COMPLEXES:
        for cmd in ("strata", "image", "check-bounds"):
            for mode in ("all", "interior", "lower-star"):
                for field in ("2", "3"):
                    out.append([cmd, path, "--mode", mode, "--field", field])
        for field in ("2", "3"):
            out.append(["essential", path, "--field", field])
        for T in types:
            for mode in ("all", "lower-star"):
                out.append(["fiber", path, "--barcode", T, "--mode", mode])
            out.append(["fiber", path, "--barcode", T, "--emit-dot"])
            for field in ("2", "3"):
                out.append(["homology", path, "--barcode", T, "--field", field])
            out.append(["symmetries", path, "--barcode", T])
    triangle = COMPLEXES[1]
    for S in types:
        for T in types:
            out.append(["monodromy", triangle, "--from", S, "--to", T])
    for mode in ("all", "lower-star"):
        out.append(["fiber", PATH5, "--barcode", PATH5_TYPE, "--mode", mode])
    out.append(["fiber", PATH5, "--barcode", PATH5_TYPE, "--emit-dot"])
    out.append(["homology", PATH5, "--barcode", PATH5_TYPE])
    out.append(["fiber", PATH5, "--barcode", PATH5_TYPE, "--field", "3"])
    for mode in ("interior", "lower-star"):
        out.append(["check-bounds", PATH5, "--mode", mode, "--field", "2"])
    for field in ("2", "3"):
        out.append(["fiber", SQUARE, "--barcode", SQUARE_TYPE, "--field", field])
    for mode in ("all", "interior", "lower-star"):
        for field in ("2", "3"):
            out.append(["image", SQUARE, "--mode", mode, "--field", field])
    for mode in ("all", "interior"):
        for field in ("2", "3"):
            out.append(["check-bounds", SQUARE, "--mode", mode, "--field", field])
    for field in ("2", "3"):
        out.append(["essential", RP2, "--field", field])
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv: list[str]) -> dict:
    """Run one case in process; complex paths resolve against the repo root."""
    args = [str(ROOT / a) if a in (*COMPLEXES, PATH5, SQUARE, RP2) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def _key(argv: list[str]) -> str:
    return json.dumps(argv)


def test_cli_output_matches_the_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    recorded = {_key(argv): argv for argv in cases()}
    assert recorded.keys() == golden.keys(), "the case list differs from the recording"
    mismatched = [k for k, argv in recorded.items() if replay(argv) != golden[k]]
    assert not mismatched, f"{len(mismatched)} cases differ, first: {mismatched[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    record = {_key(argv): replay(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases in {GOLDEN}")
