"""Golden demo output: every demo prints the recorded bytes.

Each `demos/*.py` script's `main()` runs in process and the sha256 of its
stdout is compared with `tests/golden_demos.json`. The demos call the public
API end to end, so a refactor that is meant to leave results alone proves it
by passing this test unchanged.

Re-record only for a deliberate change of output, and say which output
changed and why in the same commit:

    PYTHONPATH=src python tests/test_demos.py --record
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_demos.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))


def run_demo(path: Path) -> str:
    """The sha256 of what the demo's main() prints."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_the_recorded_digest(path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == [p.name for p in DEMOS], "the demo list differs from the recording"
    assert run_demo(path) == golden[path.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_demos.py --record")
    record = {p.name: run_demo(p) for p in DEMOS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} demos in {GOLDEN}")
