"""Command line interface, run in process through main()."""

import hashlib
import json

import pytest

import phfiber as ph
from phfiber import InvariantError, cli
from phfiber.cli import main
from phfiber.io import bounds_doc, complex_doc, dumps, load_complex

from conftest import TYPE_STRINGS, per_type_dimension_bound
from test_cli_golden import GOLDEN, ROOT, replay


@pytest.fixture()
def triangle_file(tmp_path, triangle):
    path = tmp_path / "triangle.json"
    path.write_text(dumps(complex_doc(triangle)))
    return str(path)


@pytest.fixture()
def interval_file(tmp_path, interval):
    path = tmp_path / "interval.json"
    path.write_text(dumps(complex_doc(interval)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_strata_default_mode_is_interior(capsys, triangle_file):
    code, out, err = run(capsys, "strata", triangle_file)
    assert code == 0 and err == ""
    assert len(json.loads(out)) == 446


def test_strata_all_mode(capsys, triangle_file):
    code, out, _ = run(capsys, "strata", triangle_file, "--mode", "all")
    assert code == 0
    assert len(json.loads(out)) == 1783


def test_image_lists_the_barcode_strata(capsys, triangle_file):
    code, out, _ = run(capsys, "image", triangle_file)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 34
    assert rows[0]["codim"] == 0


def test_image_lower_star_mode(capsys, triangle_file):
    code, out, _ = run(capsys, "image", triangle_file, "--mode", "lower-star")
    assert code == 0
    rows = json.loads(out)
    assert [r["barcode_type"] for r in rows] == [
        TYPE_STRINGS["mobius"],
        TYPE_STRINGS["point"],
    ]
    assert [len(r["member_ids"]) for r in rows] == [12, 1]


def test_pentagon_interior_image_prints_the_recorded_bytes(capsys):
    """The hollow pentagon's interior image over F2 types 1,589,882 strata
    into 4,754 barcode types in one walk of K; its bytes are pinned by size
    and sha256."""
    path = str(ROOT / "demos" / "complexes" / "pentagon.json")
    code, out, err = run(capsys, "image", path, "--mode", "interior", "--field", "2")
    assert code == 0 and err == ""
    data = out.encode()
    assert len(data) == 23_433_810
    assert (
        hashlib.sha256(data).hexdigest()
        == "8e22823013aba2bc3c5d609eaeae5aabe5b508ea47f8693aa2e29da195eee4c8"
    )


def test_fiber_document(capsys, triangle_file):
    code, out, _ = run(
        capsys, "fiber", triangle_file, "--barcode", TYPE_STRINGS["hexagon"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 12
    assert doc["mode"] == "all"


def test_fiber_emit_dot(capsys, triangle_file):
    code, out, _ = run(
        capsys,
        "fiber",
        triangle_file,
        "--barcode",
        TYPE_STRINGS["hexagon"],
        "--emit-dot",
    )
    assert code == 0
    assert out.startswith("graph fiber {")
    assert out.count(" -- ") == 6


def test_homology_of_mobius_fiber(capsys, triangle_file):
    code, out, _ = run(
        capsys, "homology", triangle_file, "--barcode", TYPE_STRINGS["mobius"]
    )
    assert code == 0
    assert json.loads(out) == [1, 1, 0]


def test_morphisms_between_types(capsys, triangle_file):
    code, out, _ = run(
        capsys,
        "morphisms",
        triangle_file,
        "--from",
        TYPE_STRINGS["circle_shared_death"],
        "--to",
        TYPE_STRINGS["mobius"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["representative"] == ["1", "2", "2"]


def test_monodromy_document(capsys, triangle_file):
    code, out, _ = run(
        capsys,
        "monodromy",
        triangle_file,
        "--from",
        TYPE_STRINGS["circle_shared_death"],
        "--to",
        TYPE_STRINGS["mobius"],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "vertex_map",
        "cell_map",
        "collapsed_cells",
        "surviving_cells",
    }
    assert len(doc["collapsed_cells"]) == 12


def test_monodromy_class_index_out_of_range(capsys, triangle_file):
    code, out, err = run(
        capsys,
        "monodromy",
        triangle_file,
        "--from",
        TYPE_STRINGS["circle_shared_death"],
        "--to",
        TYPE_STRINGS["mobius"],
        "--class",
        "3",
    )
    assert code == 1
    assert "out of range" in err


def test_check_bounds(capsys, triangle_file):
    code, out, _ = run(capsys, "check-bounds", triangle_file)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 34
    assert sum(1 for r in rows if not r["tight"]) == 1


@pytest.mark.parametrize("mode", ["interior", "all"])
def test_check_bounds_builds_no_fiber_outside_lower_star(monkeypatch, mode):
    """Interior and all-mode groups hold every top cell of their fibers, so
    check-bounds reads the dimensions off them: with fiber_complex refusing,
    it still prints the recorded bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("check-bounds built a fiber")

    monkeypatch.setattr(ph.fiber, "fiber_complex", refuse)
    monkeypatch.setattr(cli, "fiber_complex", refuse)
    golden = json.loads(GOLDEN.read_text())
    for field in ("2", "3"):
        argv = ["check-bounds", "demos/complexes/triangle.json", "--mode", mode, "--field", field]
        assert replay(argv) == golden[json.dumps(argv)]


@pytest.mark.parametrize("mode", ["interior", "all"])
def test_check_bounds_enumerates_no_strata_outside_lower_star(monkeypatch, mode):
    """Outside lower-star mode each image record carries its top member, so
    check-bounds walks the image once: with enumerate_filter_strata
    refusing, it still prints the recorded bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("check-bounds enumerated the strata")

    monkeypatch.setattr(cli, "enumerate_filter_strata", refuse)
    golden = json.loads(GOLDEN.read_text())
    for field in ("2", "3"):
        argv = ["check-bounds", "demos/complexes/triangle.json", "--mode", mode, "--field", field]
        assert replay(argv) == golden[json.dumps(argv)]


@pytest.mark.parametrize(
    "name, p, differ, types",
    [
        ("triangle", 2, 1, 2),
        ("triangle", 3, 1, 2),
        ("square", 2, 5, 6),
        ("square", 3, 5, 6),
        ("path5", 2, 16, 17),
    ],
)
def test_lower_star_check_bounds_reports_the_all_mode_fibers(capsys, name, p, differ, types):
    """Lower-star check-bounds prints each lower-star type's all-mode fiber
    dimension. check_dimension_bound on the lower-star records reads the
    lower-star fiber's dimension instead, the one fiber_complex builds in
    lower-star mode, which is smaller on `differ` of the types."""
    path = str(ROOT / "demos" / "complexes" / f"{name}.json")
    code, out, err = run(capsys, "check-bounds", path, "--mode", "lower-star", "--field", str(p))
    assert code == 0 and err == ""
    K, field = load_complex(path), ph.FieldSpec(p)
    strata = ph.enumerate_filter_strata(K, "lower_star")
    records = ph.group_strata_by_barcode(K, strata, field)
    expected = per_type_dimension_bound(K, records, field)
    assert out == dumps(bounds_doc(expected))
    rows = ph.check_dimension_bound(records)
    assert rows == ph.check_dimension_bound(ph.image_records(K, "lower_star", field))
    assert [row.fiber_dim for row in rows] == [
        ph.fiber_dimension(ph.fiber_complex(K, rec.barcode_type, field, "lower_star"))
        for rec in records
    ]
    assert len(rows) == types
    assert sum(a.fiber_dim < b.fiber_dim for a, b in zip(rows, expected)) == differ


def test_essential_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "essential", triangle_file)
    assert code == 0
    assert json.loads(out) == {"essential": True, "removable_subset": None}


def test_essential_interval_reports_witness(capsys, interval_file):
    code, out, _ = run(capsys, "essential", interval_file)
    assert code == 0
    assert json.loads(out) == {
        "essential": False,
        "removable_subset": [[0], [0, 1]],
    }


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_essential_rejects_budget_below_one(capsys, interval_file, budget):
    code, out, err = run(capsys, "essential", interval_file, "--budget", budget)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"got {budget}" in err
    assert "too large" not in err


def test_essential_exhausts_its_budget(capsys):
    """rp2 is essential over F2, so its walk keeps more than 1000
    coface-closed subsets before it could end: exit 1, nothing on stdout."""
    rp2_file = str(ROOT / "demos" / "complexes" / "rp2.json")
    code, out, err = run(capsys, "essential", rp2_file, "--field", "2", "--budget", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: too large for exhaustive essentiality: more than 1000 ")
    assert err.rstrip().endswith("raise --budget")


def test_symmetries_document(capsys, triangle_file):
    code, out, _ = run(
        capsys, "symmetries", triangle_file, "--barcode", TYPE_STRINGS["two_circles"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["automorphisms"]) == 6
    assert len(doc["orbits"]) == 16


def test_unknown_barcode_token_exits_one(capsys, triangle_file):
    code, out, err = run(capsys, "fiber", triangle_file, "--barcode", "0:(bogus,inf)")
    assert code == 1
    assert out == ""
    assert "bogus" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "image", "/nonexistent/k.json")
    assert code == 1
    assert "error:" in err


def test_non_utf8_complex_file_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe[[0, 1]]")
    code, out, err = run(capsys, "strata", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert "Traceback" not in err


def test_nonprime_field_exits_one(capsys, triangle_file):
    code, _, err = run(capsys, "homology", triangle_file, "--barcode",
                       TYPE_STRINGS["mobius"], "--field", "9")
    assert code == 1
    assert "prime" in err


def test_morphisms_nonprime_field_exits_one(capsys, triangle_file):
    code, out, err = run(capsys, "morphisms", triangle_file, "--from",
                         TYPE_STRINGS["mobius"], "--to", TYPE_STRINGS["point"],
                         "--field", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not prime" in err


def test_non_ascii_rank_exits_one(capsys, triangle_file):
    code, out, err = run(capsys, "fiber", triangle_file, "--barcode", "0:(1,\u00b2)")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "unknown barcode token" in err
    assert "Traceback" not in err


def test_huge_field_exits_one(capsys, triangle_file):
    code, out, err = run(capsys, "essential", triangle_file, "--field", "1" + "0" * 400)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "2**31" in err


def test_internal_fault_exits_three(capsys, monkeypatch, triangle_file):
    """A failed internal check is not reported as a bad input (exit 1)."""

    def broken(args):
        raise InvariantError("cell 3: a check failed")

    monkeypatch.setattr(cli, "_cmd_essential", broken)
    code, out, err = run(capsys, "essential", triangle_file)
    assert code == 3 and out == ""
    assert err == "internal error: cell 3: a check failed\n"


def test_usage_error_exits_two(capsys, triangle_file):
    assert run(capsys, "no-such-command", triangle_file)[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "fiber", triangle_file)[0] == 2  # --barcode missing


def test_empty_fiber_exits_one(capsys, triangle_file):
    code, _, err = run(capsys, "fiber", triangle_file, "--barcode", "0:(1,inf)")
    assert code == 1
    assert "empty fiber" in err


def test_field_choice_changes_nothing_on_these_fibers(capsys, triangle_file):
    over2 = run(capsys, "homology", triangle_file, "--barcode",
                TYPE_STRINGS["two_circles"])
    over5 = run(capsys, "homology", triangle_file, "--barcode",
                TYPE_STRINGS["two_circles"], "--field", "5")
    assert over2 == over5
