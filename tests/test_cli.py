"""Command line interface, run in process through main()."""

import json

import pytest

from phfiber.cli import main
from phfiber.io import complex_doc, dumps

from conftest import TYPE_STRINGS


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
