"""JSON document round trips plus DOT output."""

import json
import math
import random
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import ParseError
from phfiber.io import (
    bounds_doc,
    complex_doc,
    complex_from_doc,
    dumps,
    emit_dot,
    essential_doc,
    fiber_doc,
    fraction_str,
    image_doc,
    monodromy_doc,
    morphism_class_doc,
    morphisms_doc,
    parse_stratum_doc,
    strata_doc,
    stratum_doc,
)
from phfiber.monodromy import monodromy_map
from phfiber.strata import check_dimension_bound

from conftest import TYPE_STRINGS


def test_dumps_is_valid_json_with_trailing_newline(triangle):
    text = dumps(complex_doc(triangle))
    assert text.endswith("\n")
    assert json.loads(text) == complex_doc(triangle)


# Pieces of the random strings: ASCII, non-ASCII (two-byte, CJK, astral, a
# lone surrogate), quote, backslash and control characters.
_STRING_PIECES = [
    "", "a", "zero", "inf", " ", "é", "日本", "😀", "\ud800",
    '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
]
_FLOATS = [0.0, -0.0, 0.5, -2.25, 1e300, 1e-300, math.inf, -math.inf, math.nan]


def _random_str(rng):
    return "".join(rng.choice(_STRING_PIECES) for _ in range(rng.randrange(4)))


def _random_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _random_str(rng)
    if kind == 1:  # small, negative and big ints
        return rng.choice([0, 1, -1, 7, -12, 2**64, -(3**50), rng.randint(-10**30, 10**30)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])


def _random_doc(rng, depth=0, shared=None):
    """A random nested document over the types dumps writes and those it
    leaves to json.dumps. Each tuple made is added to `shared`, and a node
    may be an earlier one of them, so one tuple object comes again at other
    depths and places; `shared` starts with (1,), (True,) and (1.0,), equal
    tuples that json writes differently, and a tuple holding a list."""
    if shared is None:
        shared = [(1,), (True,), (1.0,), ([1, "a"], (True,))]
    kind = rng.randrange(8) if depth < 4 else 0
    n = rng.randrange(5)
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # plain ints or strs, for the joins, or ints with bools mixed in
        pool = rng.choice([[1, -2, 10**20], ["a", "é", '"'], [0, 3, -4, 2**70, True, False]])
        return [rng.choice(pool) for _ in range(n)]
    if kind == 2:
        return [_random_doc(rng, depth + 1, shared) for _ in range(n)]
    if kind == 3:
        made = tuple(_random_doc(rng, depth + 1, shared) for _ in range(n))
        shared.append(made)
        return made
    if kind == 4:
        return {_random_str(rng): _random_doc(rng, depth + 1, shared) for _ in range(n)}
    if kind == 5:  # int, bool, None and float keys, which json writes as strings
        return {_random_scalar(rng): _random_doc(rng, depth + 1, shared) for _ in range(n)}
    if kind == 6:
        return rng.choice(shared)
    return rng.choice([[], {}, (), [[]], {"": {}}])


def _tuple_depths(x, depth=0, out=None):
    """Per tuple object in a document, by id, the depths it comes at."""
    out = {} if out is None else out
    if type(x) is tuple:
        out.setdefault(id(x), []).append(depth)
    if type(x) in (list, tuple):
        for v in x:
            _tuple_depths(v, depth + 1, out)
    elif type(x) is dict:
        for v in x.values():
            _tuple_depths(v, depth + 1, out)
    return out


def test_dumps_writes_the_bytes_of_indented_json_dumps():
    """dumps' own writer gives json.dumps(doc, indent=2) + "\\n" byte for byte,
    over random nested documents, including the values it leaves to json:
    floats (with inf and nan), dict keys that are not str, and tuple objects
    that come again at one depth and at several, some holding lists. dumps
    reuses a tuple's text by object and depth, so the equal (1,), (True,)
    and (1.0,) must each keep their own."""
    rng = random.Random(20211)
    again = elsewhere = 0
    for _ in range(3000):
        doc = _random_doc(rng)
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n", repr(doc)
        depths = _tuple_depths(doc).values()
        again += any(len(d) > len(set(d)) for d in depths)
        elsewhere += any(len(set(d)) > 1 for d in depths)
    assert again > 100 and elsewhere > 100
    one, true, real = (1,), (True,), (1.0,)
    holder = ([one], true)
    doc = [one, true, real, [real, true, one, {"a": (one, true, real)}], holder, [holder]]
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_fraction_round_trip():
    for q in (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(5, 7)):
        assert Fraction(fraction_str(q)) == q
    assert fraction_str(Fraction(1, 2)) == "1/2"


def test_complex_doc_round_trip(triangle, wedge, two_intervals):
    for K in (triangle, wedge, two_intervals):
        assert complex_from_doc(complex_doc(K)) == K


def test_complex_doc_lists_only_maximal_simplices(triangle):
    doc = complex_doc(triangle)
    assert doc == {"maximal_simplices": [[0, 1], [0, 2], [1, 2]]}


def test_complex_from_doc_rejects_malformed():
    with pytest.raises(ParseError):
        complex_from_doc({"simplices": [[0, 1]]})
    with pytest.raises(ParseError):
        complex_from_doc({"maximal_simplices": [[0, True]]})
    with pytest.raises(ParseError):
        complex_from_doc({"maximal_simplices": "nope"})


def test_load_complex_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        ph.load_complex(str(path))


def test_load_complex_reads_a_file(tmp_path, triangle):
    path = tmp_path / "triangle.json"
    path.write_text(dumps(complex_doc(triangle)))
    assert ph.load_complex(str(path)) == triangle


def test_stratum_doc_round_trip(triangle):
    for st in ph.enumerate_filter_strata(triangle, "all")[:40]:
        doc = stratum_doc(st, triangle)
        assert parse_stratum_doc(doc, triangle) == st
        json.loads(dumps(doc))


def test_parse_stratum_doc_rejects_malformed(interval):
    with pytest.raises(ParseError, match="malformed stratum"):
        parse_stratum_doc({"blocks": [[[0]]]}, interval)
    with pytest.raises(ParseError, match="malformed stratum"):
        parse_stratum_doc({"blocks": 5, "at_zero": False, "at_one": False}, interval)
    foreign = {"blocks": [[[0], [2]], [[1], [0, 1]]], "at_zero": False, "at_one": False}
    with pytest.raises(ParseError, match=r"stratum simplex \{2\} is not in the complex"):
        parse_stratum_doc(foreign, interval)


def test_parse_stratum_doc_rejects_non_boolean_flags(interval):
    blocks = [[[0], [1]], [[0, 1]]]
    for flags in (("false", False), (False, 1), (None, False)):
        doc = {"blocks": blocks, "at_zero": flags[0], "at_one": flags[1]}
        with pytest.raises(ParseError, match="must be true or false"):
            parse_stratum_doc(doc, interval)


def test_parse_stratum_doc_rejects_a_repeated_simplex(interval):
    doc = {"blocks": [[[0], [0], [1]], [[0, 1]]], "at_zero": False, "at_one": False}
    with pytest.raises(ParseError, match=r"simplex \{0\} is listed twice in one block"):
        parse_stratum_doc(doc, interval)


def test_parse_stratum_doc_rejects_overlapping_blocks(interval):
    doc = {"blocks": [[[0], [1]], [[0], [0, 1]]], "at_zero": False, "at_one": False}
    with pytest.raises(ParseError, match=r"simplex \{0\} lies in two blocks"):
        parse_stratum_doc(doc, interval)


def test_parse_stratum_doc_rejects_a_simplex_before_its_face(interval):
    doc = {"blocks": [[[0, 1]], [[0]]], "at_zero": False, "at_one": False}
    with pytest.raises(ParseError, match="not a stratum of this complex"):
        parse_stratum_doc(doc, interval)
    doc["blocks"].append([[1]])  # every simplex present, still out of order
    with pytest.raises(ParseError, match=r"has larger value than \{0,1\}"):
        parse_stratum_doc(doc, interval)


def test_parse_stratum_doc_rejects_a_missing_simplex(interval):
    doc = {"blocks": [[[0], [1]]], "at_zero": True, "at_one": False}
    with pytest.raises(ParseError, match="does not partition"):
        parse_stratum_doc(doc, interval)


def test_strata_doc_lists_every_stratum(interval):
    strata = ph.enumerate_filter_strata(interval, "interior_only")
    doc = strata_doc(interval, strata)
    assert len(doc) == 6
    json.loads(dumps(doc))


def test_image_doc_fields(triangle_records):
    doc = image_doc(triangle_records)
    assert len(doc) == 34
    row = doc[0]
    assert set(row) == {"barcode_type", "member_ids", "codim", "bounded_deficit"}
    assert [r["codim"] for r in doc] == sorted(r["codim"] for r in doc)
    json.loads(dumps(doc))


def test_fiber_doc_contents(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["hexagon"]]
    doc = fiber_doc(fc)
    assert doc["barcode_type"] == TYPE_STRINGS["hexagon"]
    assert doc["mode"] == "all"
    assert len(doc["cells"]) == 12
    assert len(doc["vertices"]) == 6
    assert all(len(v["rank_vector"]) == 6 for v in doc["vertices"])
    json.loads(dumps(doc))


def test_morphism_doc_shape(types):
    cls = ph.morphism_class_between(types["circle_shared_death"], types["mobius"])
    doc = morphism_class_doc(cls)
    assert doc["source"] == TYPE_STRINGS["circle_shared_death"]
    assert doc["target"] == TYPE_STRINGS["mobius"]
    assert doc["representative"] == ["1", "2", "2"]
    assert doc["is_identity"] is False
    collapsed = [
        row for deg in doc["bar_matching"] for row in deg if row["image"] is None
    ]
    assert len(collapsed) == 1
    json.loads(dumps(morphisms_doc([cls])))


def test_monodromy_doc_has_exactly_the_map_tables(
    triangle, triangle_fibers, types
):
    cls = ph.morphism_class_between(types["circle_shared_death"], types["mobius"])
    mm = monodromy_map(
        triangle,
        triangle_fibers[TYPE_STRINGS["circle_shared_death"]],
        triangle_fibers[TYPE_STRINGS["mobius"]],
        cls,
    )
    doc = monodromy_doc(mm)
    assert set(doc) == {
        "vertex_map",
        "cell_map",
        "collapsed_cells",
        "surviving_cells",
    }
    assert len(doc["collapsed_cells"]) == 12
    json.loads(dumps(doc))


def test_bounds_doc(triangle_records):
    rows = check_dimension_bound(triangle_records)
    doc = bounds_doc(rows)
    assert len(doc) == 34
    assert set(doc[0]) == {
        "barcode_type",
        "fiber_dim",
        "bounded_deficit",
        "codim",
        "tight",
    }
    json.loads(dumps(doc))


def test_essential_doc():
    assert essential_doc(True, None) == {"essential": True, "removable_subset": None}
    doc = essential_doc(False, (ph.simplex([0]), ph.simplex([0, 1])))
    assert doc == {"essential": False, "removable_subset": [[0], [0, 1]]}


def test_dot_output_for_a_cycle(triangle_fibers):
    dot = ph.emit_dot(triangle_fibers[TYPE_STRINGS["hexagon"]])
    assert dot.startswith("graph fiber {")
    assert dot.count("[label=") == 6
    assert dot.count(" -- ") == 6
    assert "1-skeleton" not in dot


def test_dot_output_for_a_point(triangle_fibers):
    dot = ph.emit_dot(triangle_fibers[TYPE_STRINGS["point"]])
    assert dot.count("[label=") == 1
    assert dot.count(" -- ") == 0


def test_dot_output_warns_above_dimension_one(triangle_fibers):
    dot = ph.emit_dot(triangle_fibers[TYPE_STRINGS["mobius"]])
    assert "// 1-skeleton only: fiber dimension 2" in dot
    assert dot.count("[label=") == 9
