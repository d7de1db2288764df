"""Fibers over barcode types: cells, face poset, cellular boundary, homology."""

import ast
import bisect
import dataclasses
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import phfiber as ph
from phfiber import INF, DomainError, InvariantError
from phfiber.barcodes import ZERO
from phfiber.fiber import (
    FIBER_MODES,
    _cell_facets,
    _face_sets,
    _fiber_strata,
    _supply_needs,
    boundary_circuits,
    fiber_dimension,
)
from phfiber.persistence import level_barcode
from phfiber.strata import (
    FilterStratum,
    check_dimension_bound,
    is_lower_star_stratum,
    serialize_stratum,
    stratum_levels,
)

from conftest import (
    FIBER_CENSUS,
    TYPE_STRINGS,
    StaircaseTriangulation,
    block_masks,
    block_simplices,
    euler_recheck_cells,
    lower_star_fiber_oracle,
    stratum_closure_leq,
)

DEMO_COMPLEXES = Path(__file__).resolve().parent.parent / "demos" / "complexes"


def multinomial(shape):
    out = math.factorial(sum(shape))
    for k in shape:
        out //= math.factorial(k)
    return out


def cell_counts(fc):
    return dict(Counter(c.dim for c in fc.cells))


def test_fiber_census_of_named_types(triangle_fibers):
    for name, (counts, betti) in FIBER_CENSUS.items():
        fc = triangle_fibers[TYPE_STRINGS[name]]
        assert cell_counts(fc) == counts, name
        assert ph.fiber_homology(fc) == betti, name


def test_injective_types_have_point_fibers(triangle_fibers):
    for name in ("bars_disjoint", "bars_crossing", "bars_nested"):
        fc = triangle_fibers[TYPE_STRINGS[name]]
        assert all(c.dim == 0 for c in fc.cells)


def test_cell_shape_law_across_all_fibers(triangle_fibers):
    for fc in triangle_fibers.values():
        m = fc.barcode_type.dim
        for i, cell in enumerate(fc.cells):
            assert len(cell.gap_shape) == m + 1
            assert sum(cell.gap_shape) == cell.dim
            assert len(fc.zero_faces_of(i)) == multinomial_corners(cell.gap_shape)
            if cell.dim == 0:
                assert cell.rank_vector is not None
            else:
                assert cell.rank_vector is None


def multinomial_corners(shape):
    out = 1
    for k in shape:
        out *= k + 1
    return out


def test_face_relation_is_a_strict_graded_order(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["mobius"]]
    rel = set(fc.face_relation)
    for i, j in rel:
        assert fc.cells[i].dim < fc.cells[j].dim
        assert stratum_closure_leq(fc.cells[i].stratum, fc.cells[j].stratum)
    # transitivity
    for i, j in rel:
        for k, l in rel:
            if j == k:
                assert (i, l) in rel
    # covering pairs drop dimension by exactly one
    for i, j in rel:
        if not any((i, k) in rel and (k, j) in rel for k in range(len(fc.cells))):
            assert fc.cells[j].dim - fc.cells[i].dim == 1


def test_interval_fiber_faces_match_global_closure(interval):
    strata = ph.enumerate_filter_strata(interval, "all")
    records = ph.group_strata_by_barcode(interval, strata)
    for rec in records:
        fc = ph.fiber_complex(interval, rec.barcode_type)
        in_fiber = {cell.stratum: i for i, cell in enumerate(fc.cells)}
        for j, cell in enumerate(fc.cells):
            faces = {i for i, jj in fc.face_relation if jj == j}
            global_faces = {
                in_fiber[st]
                for st in strata
                if st in in_fiber
                and st != cell.stratum
                and stratum_closure_leq(st, cell.stratum)
            }
            assert faces == global_faces


def test_same_type_from_two_realizations(triangle, types):
    T = types["hexagon"]
    custom = ph.canonicalize_barcode(
        ph.realize_type(T, (Fraction(1, 9), Fraction(5, 9)))
    )
    assert custom == T
    assert ph.fiber_complex(triangle, custom) == ph.fiber_complex(triangle, T)


def test_one_rank_fibers_are_connected(interval, two_intervals, triangle):
    for K in (interval, two_intervals, triangle):
        strata = ph.enumerate_filter_strata(K, "interior_only")
        for rec in ph.group_strata_by_barcode(K, strata):
            if rec.barcode_type.dim != 1:
                continue
            betti = ph.fiber_homology(ph.fiber_complex(K, rec.barcode_type))
            assert betti[0] == 1 and all(b == 0 for b in betti[1:])


def test_interval_fiber_over_disjoint_bars(interval):
    fc = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,inf),(2,3)"))
    assert cell_counts(fc) == {0: 2}


def test_interval_fiber_over_shared_birth(interval):
    fc = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,2),(1,inf)"))
    assert cell_counts(fc) == {0: 1}


def test_interval_fiber_over_single_infinite_bar(interval):
    fc = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,inf)"))
    assert cell_counts(fc) == {0: 3, 1: 2}
    assert fiber_dimension(fc) == 1
    assert ph.fiber_homology(fc) == (1, 0)


def test_path5_pinned_stratum_is_a_square_cell(path5):
    sx = {s.vertices: s for s in path5.simplices}
    st = FilterStratum(
        block_masks(
            path5,
            [sx[(0,)]],
            [sx[(1,)], sx[(0, 1)]],
            [sx[(3,)]],
            [sx[(2,)], sx[(1, 2)], sx[(2, 3)]],
            [sx[(4,)], sx[(3, 4)]],
        ),
        True,
        False,
    )
    T = ph.barcode_of_stratum(path5, st)
    assert ph.format_barcode_type(T) == "0:(zero,inf),(1,2)"
    fc = ph.fiber_complex(path5, T)
    i = fc.cell_index(st)
    cell = fc.cells[i]
    assert cell.gap_shape == (1, 0, 1)
    assert cell.dim == 2
    assert len(fc.zero_faces_of(i)) == 4


def test_square_cells_triangulate_along_a_diagonal(two_intervals):
    T = ph.parse_barcode_type("0:(1,inf),(2,inf)")
    fc = ph.fiber_complex(two_intervals, T)
    assert cell_counts(fc) == {0: 30, 1: 52, 2: 24}
    tf = StaircaseTriangulation(fc)
    assert sum(1 for s in tf.maximal_simplices if len(s) == 3) == 32

    faces = {i for i, j in fc.face_relation}
    maximal = [i for i in range(len(fc.cells)) if i not in faces]
    shapes = Counter(fc.cells[i].gap_shape for i in maximal)
    assert shapes == {(0, 0, 2): 16, (0, 1, 1): 8}

    vid = {v: k for k, v in enumerate(tf.vertices)}
    square = next(i for i in maximal if fc.cells[i].gap_shape == (0, 1, 1))
    corners = {
        vid[fc.cells[z].rank_vector] for z in fc.zero_faces_of(square)
    }
    assert len(corners) == 4
    inside = [s for s in tf.maximal_simplices if set(s) <= corners]
    assert len(inside) == 2
    diagonal = set(inside[0]) & set(inside[1])
    assert len(diagonal) == 2
    lo, hi = sorted(tf.vertices[k] for k in diagonal)
    # the shared edge joins the comparable corner pair of the square
    assert all(a <= b for a, b in zip(lo, hi))


def test_triangulation_chain_count_and_euler_sweep(triangle_fibers):
    for fc in triangle_fibers.values():
        tf = StaircaseTriangulation(fc)
        faces = {i for i, j in fc.face_relation}
        expected = sum(
            multinomial(fc.cells[i].gap_shape)
            for i in range(len(fc.cells))
            if i not in faces
        )
        assert len(tf.maximal_simplices) == expected
        chi_cells = sum((-1) ** c.dim for c in fc.cells)
        K_t = ph.build_complex([list(s) for s in tf.maximal_simplices])
        assert K_t.euler_characteristic() == chi_cells
        for chain in tf.maximal_simplices:
            vecs = [tf.vertices[k] for k in chain]
            vecs.sort()
            for lo, hi in zip(vecs, vecs[1:]):
                assert lo != hi
                assert all(a <= b for a, b in zip(lo, hi))


def test_fiber_vertices_realize_the_type(triangle, triangle_fibers, types):
    for name in ("hexagon", "mobius"):
        T = types[name]
        fc = triangle_fibers[TYPE_STRINGS[name]]
        m = T.dim
        allowed = {Fraction(0), Fraction(1)} | {
            Fraction(i, m + 1) for i in range(1, m + 1)
        }
        for f in ph.fiber_vertices(fc):
            assert set(f.values) <= allowed
            assert ph.canonicalize_barcode(ph.barcode_of_filter(f)) == T


def test_mobius_fiber_details(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["mobius"]]
    assert sum(1 for c in fc.cells if c.dim == 2) == 12
    # every 2-cell is already a triangle, so the triangulation adds nothing
    assert all(c.gap_shape == (0, 2, 0) for c in fc.cells if c.dim == 2)
    assert len(StaircaseTriangulation(fc).maximal_simplices) == 12
    assert boundary_circuits(fc) == 1
    assert ph.fiber_homology(fc) == (1, 1, 0)


def test_two_intervals_fiber_has_two_boundary_circuits(two_intervals):
    T = ph.parse_barcode_type("0:(1,inf),(2,inf)")
    fc = ph.fiber_complex(two_intervals, T)
    assert boundary_circuits(fc) == 2
    assert ph.fiber_homology(fc) == (2, 0, 0)


def test_boundary_circuits_require_pure_two_dimensional(triangle_fibers):
    for name in ("two_circles", "point"):
        with pytest.raises(DomainError, match="pure 2-dimensional"):
            boundary_circuits(triangle_fibers[TYPE_STRINGS[name]])


def test_empty_fiber_is_rejected(triangle):
    # The last two have a bar in a degree above dim K, so no row can match.
    for text in ("0:(1,inf)", "0:(1,inf);3:(2,inf)", "0:(zero,inf);3:(1,2)"):
        with pytest.raises(DomainError, match="empty fiber"):
            ph.fiber_complex(triangle, ph.parse_barcode_type(text))


def test_unknown_fiber_mode_rejected(triangle, types):
    with pytest.raises(DomainError, match="unknown fiber mode"):
        ph.fiber_complex(triangle, types["mobius"], mode="interior_only")


def test_cell_index_rejects_foreign_stratum(triangle_fibers, interval):
    fc = triangle_fibers[TYPE_STRINGS["point"]]
    a, b, ab = interval.simplices
    foreign = FilterStratum(block_masks(interval, [a, b, ab]), False, False)
    with pytest.raises(DomainError, match="not a cell"):
        fc.cell_index(foreign)


def test_dimension_bound_rows(triangle_records):
    rows = check_dimension_bound(triangle_records)
    assert len(rows) == 34
    for row in rows:
        assert Fraction(row.fiber_dim) <= row.bounded_deficit <= Fraction(row.codim)
        point = ph.format_barcode_type(row.barcode_type) == TYPE_STRINGS["point"]
        assert row.tight == (not point)


def test_interval_dimension_bounds(interval):
    strata = ph.enumerate_filter_strata(interval, "interior_only")
    records = ph.group_strata_by_barcode(interval, strata)
    rows = check_dimension_bound(records)
    assert all(row.tight for row in rows)


def test_lower_star_fiber_over_mobius_type(triangle, types):
    fc = ph.fiber_complex(triangle, types["mobius"], mode="lower_star")
    assert cell_counts(fc) == {0: 6, 1: 6}
    assert all(is_lower_star_stratum(triangle, c.stratum) for c in fc.cells)
    assert ph.fiber_homology(fc) == (1, 1)


def test_lower_star_fiber_over_point_type(triangle, types):
    fc = ph.fiber_complex(triangle, types["point"], mode="lower_star")
    assert cell_counts(fc) == {0: 1}


def test_lower_star_fibers_equal_the_filtered_all_mode_fibers():
    """fiber_complex(mode="lower_star") walks only lower-star strata. Over
    every interior type of the triangle, interval and square, and every
    lower-star type of path5, per field F2 and F3, its fiber must print the
    oracle's bytes (the all-mode fiber filtered by is_lower_star_stratum,
    conftest.lower_star_fiber_oracle): the fiber document and the DOT text,
    with the same cellular boundary; or both must be empty. Path5's other
    interior types have no lower-star cell, which would be a lower-star
    stratum of that type, and their all-mode fibers take a minute to walk."""
    counts = Counter()
    for name in ("triangle", "interval", "square", "path5"):
        K = ph.load_complex(DEMO_COMPLEXES / f"{name}.json")
        mode = "lower_star" if name == "path5" else "interior_only"
        strata = ph.enumerate_filter_strata(K, mode)
        for p in (2, 3):
            field = ph.FieldSpec(p)
            for rec in ph.group_strata_by_barcode(K, strata, field):
                try:
                    want = lower_star_fiber_oracle(K, rec.barcode_type, field)
                except DomainError:
                    with pytest.raises(DomainError, match="empty fiber"):
                        ph.fiber_complex(K, rec.barcode_type, field, "lower_star")
                    counts["empty"] += 1
                    continue
                fc = ph.fiber_complex(K, rec.barcode_type, field, "lower_star")
                assert ph.io.dumps(ph.io.fiber_doc(fc)) == ph.io.dumps(ph.io.fiber_doc(want))
                assert ph.emit_dot(fc) == ph.emit_dot(want)
                assert fc.boundary == want.boundary
                counts["cells"] += len(fc.cells)
                counts["fibers"] += 1
    assert counts == {"fibers": 52, "cells": 1680, "empty": 724}


def test_torus_lower_star_image_and_fiber_homology():
    """The 7-vertex torus (triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7):
    its lower-star image, and per type the cells by dimension and the
    cellular Betti numbers of its lower-star fiber, over F2 and F3."""
    K = ph.load_complex(DEMO_COMPLEXES / "torus.json")
    assert K == ph.build_complex(
        [[i, (i + a) % 7, (i + 3) % 7] for i in range(7) for a in (1, 2)]
    )
    assert len(K) == 42 and ph.betti_numbers(K) == (1, 2, 1)
    strata = ph.enumerate_filter_strata(K, "lower_star")
    assert len(strata) == 47293
    expected = {
        "0:(1,inf);1:(2,inf),(3,inf);2:(4,inf)": (
            {0: 3024, 1: 10584, 2: 12096, 3: 4536}, (3, 9, 9, 3)),
        "0:(1,inf);1:(1,inf),(2,inf);2:(3,inf)": ({0: 378, 1: 882, 2: 504}, (3, 6, 3)),
        "0:(1,inf);1:(2,inf),(2,inf);2:(3,inf)": (
            {0: 756, 1: 3444, 2: 5208, 3: 3024, 4: 504}, (1, 4, 5, 2, 0)),
        "0:(1,inf);1:(2,inf),(3,inf);2:(3,inf)": ({0: 378, 1: 882, 2: 504}, (3, 6, 3)),
        "0:(1,inf);1:(1,inf),(1,inf);2:(2,inf)": ({0: 42, 1: 126, 2: 84}, (1, 2, 1)),
        "0:(1,inf);1:(1,inf),(2,inf);2:(2,inf)": ({0: 42, 1: 42}, (3, 3)),
        "0:(1,inf);1:(2,inf),(2,inf);2:(2,inf)": ({0: 42, 1: 126, 2: 84}, (1, 2, 1)),
        "0:(1,inf);1:(1,inf),(1,inf);2:(1,inf)": ({0: 1}, (1, 0)),
    }
    for p in (2, 3):
        field = ph.FieldSpec(p)
        got = {}
        for rec in ph.group_strata_by_barcode(K, strata, field):
            fc = ph.fiber_complex(K, rec.barcode_type, field, "lower_star")
            betti = ph.fiber_homology(fc, field)
            got[ph.format_barcode_type(rec.barcode_type)] = (cell_counts(fc), betti)
        assert got == expected, p


def test_bounded_deficit_formula(triangle_fibers):
    for fc in triangle_fibers.values():
        expected = Fraction(6 - fc.barcode_type.finite_endpoint_count(), 2)
        assert fc.bounded_deficit() == expected


def fibers_over_types(K, stratum_mode, fiber_modes=("all", "lower_star")):
    """Every nonempty fiber over the barcode types of K's strata."""
    strata = ph.enumerate_filter_strata(K, stratum_mode)
    for rec in ph.group_strata_by_barcode(K, strata):
        for mode in fiber_modes:
            try:
                yield ph.fiber_complex(K, rec.barcode_type, mode=mode)
            except DomainError:
                assert mode == "lower_star"


def labels_from_values(K, stratum, field):
    """Block labels read off where each block's value falls among the endpoints."""
    rep = ph.representative_filter(K, stratum)
    bc = ph.barcode_of_filter(rep, field)
    ends = sorted({e for deg in bc for bar in deg for e in bar if e != INF and 0 < e < 1})
    cuts = [Fraction(0)] + ends + [Fraction(1)]
    value = dict(zip(K.simplices, rep.values))
    labels = []
    for block in stratum.blocks:
        v = value[block_simplices(K, block)[0]]
        if v in cuts:
            labels.append(("pin", cuts.index(v)))
        else:
            labels.append(("free", bisect.bisect(cuts, v) - 1))
    return tuple(labels)


def assert_matches_closure_oracle(fc):
    """Face relation and block labels against the pairwise stratum oracle."""
    cells = fc.cells
    brute = {
        (i, j)
        for i, low in enumerate(cells)
        for j, high in enumerate(cells)
        if i != j and stratum_closure_leq(low.stratum, high.stratum)
    }
    assert set(fc.face_relation) == brute
    assert list(fc.face_relation) == sorted(brute)
    closure = {j: {j} for j in range(len(cells))}
    for i, j in brute:
        closure[j].add(i)
    for j, cell in enumerate(cells):
        assert fc.cell_index(cell.stratum) == j
        assert fc.zero_faces_of(j) == tuple(i for i in fc.zero_cells() if i in closure[j])
        assert cell.labels == labels_from_values(fc.complex, cell.stratum, fc.field)


def test_face_poset_matches_oracle_on_every_triangle_type(triangle):
    fibers = list(fibers_over_types(triangle, "all"))
    assert len(fibers) == 142
    assert {fc.mode for fc in fibers} == {"all", "lower_star"}
    for fc in fibers:
        assert_matches_closure_oracle(fc)


def test_face_poset_matches_oracle_on_two_interval_fibers(two_intervals):
    fibers = list(fibers_over_types(two_intervals, "interior_only"))
    assert len(fibers) == 66
    for fc in fibers:
        assert_matches_closure_oracle(fc)


def test_face_poset_matches_oracle_on_small_path4_fibers():
    path4 = ph.build_complex([[0, 1], [1, 2], [2, 3]])
    small = [
        fc for fc in fibers_over_types(path4, "interior_only", ("all",))
        if len(fc.cells) <= 120
    ]
    assert len(small) == 161
    assert sum(len(fc.face_relation) for fc in small) > 0
    for fc in small:
        assert_matches_closure_oracle(fc)


def test_zero_cells_are_their_levels(triangle):
    """Every 0-cell's rank vector is its stratum's levels, and the Fraction
    filter fiber_vertices builds from it lies over the fiber's type."""
    fibers = list(fibers_over_types(triangle, "all"))
    assert len(fibers) == 142
    for fc in fibers:
        T = fc.barcode_type
        zero = fc.zero_cells()
        vertices = ph.fiber_vertices(fc)
        assert len(vertices) == len(zero) > 0
        for i, f in zip(zero, vertices):
            vec = fc.cells[i].rank_vector
            assert vec == stratum_levels(fc.complex, fc.cells[i].stratum)
            assert f.values == tuple(Fraction(s, T.dim + 1) for s in vec)
            assert ph.canonicalize_barcode(ph.barcode_of_filter(f, fc.field)) == T


def globally_maximal_chains(fc):
    """Every cell's maximal chains of 0-faces under the pointwise order, kept
    when no other chain strictly contains them, as sorted vertex-id tuples."""
    vertices = sorted(fc.cells[i].rank_vector for i in fc.zero_cells())
    vid = {v: k for k, v in enumerate(vertices)}

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    chains = set()
    for j in range(len(fc.cells)):
        vecs = [fc.cells[i].rank_vector for i in fc.zero_faces_of(j)]

        def extend(chain):
            above = [v for v in vecs if v != chain[-1] and leq(chain[-1], v)]
            covers = [v for v in above if not any(u != v and leq(u, v) for u in above)]
            if not covers:
                chains.add(frozenset(vid[v] for v in chain))
            for v in covers:
                extend(chain + [v])

        for v in vecs:
            if not any(u != v and leq(u, v) for u in vecs):
                extend([v])
    return sorted(tuple(sorted(c)) for c in chains if not any(c < d for d in chains))


def test_triangulation_keeps_the_globally_maximal_chains(triangle, two_intervals):
    """Chains of the maximal cells are the maximal simplices of the union of
    every cell's chains."""
    filled = ph.build_complex([[0, 1, 2]])
    fibers = [
        *fibers_over_types(triangle, "all"),
        *fibers_over_types(filled, "all"),
        *fibers_over_types(two_intervals, "all"),
    ]
    assert len(fibers) == 610
    with_faces = 0
    for fc in fibers:
        tf = StaircaseTriangulation(fc)
        assert tf.vertices == tuple(sorted(fc.cells[i].rank_vector for i in fc.zero_cells()))
        assert list(tf.maximal_simplices) == globally_maximal_chains(fc)
        with_faces += bool(fc.face_relation)
    assert with_faces == 128


@pytest.mark.parametrize(
    "maximal",
    [
        [[0, 1]],
        [[0, 1], [1, 2], [0, 2]],
        [[0, 1, 2]],
        [[0, 1], [2, 3]],
        [[0, 1], [1, 2], [2, 3]],
    ],
    ids=["interval", "triangle", "filled_triangle", "two_intervals", "path4"],
)
def test_euler_pruning_keeps_every_member_stratum(maximal):
    """Oracle for the walk, Euler-count test, supply bound and exact pruning
    together: the cells of the fiber over each all-mode type are exactly the
    strata grouped under that type. On path4 (667 types per field) the
    supply bound drops most of the walk's branches."""
    K = ph.build_complex(maximal)
    strata = ph.enumerate_filter_strata(K, "all")
    for p in (2, 3):
        field = ph.FieldSpec(p)
        for rec in ph.group_strata_by_barcode(K, strata, field):
            fc = ph.fiber_complex(K, rec.barcode_type, field, "all")
            assert len(fc.cells) == len(rec.member_ids)
            assert {c.stratum for c in fc.cells} == {strata[i] for i in rec.member_ids}


@pytest.mark.parametrize(
    "maximal",
    [[[0, 1], [1, 2], [0, 2]], [[0, 1], [1, 2], [2, 3], [0, 3]], [[0, 1], [1, 2], [2, 3]]],
    ids=["triangle", "square", "path4"],
)
def test_pinned_blocks_supply_what_the_walk_asks(maximal):
    """The counting lemma the walk's supply bound rests on, on real cells:
    in every cell of every all-mode fiber, the pinned blocks whose symbol is
    r or later hold at least _supply_needs(T)[r][q] q-simplices, for every r
    and q. The cells are all of K's strata, each typed and labelled off its
    own level barcode, so a need too large for some cell fails here even
    where the walk would drop that cell. Each type's table must also equal
    the endpoint count read off a member's bars in levels, so a need too
    small fails too."""
    K = ph.build_complex(maximal)
    tables = {}
    tight = 0
    for st in ph.enumerate_filter_strata(K, "all"):
        levels = stratum_levels(K, st)
        raw = level_barcode(K, levels, ph.F2)
        top = st.interior_dim + 1
        T = ph.canonicalize_barcode(raw, top)
        inner = sorted({e for deg in raw for bar in deg for e in bar if 0 < e < top})
        symbol = {level: k for k, level in enumerate(inner, 1)}
        symbol[0], symbol[top] = ZERO, T.one
        need = tables.get(T)
        if need is None:
            need = tables[T] = _supply_needs(T)
            endpoints = [[0] * len(need[0]) for _ in need]
            for q, deg in enumerate(raw):
                for b, d in deg:
                    for r in range(symbol[b] + 1):
                        endpoints[r][q] += 1
                    if d != INF:
                        for r in range(symbol[d] + 1):
                            endpoints[r][q + 1] += 1
            assert need == [tuple(row) for row in endpoints], str(T)
            assert sum(need[ZERO]) == T.finite_endpoint_count()
        # Per symbol, its pinned block's q-simplices, q over need's degrees.
        pinned = [[0] * len(need[0]) for _ in need]
        for i, level in enumerate(levels):
            if level in symbol and K.dims[i] < len(need[0]):
                pinned[symbol[level]][K.dims[i]] += 1
        have = [0] * len(need[0])
        for r in reversed(range(len(need))):
            have = [h + n for h, n in zip(have, pinned[r])]
            assert all(h >= n for h, n in zip(have, need[r])), (str(T), st)
            tight += r > ZERO and have == list(need[r])
    assert tight > 0


def test_exact_walk_matches_euler_pruning_with_recheck(path5, triangle, interval):
    """The exact walk's cells, with their gap shapes, rank vectors and labels,
    against Euler pruning plus a level_barcode recheck of every survivor, on
    path5, the square, two triangles (11 simplices, so ids of two digits) and
    every interior type of path4 in perfbench/inputs.json. The cells must come
    in (dim, serialize_stratum) order, which fiber_complex gets from the walk
    order and a sort by dimension alone. Then the walk's strata and symbols,
    in walk order, over every image type of the triangle and the interval in
    interior and all mode and of the square in interior mode."""
    path4 = ph.build_complex([[0, 1], [1, 2], [2, 3]])
    square = ph.build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    triangles = ph.build_complex([[0, 1, 2], [1, 2, 3]])
    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.json"
    cases = [(path5, "0:(zero,inf),(1,2)"), (square, "0:(1,inf),(2,3);1:(4,inf)")]
    cases += [
        (triangles, "0:(1,2),(1,3),(1,inf);1:(4,one)"),
        (triangles, "0:(zero,1),(zero,1),(zero,inf);1:(1,4),(2,3)"),
        (triangles, "0:(1,2),(1,2),(1,3),(1,inf)"),
    ]
    cases += [(path4, t) for t in json.loads(inputs.read_text())["path4_interior"]]
    assert len(cases) == 172
    cells = rechecked = 0
    for K, text in cases:
        T = ph.parse_barcode_type(text)
        for p in (2, 3):
            field = ph.FieldSpec(p)
            expected, leaves = euler_recheck_cells(K, T, field)
            fc = ph.fiber_complex(K, T, field)
            got = {c.stratum: (c.gap_shape, c.rank_vector, c.labels) for c in fc.cells}
            assert got == expected, (text, p)
            order = [(c.dim, serialize_stratum(c.stratum, K)) for c in fc.cells]
            assert order == sorted(order), (text, p)
            cells += len(got)
            rechecked += leaves
    # Most Euler survivors fail the recheck, so the pruning is really tested.
    assert rechecked > 2 * cells

    walks = 0
    for K, mode in [(triangle, "interior_only"), (triangle, "all"),
                    (interval, "interior_only"), (interval, "all"),
                    (square, "interior_only")]:
        strata = ph.enumerate_filter_strata(K, mode)
        memo = {}
        for p in (2, 3):
            field = ph.FieldSpec(p)
            for rec in ph.group_strata_by_barcode(K, strata, field):
                expected, _ = euler_recheck_cells(K, rec.barcode_type, field, memo)
                leaves = [
                    (st, tuple(None if kind == "free" else s for kind, s in labels))
                    for st, (_, _, labels) in expected.items()
                ]
                leaves.sort(key=lambda leaf: serialize_stratum(leaf[0], K))
                assert _fiber_strata(K, rec.barcode_type, field) == leaves
                walks += 1
    assert walks == 1034


def test_exact_walk_compares_births_by_degree():
    """On the hollow triangle plus an isolated vertex, a block can give birth
    to a component and a cycle at once, with Euler count 0 and no deaths,
    just like a free block. Only the births by degree tell them apart, so
    every type with births in two degrees at one symbol is checked against
    its image group."""
    K = ph.build_complex([[0, 1], [1, 2], [0, 2], [3]])
    strata = ph.enumerate_filter_strata(K, "all")
    checked = 0
    for rec in ph.group_strata_by_barcode(K, strata):
        T = rec.barcode_type
        born = {(b, q) for q, deg in enumerate(T.degrees) for b, _ in deg}
        if len(born) == len({b for b, _ in born}):
            continue
        fc = ph.fiber_complex(K, T)
        assert {c.stratum for c in fc.cells} == {strata[i] for i in rec.member_ids}
        checked += 1
    assert checked == 139


def test_fibers_sharing_move_tables_match_fresh_complexes_in_any_order():
    """The fiber walks on one complex share its move tables, so a walk reads
    children that walks of other types built. Every image type's fiber in
    both modes, over F2 and F3, built on one complex in image order, reversed
    and shuffled, has the document bytes and cellular boundary it has on a
    fresh complex of its own: the triangle, the filled triangle and the
    interval over their all-mode types, path4 over its interior ones."""
    rng = random.Random(0)
    built = 0
    for maximal, image_mode in [
        ([[0, 1], [1, 2], [0, 2]], "all"),
        ([[0, 1, 2]], "all"),
        ([[0, 1]], "all"),
        ([[0, 1], [1, 2], [2, 3]], "interior_only"),
    ]:
        for p in (2, 3):
            field = ph.FieldSpec(p)

            def fiber(K, T, mode):
                try:
                    fc = ph.fiber_complex(K, T, field, mode)
                except DomainError:  # an empty lower-star fiber
                    return None
                return ph.io.dumps(ph.io.fiber_doc(fc)), fc.boundary

            records = ph.image_records(ph.build_complex(maximal), image_mode, field)
            queries = [(r.barcode_type, mode) for r in records for mode in FIBER_MODES]
            fresh = {q: fiber(ph.build_complex(maximal), *q) for q in queries}
            shuffled = rng.sample(queries, len(queries))
            for order in (queries, queries[::-1], shuffled):
                K = ph.build_complex(maximal)
                assert {q: fiber(K, *q) for q in order} == fresh, (maximal, p)
            built += sum(v is not None for v in fresh.values())
    assert built == 2 * (142 + 206 + 14 + 170)


def test_move_tables_are_keyed_by_what_a_rank_reads():
    """K's move table has one dict of viable children per (rank, m,
    chi[rank] if rank <= m, chi[ONE], ONE optional, need[rank],
    need[rank + 1]). Two path4 interior types that agree on these at rank 3
    share its dict: the second walk there asks only for children the first
    built. A type that differs from them at rank 3 in need[4] alone gets a
    dict of its own."""

    def keys(T):
        chi = [0] * (T.one + 1)
        for q, deg in enumerate(T.degrees):
            for b, d in deg:
                chi[b] += (-1) ** q
                if d != T.inf:
                    chi[d] -= (-1) ** q
        optional = T.one not in {e for deg in T.degrees for bar in deg for e in bar}
        need = _supply_needs(T)
        return [
            (r, T.dim, chi[r] if r <= T.dim else None, chi[T.one], optional, need[r], need[r + 1])
            for r in range(T.one + 1)
        ]

    a, b, c = map(ph.parse_barcode_type, [
        "0:(1,inf),(2,4),(3,4),(4,5)",
        "0:(1,inf),(2,4),(3,5),(4,5)",
        "0:(1,inf),(2,3),(3,4),(3,5)",
    ])
    assert keys(a)[3] == keys(b)[3] and keys(a) != keys(b)
    assert keys(c)[3][:-1] == keys(a)[3][:-1] and keys(c)[3] != keys(a)[3]
    path4 = [[0, 1], [1, 2], [2, 3]]
    K = ph.build_complex(path4)
    tables = K.move_tables[False]
    ph.fiber_complex(K, a)
    shared = tables[keys(a)[3]]
    before = dict(shared)
    ph.fiber_complex(K, b)
    assert tables[keys(b)[3]] is shared and shared == before
    alone = ph.build_complex(path4)
    ph.fiber_complex(alone, b)
    asked = alone.move_tables[False][keys(b)[3]]
    assert asked and asked.keys() <= shared.keys()
    ph.fiber_complex(K, c)
    assert tables[keys(c)[3]] and tables[keys(c)[3]] is not tables[keys(a)[3]]
    assert set(tables) == set(keys(a) + keys(b) + keys(c))


def test_facets_are_the_codimension_one_coarsenings():
    """Each cell's facets, one per free block and one more per gap holding
    any, are exactly the cells of one dimension less in its closure."""
    K = ph.build_complex([[0, 1], [1, 2]])
    facets = 0
    for fc in fibers_over_types(K, "all", ("all",)):
        for high in fc.cells:
            found = [st for st, _ in _cell_facets(high)]
            assert len(set(found)) == len(found)
            assert len(found) == sum(k + 1 for k in high.gap_shape if k)
            assert set(found) == {
                low.stratum
                for low in fc.cells
                if low.dim == high.dim - 1 and stratum_closure_leq(low.stratum, high.stratum)
            }
            facets += len(found)
    assert facets == 212


def test_facet_pass_rejects_a_facet_of_the_wrong_dimension(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["mobius"]]
    edge = next(i for i, c in enumerate(fc.cells) if c.dim == 1)
    cells = list(fc.cells)
    # claim the edge is a 2-cell: its vertex facets are now two dimensions down
    cells[edge] = dataclasses.replace(cells[edge], gap_shape=(0, 2, 0))
    with pytest.raises(InvariantError, match=f"of cell {edge}: expected dimension 1"):
        _face_sets(fc.complex, cells, fc.cell_ids)


def test_dimension_checks_raise_invariant_errors(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["hexagon"]]
    edge = next(i for i, c in enumerate(fc.cells) if c.dim == 1)
    cells = list(fc.cells)
    cells[edge] = dataclasses.replace(cells[edge], gap_shape=(0, 4, 0))
    broken = dataclasses.replace(fc, cells=tuple(cells))
    with pytest.raises(InvariantError, match=f"cell {edge} .*bounded deficit"):
        fiber_dimension(broken)
    # each cell needs all sum(k + 1) of its facets: drop one of the edge's ends
    ids = dict(fc.cell_ids)
    del ids[fc.cells[fc.zero_faces_of(edge)[0]].stratum]
    with pytest.raises(InvariantError, match=rf"cell {edge} .*\(0, 1, 0\) has 1 fiber facets, expected 2"):
        _face_sets(fc.complex, list(fc.cells), ids)


def test_invariant_error_is_not_a_domain_error():
    assert issubclass(InvariantError, RuntimeError)
    assert not issubclass(InvariantError, DomainError)


def test_library_code_has_no_bare_assert():
    """Invariant checks must survive `python -O`, which strips asserts."""
    sources = sorted(Path(ph.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


def test_library_code_imports_only_the_standard_library():
    """phfiber has no runtime dependencies: every absolute import is stdlib."""
    package = Path(ph.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    allowed = set(sys.stdlib_module_names) | {"phfiber"}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (
                    f"{path.name} line {node.lineno} imports {name}"
                )
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)


def _cellular_cases():
    """Every fiber, in both fiber modes, over the image types of the hollow
    and filled triangle, path4, the interval and two intervals (the interior
    types are among them), and over the square's interior types, per field
    F2 and F3."""
    square = [[0, 1], [1, 2], [2, 3], [0, 3]]
    pool = [([[0, 1], [1, 2], [0, 2]], "all"), ([[0, 1, 2]], "all"),
            ([[0, 1], [1, 2], [2, 3]], "all"), ([[0, 1]], "all"),
            ([[0, 1], [2, 3]], "all"), (square, "interior_only")]
    for maximal, mode in pool:
        K = ph.build_complex(maximal)
        strata = ph.enumerate_filter_strata(K, mode)
        for p in (2, 3):
            field = ph.FieldSpec(p)
            for rec in ph.group_strata_by_barcode(K, strata, field):
                yield ph.fiber_complex(K, rec.barcode_type, field)
                try:
                    yield ph.fiber_complex(K, rec.barcode_type, field, "lower_star")
                except DomainError:
                    pass


def test_cellular_homology_graph_and_circuits_match_the_triangulation():
    """The cellular boundary squares to zero over the fiber's field, and the
    Betti numbers over that field, the DOT graph and the boundary circuits
    read off the cells equal those of the staircase triangulation. Over F2
    signs do not matter, so a wrong sign shows only in the F3 cases."""
    fibers, circuits = Counter(), 0
    for fc in _cellular_cases():
        p = fc.field.characteristic
        for j, column in enumerate(fc.boundary):
            twice = Counter()
            for i, s in column:
                for h, t in fc.boundary[i]:
                    twice[h] += s * t
            assert all(c % p == 0 for c in twice.values()), (fc.barcode_type, p, j)
        tf = StaircaseTriangulation(fc)
        assert ph.fiber_homology(fc, fc.field) == tf.betti(fc.field), fc.barcode_type
        edges = re.findall(r"n(\d+) -- n(\d+);", ph.emit_dot(fc))
        assert [(int(a), int(b)) for a, b in edges] == list(tf.edges())
        expected = tf.boundary_circuits()
        if expected is None:
            with pytest.raises(DomainError, match="pure 2-dimensional"):
                boundary_circuits(fc)
        else:
            assert boundary_circuits(fc) == expected
            circuits += 1
        fibers[fc.mode] += 1
    assert fibers == {"all": 3210, "lower_star": 74}
    assert circuits == 70
    assert ph.triangulate_fiber(fc) is fc
