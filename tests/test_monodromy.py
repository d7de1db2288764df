"""Monodromy: the action of morphism classes on fibers."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import INF, DomainError, InvariantError
from phfiber.category import MorphismClass, identity_class, morphism_class_between
from phfiber.barcodes import EndpointMap
from phfiber.monodromy import compose_monodromies, monodromy_map

from conftest import TYPE_STRINGS, block_masks


def get_fiber(triangle_fibers, name):
    return triangle_fibers[TYPE_STRINGS[name]]


def named_monodromy(triangle, triangle_fibers, types, src, tgt):
    cls = morphism_class_between(types[src], types[tgt])
    return monodromy_map(
        triangle, get_fiber(triangle_fibers, src), get_fiber(triangle_fibers, tgt), cls
    )


def edges_of(fc):
    return [i for i, c in enumerate(fc.cells) if c.dim == 1]


def test_circle_to_mobius_collapses_twelve_edges(triangle, triangle_fibers, types):
    mm = named_monodromy(triangle, triangle_fibers, types, "circle_shared_death", "mobius")
    assert len(edges_of(mm.source)) == 18
    assert len(mm.collapsed_cells) == 12
    assert all(mm.source.cells[i].dim == 1 for i in mm.collapsed_cells)


def test_circle_to_hexagon_collapses_six_edges(triangle, triangle_fibers, types):
    mm = named_monodromy(triangle, triangle_fibers, types, "circle_shared_death", "hexagon")
    assert len(mm.collapsed_cells) == 6
    surviving_edges = [i for i in mm.surviving_cells if mm.source.cells[i].dim == 1]
    assert len(surviving_edges) == 12
    # the twelve surviving edges wrap twice around the six target edges
    images = [mm.cell_map[i] for i in surviving_edges]
    counts = {j: images.count(j) for j in set(images)}
    assert counts == {j: 2 for j in edges_of(mm.target)}


# Filter-only oracle for the shared-death circle: endpoints pinned at
# v1 < v2 < v3 and one grid value inside each of the four gaps they cut.
ORACLE_PINS = (Fraction(2, 10), Fraction(5, 10), Fraction(8, 10))
ORACLE_GRID = tuple(Fraction(k, 10) for k in (1, 2, 3, 5, 6, 8, 9))


def _filter_type(filt):
    """Type string and sorted finite endpoint values of a filter's barcode."""
    bc = ph.barcode_of_filter(filt)
    ends = tuple(sorted({e for deg in bc for bar in deg for e in bar if e != INF}))
    return ph.format_barcode_type(ph.canonicalize_barcode(bc)), ends


def _free_values(filt, ends):
    return sorted(set(filt.values) - set(ends))


def _blocks(filt):
    """The ordered partition of the simplices by filter value."""
    by_value = {}
    for s, v in zip(filt.complex.simplices, filt.values):
        by_value.setdefault(v, []).append(s)
    return block_masks(filt.complex, *(by_value[v] for v in sorted(by_value)))


def _collapse_gap(filt, lo, hi):
    """Postcompose with the piecewise-linear map that squashes [lo, hi] to lo."""

    def r(x):
        if x <= lo:
            return x
        if x <= hi:
            return lo
        return lo + (x - hi) * (1 - lo) / (1 - hi)

    K = filt.complex
    return ph.make_filter(K, dict(zip(K.simplices, map(r, filt.values))))


def _grid_filters(K, type_string):
    """Every monotone grid filter over the type with endpoints ORACLE_PINS."""
    verts = [s for s in K.simplices if s.dim == 0]
    edges = [s for s in K.simplices if s.dim == 1]
    out = []
    for vv in itertools.product(ORACLE_GRID, repeat=len(verts)):
        values = dict(zip(verts, vv))
        choices = [
            [g for g in ORACLE_GRID if g >= max(values[f] for f in e.facets())]
            for e in edges
        ]
        for ev in itertools.product(*choices):
            values.update(zip(edges, ev))
            filt = ph.make_filter(K, values)
            if _filter_type(filt) == (type_string, ORACLE_PINS):
                out.append(filt)
    return out


def test_circle_collapse_counts_agree_with_a_filter_oracle(
    triangle_fibers, types
):
    K = ph.build_complex([[0, 1], [1, 2], [0, 2]])
    found = _grid_filters(K, TYPE_STRINGS["circle_shared_death"])
    vertices = [f for f in found if not _free_values(f, ORACLE_PINS)]
    edges = [f for f in found if len(_free_values(f, ORACLE_PINS)) == 1]
    assert (len(vertices), len(edges), len(found)) == (18, 18, 36)
    edge_gap = [
        sum(_free_values(f, ORACLE_PINS)[0] > p for p in ORACLE_PINS) for f in edges
    ]
    assert [edge_gap.count(g) for g in range(4)] == [0, 6, 12, 0]

    v1, v2, v3 = ORACLE_PINS
    src = get_fiber(triangle_fibers, "circle_shared_death")
    for name, (lo, hi), gap, count in (
        ("hexagon", (v1, v2), 1, 6),
        ("mobius", (v2, v3), 2, 12),
    ):
        collapsed = []
        for f in edges:
            image = _collapse_gap(f, lo, hi)
            image_type, image_ends = _filter_type(image)
            assert image_type == TYPE_STRINGS[name]
            if not _free_values(image, image_ends):
                collapsed.append(_blocks(f))
        assert len(collapsed) == count

        cls = morphism_class_between(types["circle_shared_death"], types[name])
        mm = monodromy_map(K, src, get_fiber(triangle_fibers, name), cls)
        assert len(mm.collapsed_cells) == len(collapsed)
        cells = [src.cells[i] for i in mm.collapsed_cells]
        assert all(c.gap_shape[gap] == 1 and c.dim == 1 for c in cells)
        assert {c.stratum.blocks for c in cells} == set(collapsed)


def test_shared_birth_circle_mirrors_the_collapse_counts(
    triangle, triangle_fibers, types
):
    to_mobius = named_monodromy(
        triangle, triangle_fibers, types, "circle_shared_birth", "mobius"
    )
    assert len(to_mobius.collapsed_cells) == 12
    to_hexagon = named_monodromy(
        triangle, triangle_fibers, types, "circle_shared_birth", "hexagon"
    )
    assert len(to_hexagon.collapsed_cells) == 6


def test_vertices_never_collapse(triangle, triangle_fibers, types):
    mm = named_monodromy(triangle, triangle_fibers, types, "two_circles", "mobius")
    for i, j in mm.vertex_map:
        assert mm.source.cells[i].dim == 0
        assert mm.target.cells[j].dim == 0
        assert mm.cell_map[i] == j
    assert len(mm.vertex_map) == 48


def test_vertex_images_follow_the_endpoint_map(triangle, triangle_fibers, types):
    mm = named_monodromy(triangle, triangle_fibers, types, "circle_shared_death", "mobius")
    for i, j in mm.vertex_map:
        vec = mm.source.cells[i].rank_vector
        phi = mm.morphism.representative
        assert mm.target.cells[j].rank_vector == tuple(phi(s) for s in vec)


def test_identity_monodromy_is_the_identity_permutation(
    triangle, triangle_fibers, types
):
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    mm = monodromy_map(triangle, fc, fc, identity_class(types["circle_shared_death"]))
    assert mm.cell_map == tuple(range(len(fc.cells)))
    assert mm.collapsed_cells == ()


def test_composition_with_identity(triangle, triangle_fibers, types):
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    ident = monodromy_map(
        triangle, fc, fc, identity_class(types["circle_shared_death"])
    )
    mm = named_monodromy(triangle, triangle_fibers, types, "circle_shared_death", "mobius")
    assert compose_monodromies(ident, mm).cell_map == mm.cell_map
    fc_t = get_fiber(triangle_fibers, "mobius")
    ident_t = monodromy_map(triangle, fc_t, fc_t, identity_class(types["mobius"]))
    assert compose_monodromies(mm, ident_t).cell_map == mm.cell_map


def test_two_step_composition_equals_direct(triangle, triangle_fibers, types):
    first = named_monodromy(
        triangle, triangle_fibers, types, "two_circles", "circle_shared_death"
    )
    second = named_monodromy(
        triangle, triangle_fibers, types, "circle_shared_death", "mobius"
    )
    direct = named_monodromy(triangle, triangle_fibers, types, "two_circles", "mobius")
    composed = compose_monodromies(first, second)
    assert composed.cell_map == direct.cell_map
    assert composed.vertex_map == direct.vertex_map


def test_full_decompose_recompose_sweep(triangle, triangle_records, triangle_fibers):
    total_classes = 0
    for src, tgt in itertools.permutations(triangle_records, 2):
        classes = ph.enumerate_morphism_classes(src.barcode_type, tgt.barcode_type)
        total_classes += len(classes)
        fc_src = triangle_fibers[ph.format_barcode_type(src.barcode_type)]
        fc_tgt = triangle_fibers[ph.format_barcode_type(tgt.barcode_type)]
        for cls in classes:
            direct = monodromy_map(triangle, fc_src, fc_tgt, cls)
            steps = ph.decompose_codim1(cls)
            fibers = [fc_src]
            for step in steps:
                fibers.append(
                    triangle_fibers[ph.format_barcode_type(step.target)]
                )
            mm = monodromy_map(triangle, fibers[0], fibers[1], steps[0])
            for step, fa, fb in zip(steps[1:], fibers[1:], fibers[2:]):
                mm = compose_monodromies(mm, monodromy_map(triangle, fa, fb, step))
            assert mm.cell_map == direct.cell_map
    assert total_classes == 309 - 34


def test_monodromy_rejects_wrong_complex(interval, triangle, triangle_fibers, types):
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    fc_t = get_fiber(triangle_fibers, "mobius")
    cls = morphism_class_between(types["circle_shared_death"], types["mobius"])
    with pytest.raises(DomainError, match="do not belong"):
        monodromy_map(interval, fc, fc_t, cls)


def test_monodromy_rejects_mismatched_class(triangle, triangle_fibers, types):
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    fc_t = get_fiber(triangle_fibers, "mobius")
    cls = morphism_class_between(types["circle_shared_birth"], types["mobius"])
    with pytest.raises(DomainError, match="does not connect"):
        monodromy_map(triangle, fc, fc_t, cls)


def test_monodromy_rejects_mismatched_modes(triangle, triangle_fibers, types):
    fc = get_fiber(triangle_fibers, "mobius")
    fc_ls = ph.fiber_complex(triangle, types["point"], mode="lower_star")
    cls = morphism_class_between(types["mobius"], types["point"])
    with pytest.raises(DomainError, match="mismatched fibers"):
        monodromy_map(triangle, fc, fc_ls, cls)


def test_monodromy_rejects_non_simplicial_representative(
    triangle, triangle_fibers, types
):
    # every enumerated class carries a simplicial representative, so the
    # guard is reachable only through a hand-assembled class
    real = morphism_class_between(types["circle_shared_death"], types["hexagon"])
    phi = EndpointMap(3, 2, (2, 2, 2))
    assert not phi.is_simplicial
    fake = MorphismClass(real.source, real.target, real.bar_matching, phi)
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    fc_t = get_fiber(triangle_fibers, "hexagon")
    with pytest.raises(DomainError, match="not simplicial"):
        monodromy_map(triangle, fc, fc_t, fake)


def test_compose_rejects_mismatched_middle(triangle, triangle_fibers, types):
    first = named_monodromy(
        triangle, triangle_fibers, types, "two_circles", "circle_shared_death"
    )
    second = named_monodromy(
        triangle, triangle_fibers, types, "circle_shared_birth", "mobius"
    )
    with pytest.raises(DomainError, match="mismatched fibers"):
        compose_monodromies(first, second)


def _with_cell(fc, i, **changes):
    cells = list(fc.cells)
    cells[i] = dataclasses.replace(cells[i], **changes)
    return dataclasses.replace(fc, cells=tuple(cells))


def test_monodromy_checks_raise_invariant_errors(triangle, triangle_fibers, types):
    cls = morphism_class_between(types["circle_shared_death"], types["hexagon"])
    fc = get_fiber(triangle_fibers, "circle_shared_death")
    fc_t = get_fiber(triangle_fibers, "hexagon")
    # a 0-cell whose rank vector is the constant filter at 0 leaves the fiber
    z = fc.zero_cells()[0]
    zeros = (0,) * len(triangle)
    with pytest.raises(InvariantError, match=f"0-cell {z} .*target type"):
        monodromy_map(triangle, _with_cell(fc, z, rank_vector=zeros), fc_t, cls)
    # a target edge with the wrong gap shape
    edge = next(i for i, c in enumerate(fc_t.cells) if c.dim == 1)
    bad_t = _with_cell(fc_t, edge, gap_shape=(1, 0, 1))
    with pytest.raises(InvariantError, match=f"target cell {edge} of gap shape"):
        monodromy_map(triangle, fc, bad_t, cls)


def test_compose_checks_the_composed_tables(triangle, triangle_fibers, types):
    first = named_monodromy(
        triangle, triangle_fibers, types, "two_circles", "circle_shared_death"
    )
    second = named_monodromy(
        triangle, triangle_fibers, types, "circle_shared_death", "mobius"
    )
    shifted = second.cell_map[1:] + second.cell_map[:1]
    bad = dataclasses.replace(second, cell_map=shifted)
    with pytest.raises(InvariantError, match="composed representative maps it"):
        compose_monodromies(first, bad)
