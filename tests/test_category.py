"""Homotopy classes of barcode morphisms and their factorizations."""

import itertools

import pytest

import phfiber as ph
from phfiber import DomainError
from phfiber.barcodes import all_endpoint_maps, map_bars_raw
from phfiber.category import (
    decompose_codim1,
    enumerate_morphism_classes,
    identity_class,
    morphism_class_between,
)


GOLDEN_CLASSES = {
    # (source, target) -> representative rank images of the unique class
    ("two_circles", "circle_shared_death"): (1, 2, 3, 3),
    ("two_circles", "hexagon"): (1, 1, 2, 2),
    ("two_circles", "mobius"): (1, 2, 2, 2),
    ("circle_shared_death", "mobius"): (1, 2, 2),
    ("circle_shared_death", "hexagon"): (1, 1, 2),
    ("circle_shared_birth", "mobius"): (1, 1, 2),
    ("circle_shared_birth", "hexagon"): (1, 2, 2),
    ("hexagon", "point"): (1, 1),
    ("mobius", "point"): (1, 1),
    ("bars_crossing", "point"): (1, 1, 1, 1, 1, 1),
}


def test_unique_classes_between_named_types(types):
    for (src, tgt), rep in GOLDEN_CLASSES.items():
        classes = enumerate_morphism_classes(types[src], types[tgt])
        assert len(classes) == 1, (src, tgt)
        assert classes[0].representative.rank_images == rep


def test_no_classes_between_types_of_equal_codim(types):
    assert enumerate_morphism_classes(types["hexagon"], types["mobius"]) == ()
    assert enumerate_morphism_classes(types["mobius"], types["hexagon"]) == ()


def test_no_classes_upward(types):
    assert enumerate_morphism_classes(types["point"], types["mobius"]) == ()


def test_identity_class_per_type(triangle_records):
    for rec in triangle_records:
        T = rec.barcode_type
        classes = enumerate_morphism_classes(T, T)
        assert len(classes) == 1
        assert classes[0].is_identity
        assert classes[0] == identity_class(T)
        assert not decompose_codim1(classes[0])


def test_brute_force_class_count_to_the_most_degenerate_type(types):
    # oracle: monotone maps from the six ranks of the crossing type onto
    # symbols {zero, 1, one}, keeping both infinite-bar births at rank 1,
    # grouped by the induced bar matching
    src = types["bars_crossing"]
    tgt = types["point"]
    matchings = set()
    for phi in all_endpoint_maps(src.dim, tgt.dim):
        degrees, matching = map_bars_raw(phi, src)
        if degrees != tgt.degrees:
            continue
        matchings.add(matching)
    assert len(matchings) == 1
    assert len(enumerate_morphism_classes(src, tgt)) == 1


def test_representative_induces_the_recorded_matching(types):
    for src, tgt in itertools.permutations(types.values(), 2):
        largest = {}
        for phi in all_endpoint_maps(src.dim, tgt.dim):
            degrees, matching = map_bars_raw(phi, src)
            if degrees == tgt.degrees:
                largest[matching] = max(
                    largest.get(matching, phi), phi, key=lambda p: p.rank_images
                )
        for cls in enumerate_morphism_classes(src, tgt):
            _, matching = map_bars_raw(cls.representative, src)
            assert matching == cls.bar_matching
            assert cls.representative.is_simplicial
            assert cls.representative == largest[matching]


def test_classes_have_distinct_matchings(types):
    for src, tgt in itertools.permutations(types.values(), 2):
        classes = enumerate_morphism_classes(src, tgt)
        assert len({c.bar_matching for c in classes}) == len(classes)


def test_index_is_complete_in_codimension_one(types):
    # for a one-dimension drop, two morphisms are homotopic exactly when
    # they induce the same index
    for src, tgt in itertools.permutations(types.values(), 2):
        if src.dim - tgt.dim != 1:
            continue
        by_matching = {}
        for phi in all_endpoint_maps(src.dim, tgt.dim):
            degrees, matching = map_bars_raw(phi, src)
            if degrees != tgt.degrees:
                continue
            index = tuple(
                tuple(i for i in range(1, src.dim + 1) if phi(i) == t)
                for t in range(0, tgt.dim + 2)
            )
            by_matching.setdefault(matching, set()).add(index)
        for indices in by_matching.values():
            assert len(indices) == 1
        assert len({next(iter(v)) for v in by_matching.values()}) == len(by_matching)


def test_index_of_named_classes(types):
    c = morphism_class_between(types["circle_shared_death"], types["mobius"])
    assert c.index == ((), (1,), (2, 3), ())
    c2 = morphism_class_between(types["circle_shared_death"], types["hexagon"])
    assert c2.index == ((), (1, 2), (3,), ())


def test_decompose_steps_drop_dimension_by_one(types):
    c = morphism_class_between(types["two_circles"], types["mobius"])
    steps = decompose_codim1(c)
    assert len(steps) == 2
    assert [s.representative.rank_images for s in steps] == [
        (1, 2, 3, 3),
        (1, 2, 2),
    ]
    dims = [c.source.dim] + [s.target.dim for s in steps]
    assert dims == [4, 3, 2]
    assert steps[-1].target == types["mobius"]


def test_decompose_two_disjoint_pair_collapses(types):
    src = ph.parse_barcode_type("0:(1,2),(1,inf),(3,4),(3,inf)")
    tgt = ph.parse_barcode_type("0:(1,inf),(2,inf)")
    classes = enumerate_morphism_classes(src, tgt)
    assert len(classes) == 1
    assert classes[0].representative.rank_images == (1, 1, 2, 2)
    steps = decompose_codim1(classes[0])
    assert len(steps) == 2
    assert [s.representative.rank_images for s in steps] == [
        (1, 1, 2, 3),
        (1, 2, 2),
    ]


def test_decompose_recomposes_to_the_direct_matching(types):
    for src, tgt in itertools.permutations(types.values(), 2):
        for cls in enumerate_morphism_classes(src, tgt):
            steps = decompose_codim1(cls)
            assert len(steps) == src.dim - tgt.dim
            phi = ph.identity_endpoint_map(src)
            for step in steps:
                phi = ph.compose_endpoint_maps(step.representative, phi)
            _, matching = map_bars_raw(phi, src)
            assert matching == cls.bar_matching
            assert phi.rank_images == cls.representative.rank_images


def test_morphism_class_between_errors(types):
    with pytest.raises(DomainError, match="no morphism"):
        morphism_class_between(types["hexagon"], types["mobius"])
    with pytest.raises(DomainError, match="out of range, 1 classes exist"):
        morphism_class_between(types["hexagon"], types["point"], 1)
