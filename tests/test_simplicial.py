"""Simplices, complexes, facet ids, automorphisms."""

from pathlib import Path

import pytest

import phfiber as ph
from phfiber import DomainError
from phfiber.simplicial import is_automorphism

DEMO_COMPLEXES = sorted(
    (Path(__file__).resolve().parent.parent / "demos" / "complexes").glob("*.json")
)


def test_simplex_normalizes_vertex_order():
    s = ph.simplex([2, 0, 1])
    assert s.vertices == (0, 1, 2)
    assert s.dim == 2
    assert str(s) == "{0,1,2}"


def test_simplex_rejects_duplicates_and_empty():
    with pytest.raises(DomainError, match="duplicate"):
        ph.simplex([0, 1, 1])
    with pytest.raises(DomainError, match="empty"):
        ph.simplex([])
    with pytest.raises(DomainError, match="non-integer"):
        ph.simplex([0, True])


def test_facets_and_proper_faces():
    s = ph.simplex([0, 1, 2])
    assert set(s.facets()) == {ph.simplex(p) for p in ([1, 2], [0, 2], [0, 1])}
    assert len(s.proper_faces()) == 6
    assert ph.simplex([0]).facets() == ()


def test_build_complex_closes_under_faces():
    K = ph.build_complex([[0, 1, 2]])
    assert len(K) == 7
    assert ph.simplex([0, 2]) in K
    assert ph.simplex([3]) not in K
    dims = [s.dim for s in K.simplices]
    assert dims == sorted(dims)


def test_build_complex_rejects_empty_input():
    with pytest.raises(DomainError, match="empty complex"):
        ph.build_complex([])


def test_euler_characteristic():
    assert ph.build_complex([[0, 1], [1, 2], [0, 2]]).euler_characteristic() == 0
    assert ph.build_complex([[0, 1, 2]]).euler_characteristic() == 1
    assert ph.build_complex([[0, 1], [2, 3]]).euler_characteristic() == 2


@pytest.mark.parametrize("path", DEMO_COMPLEXES, ids=[p.stem for p in DEMO_COMPLEXES])
def test_euler_characteristic_is_read_off_the_odd_mask(path):
    K = ph.load_complex(str(path))
    assert K.odd_mask == sum(1 << i for i, s in enumerate(K.simplices) if s.dim % 2)
    full = (1 << len(K)) - 1
    chi = sum((-1) ** s.dim for s in K.simplices)
    assert K.euler_characteristic() == K.euler_count(full) == chi
    assert (full & ~K.odd_mask).bit_count() - K.odd_mask.bit_count() == chi


def test_facet_ids_follow_the_facet_order():
    K = ph.build_complex([[0, 1, 2, 3], [2, 4]])
    for s, ids in zip(K.simplices, K.facet_ids):
        assert ids == tuple(K.index[f] for f in s.facets())
        assert all(i < K.index[s] for i in ids)
        assert K.dims[K.index[s]] == s.dim
    assert K.facet_ids[K.index[ph.simplex([0])]] == ()


def test_boundary_of_boundary_vanishes():
    """Facet i of facet_ids carries the sign (-1) ** i, so d(d(s)) = 0."""
    K = ph.build_complex([[0, 1, 2, 3], [1, 2, 4]])
    for p in (2, 3, 5):
        for facets in K.facet_ids:
            dd: dict[int, int] = {}
            for i, f in enumerate(facets):
                for k, g in enumerate(K.facet_ids[f]):
                    dd[g] = (dd.get(g, 0) + (-1) ** (i + k)) % p
            assert not any(dd.values())


def test_field_spec_requires_prime():
    assert ph.FieldSpec(2).characteristic == 2
    ph.FieldSpec(13)
    for bad in (0, 1, 4, 9):
        with pytest.raises(DomainError, match="prime|characteristic"):
            ph.FieldSpec(bad)


def test_field_spec_rejects_huge_characteristics():
    """Characteristics from 2**31 up are rejected before trial division, which
    would run for minutes near 10**18 and cannot take a float square root
    past about 308 digits."""
    assert ph.FieldSpec(2 ** 31 - 1).characteristic == 2 ** 31 - 1
    for huge in (2 ** 31, 10 ** 18 + 9, 10 ** 400):
        with pytest.raises(DomainError, match="below 2"):
            ph.FieldSpec(huge)


def test_triangle_automorphisms(triangle):
    autos = ph.automorphisms(triangle)
    assert len(autos) == 6
    assert {tuple(sorted(a.items())) for a in autos} == {
        tuple(sorted({0: p[0], 1: p[1], 2: p[2]}.items()))
        for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    }


def test_two_intervals_automorphisms(two_intervals):
    assert len(ph.automorphisms(two_intervals)) == 8


def test_path_automorphisms():
    K = ph.build_complex([[0, 1], [1, 2]])
    autos = ph.automorphisms(K)
    assert len(autos) == 2
    assert {0: 2, 1: 1, 2: 0} in autos


def test_is_automorphism_rejects_non_symmetry():
    K = ph.build_complex([[0, 1], [1, 2]])
    assert not is_automorphism(K, {0: 1, 1: 0, 2: 2})
    assert is_automorphism(K, {0: 2, 1: 1, 2: 0})


def test_apply_permutation():
    s = ph.simplex([0, 2])
    assert ph.apply_permutation({0: 2, 1: 1, 2: 0}, s) == s
    assert ph.apply_permutation({0: 1, 1: 2, 2: 0}, s) == ph.simplex([0, 1])
