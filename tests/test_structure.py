"""Removable subsets, essential complexes, lower-star filters, symmetries."""

import itertools
import random
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import DomainError
from phfiber.io import load_complex
from phfiber.structure import (
    DEFAULT_BUDGET,
    _inclusion_is_iso,
    _removable_masks,
    find_removable_subset,
    is_removable,
)

from conftest import (
    TYPE_STRINGS,
    block_masks,
    block_simplices,
    rank_mod_p,
    upward_closed_masks,
)
from test_cli_golden import ROOT

# Maximal simplices of the complexes the essentiality tests walk whole.
COMPLEXES = {
    "interval": [[0, 1]],
    "triangle": [[0, 1], [1, 2], [0, 2]],
    "filled_triangle": [[0, 1, 2]],
    "two_triangles": [[0, 1, 2], [1, 2, 3]],
    "hollow_tetrahedron": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    "hexagon": [[i, (i + 1) % 6] for i in range(6)],
    "wedge": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]],
    # K6 minus a perfect matching
    "octahedron_1_skeleton": [
        [a, b] for a in range(6) for b in range(a + 1, 6)
        if (a, b) not in ((0, 1), (2, 3), (4, 5))
    ],
    # the hollow tetrahedron with an edge hanging off vertex 3
    "whisker_tetrahedron": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [3, 4]],
}


def test_interval_top_pair_is_removable(interval):
    a, b, ab = interval.simplices
    report = is_removable(interval, [b, ab])
    assert report.is_subcomplex_complement
    assert report.homology_preserved
    assert report.removable


def test_vertex_alone_is_not_a_valid_removal(interval):
    a, b, ab = interval.simplices
    report = is_removable(interval, [b])
    assert not report.is_subcomplex_complement
    assert not report.removable


def test_homology_changing_removal_is_rejected(triangle):
    edges = [s for s in triangle.simplices if s.dim == 1]
    report = is_removable(triangle, edges[:1])
    assert report.is_subcomplex_complement
    assert not report.homology_preserved


def test_empty_subset_is_trivially_removable(interval):
    report = is_removable(interval, [])
    assert report.removable


def test_removing_everything_is_not_allowed(interval):
    report = is_removable(interval, list(interval.simplices))
    assert report.is_subcomplex_complement
    assert not report.homology_preserved


def test_is_removable_rejects_foreign_simplices(interval):
    with pytest.raises(DomainError, match="not in the complex"):
        is_removable(interval, [ph.simplex([7])])


def test_interval_is_not_essential(interval):
    a, b, ab = interval.simplices
    witness = find_removable_subset(interval)
    assert witness == (a, ab)
    assert not ph.is_essential(interval)
    assert is_removable(interval, witness).removable


def test_triangle_is_essential(triangle):
    assert ph.is_essential(triangle)
    assert find_removable_subset(triangle) is None


def test_wedge_is_essential(wedge):
    assert ph.is_essential(wedge)


def test_essentiality_budget_guard(triangle):
    with pytest.raises(DomainError, match="too large"):
        ph.is_essential(triangle, budget=3)
    assert DEFAULT_BUDGET >= 1 << 20


def test_essentiality_budget_boundary():
    """The hexagon is essential, and its walk keeps 32 of its 321
    coface-closed subsets, the last of them the 11 simplices but vertex 0
    (all 12 have defect 2, the sum of the hexagon's Betti numbers): a budget
    of 32 finishes the walk, one less stops at its last kept set and names
    the budget, what it counts and the size."""
    K = ph.build_complex(COMPLEXES["hexagon"])
    assert find_removable_subset(K, budget=32) is None
    with pytest.raises(
        DomainError,
        match=r"^too large for exhaustive essentiality: more than 31 "
        r"coface-closed subsets kept by size 11; raise --budget$",
    ):
        find_removable_subset(K, budget=31)


def test_essentiality_stops_at_the_first_witness():
    """The whisker's vertex and edge are the sixth of 478 coface-closed
    subsets and the sixth set the walk keeps, so a budget of 10 reaches
    them."""
    K = ph.build_complex(COMPLEXES["whisker_tetrahedron"])
    witness = find_removable_subset(K, budget=10)
    assert [s.vertices for s in witness] == [(4,), (3, 4)]
    assert sum(1 for _ in upward_closed_masks(K, DEFAULT_BUDGET)) == 478


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("p", [2, 3])
def test_complete_graph_1_skeleta_are_essential_within_the_default_budget(n, p):
    """The 1-skeleta of K7 and K8 (28 and 36 simplices) have no coface-closed
    subset with Euler count 0: a set holding k vertices holds their edges,
    at least k(n - 1) - k(k - 1)/2 of them. The Euler bound alone drops all
    but 139 and 413 sets, and the defect bound drops none of those, so the
    walk keeps 139 and 413 sets over either field; the full walk passes
    more than DEFAULT_BUDGET on both."""
    K = ph.build_complex([[a, b] for a in range(n) for b in range(a + 1, n)])
    assert find_removable_subset(K, ph.FieldSpec(p)) is None


def test_removability_agrees_across_fields(interval):
    a, b, ab = interval.simplices
    for p in (2, 3, 5):
        assert is_removable(interval, [b, ab], ph.FieldSpec(p)).removable


def _relative_betti(K, removed, p):
    """Betti numbers of H(K, K minus removed) from the relative chain complex.

    Relative q-chains have the removed q-simplices as a basis, and the
    relative boundary drops every facet that is not removed.
    """
    by_dim = [[j for j in sorted(removed) if K.simplices[j].dim == q]
              for q in range(K.dim + 2)]
    ranks = [0]  # the boundary out of degree 0 is zero
    for q in range(1, K.dim + 2):
        row_of = {j: r for r, j in enumerate(by_dim[q - 1])}
        matrix = [[0] * len(by_dim[q]) for _ in by_dim[q - 1]]
        for c, j in enumerate(by_dim[q]):
            for i, f in enumerate(K.facet_ids[j]):
                if f in row_of:
                    matrix[row_of[f]][c] = (-1) ** i
        ranks.append(rank_mod_p(matrix, p))
    return [len(by_dim[q]) - ranks[q] - ranks[q + 1] for q in range(K.dim + 1)]


def _check_against_relative_homology(K, masks):
    for p in (2, 3):
        for mask in masks:
            removed = {j for j in range(len(K)) if mask >> j & 1}
            subset = [K.simplices[j] for j in removed]
            report = is_removable(K, subset, ph.FieldSpec(p))
            assert report.is_subcomplex_complement
            expected = not any(_relative_betti(K, removed, p))
            assert report.removable == expected, (p, [str(s) for s in subset])


@pytest.mark.parametrize(
    "maximal", list(COMPLEXES.values()), ids=list(COMPLEXES)
)
def test_removability_matches_relative_homology(maximal):
    """By the long exact sequence of (K, sub), sub -> K is a homology
    isomorphism exactly when H(K, sub) vanishes.

    On the hexagon, the wedge and the octahedron 1-skeleton (K6 minus a
    perfect matching; 6,208 subsets) no coface-closed subset but the whole
    complex has Euler count 0, so the Euler count alone decides every one."""
    K = ph.build_complex(maximal)
    _check_against_relative_homology(K, upward_closed_masks(K, DEFAULT_BUDGET))
    # the search returns the first walked subset that is_removable accepts
    for p in (2, 3):
        field = ph.FieldSpec(p)
        subsets = (
            tuple(block_simplices(K, mask))
            for mask in upward_closed_masks(K, DEFAULT_BUDGET)
        )
        first = next((s for s in subsets if is_removable(K, s, field).removable), None)
        assert find_removable_subset(K, field) == first


def _brute_force_coface_closed(K):
    """Every nonempty mask holding each coface of its members, found by
    trying all 2^n masks, with cofaces read off the vertex sets."""
    n = len(K)
    vertex_sets = [set(s.vertices) for s in K.simplices]
    cofaces = [
        [j for j in range(n) if vertex_sets[i] < vertex_sets[j]] for i in range(n)
    ]
    closed = [
        mask for mask in range(1, 1 << n)
        if all(
            mask >> j & 1
            for i in range(n) if mask >> i & 1
            for j in cofaces[i]
        )
    ]
    return sorted(closed, key=lambda mask: (bin(mask).count("1"), mask))


@pytest.mark.parametrize(
    "maximal", list(COMPLEXES.values()), ids=list(COMPLEXES)
)
def test_upward_closed_masks_match_brute_force(maximal):
    """The walk yields exactly the nonempty coface-closed subsets, each
    once, in (size, mask) order; checked against all 2^n masks (n <= 18)."""
    K = ph.build_complex(maximal)
    assert list(upward_closed_masks(K, DEFAULT_BUDGET)) == _brute_force_coface_closed(K)


def _acyclic_masks(K, masks, p):
    """The masks whose relative Betti numbers all vanish over F_p, in order:
    the removable ones, read off the relative chain complex and not the
    package's column reduction. Only count-0 masks are tested, since the
    relative Betti numbers sum with alternating signs to the Euler count."""
    return [
        m for m in masks
        if K.euler_count(m) == 0
        and not any(_relative_betti(K, {j for j in range(len(K)) if m >> j & 1}, p))
    ]


@pytest.mark.parametrize(
    "maximal", list(COMPLEXES.values()), ids=list(COMPLEXES)
)
def test_zero_count_walk_keeps_the_full_walks_count_0_sets(maximal):
    """Branch and bound on the Euler count and the defect drops no removable
    set: over F2 and F3, the walk yields exactly those count-0 sets of the
    full walk whose relative homology vanishes, in the same order."""
    K = ph.build_complex(maximal)
    masks = list(upward_closed_masks(K, DEFAULT_BUDGET))
    for p in (2, 3):
        want = _acyclic_masks(K, masks, p)
        assert list(_removable_masks(K, ph.FieldSpec(p), DEFAULT_BUDGET)) == want


def test_walk_yields_the_acyclic_sets_of_random_2_complexes():
    """The same oracle on 60 seeded random complexes of dimension at most 2
    on at most 5 vertices, over F2 and F3."""
    rng = random.Random(20261020)
    for _ in range(60):
        n = rng.randint(2, 5)
        faces = [
            list(s)
            for k in (2, 3)
            for s in itertools.combinations(range(n), k)
            if rng.random() < 0.4
        ]
        K = ph.build_complex(faces + [[v] for v in range(n)])
        masks = list(upward_closed_masks(K, DEFAULT_BUDGET))
        for p in (2, 3):
            want = _acyclic_masks(K, masks, p)
            got = list(_removable_masks(K, ph.FieldSpec(p), DEFAULT_BUDGET))
            assert got == want, (faces, p)


def test_zero_count_walk_keeps_rp2s_count_0_sets(rp2):
    """9,126 of rp2's 147,244 coface-closed subsets have Euler count 0. Of
    those, the walk yields exactly the ones _inclusion_is_iso accepts, in
    order: none over F2, where rp2 is essential, and 4,928 over F3, where
    it has the homology of a point. Over F2 the walk keeps 14,208 sets, the
    Euler bound alone 27,035: the budget counts kept sets."""
    zero = [m for m in upward_closed_masks(rp2, DEFAULT_BUDGET) if rp2.euler_count(m) == 0]
    assert len(zero) == 9_126
    for p, count in ((2, 0), (3, 4_928)):
        field = ph.FieldSpec(p)
        want = [m for m in zero if _inclusion_is_iso(rp2, m, field)]
        assert len(want) == count
        assert list(_removable_masks(rp2, field, DEFAULT_BUDGET)) == want
    assert list(_removable_masks(rp2, ph.F2, 14_208)) == []
    with pytest.raises(DomainError, match="more than 14207 "):
        list(_removable_masks(rp2, ph.F2, 14_207))


def test_torus_is_essential_within_the_default_budget():
    """The 7-vertex torus (42 simplices) is essential over F2. The Euler
    bound alone kept more than DEFAULT_BUDGET sets; the defect bound keeps
    660,708."""
    torus = load_complex(str(ROOT / "demos" / "complexes" / "torus.json"))
    assert find_removable_subset(torus, ph.F2) is None


def test_rp2_removability_matches_relative_homology(rp2):
    masks = list(upward_closed_masks(rp2, DEFAULT_BUDGET))
    assert len(masks) == 147_244
    _check_against_relative_homology(rp2, masks[:500])


def test_lower_star_extension_takes_vertex_maxima(triangle):
    f = ph.lower_star_extension(
        triangle, {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1, 2)}
    )
    sx = {s.vertices: s for s in triangle.simplices}
    assert f[sx[(0, 1)]] == Fraction(1, 2)
    assert f[sx[(1, 2)]] == Fraction(1, 2)
    assert f[sx[(0,)]] == Fraction(0)


def test_lower_star_extension_validates_vertices(triangle):
    with pytest.raises(DomainError, match="unknown vertex"):
        ph.lower_star_extension(triangle, {0: Fraction(0), 1: Fraction(0), 2: Fraction(0), 9: Fraction(0)})
    with pytest.raises(DomainError, match="no value for vertex"):
        ph.lower_star_extension(triangle, {0: Fraction(0), 1: Fraction(0)})


def test_lower_star_extension_on_random_paths():
    rng = random.Random(20260814)
    K = ph.build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])
    for _ in range(100):
        values = {v: Fraction(rng.randrange(65), 64) for v in range(5)}
        f = ph.lower_star_extension(K, values)
        for s in K.simplices:
            assert f[s] == max(values[v] for v in s.vertices)


def test_symmetry_action_permutes_cells(triangle, triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["two_circles"]]
    for perm in ph.automorphisms(triangle):
        action = ph.symmetry_action_on_fiber(fc, perm)
        assert sorted(action) == list(range(len(fc.cells)))
        for i, j in enumerate(action):
            assert fc.cells[i].dim == fc.cells[j].dim


def test_identity_action_is_trivial(triangle, triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["mobius"]]
    action = ph.symmetry_action_on_fiber(fc, {0: 0, 1: 1, 2: 2})
    assert action == tuple(range(len(fc.cells)))


def test_action_rejects_non_automorphism(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["mobius"]]
    with pytest.raises(DomainError, match="not an automorphism"):
        ph.symmetry_action_on_fiber(fc, {0: 0, 1: 1, 2: 9})


def test_two_circles_components_swap_under_odd_permutations(
    triangle, triangle_fibers
):
    fc = triangle_fibers[TYPE_STRINGS["two_circles"]]
    # the fiber has two connected components; find them from the face pairs
    parent = list(range(len(fc.cells)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in fc.face_relation:
        parent[find(i)] = find(j)
    components = {find(i) for i in range(len(fc.cells))}
    assert len(components) == 2

    def parity(perm):
        seen, swaps = set(), 0
        for v in perm:
            if v in seen:
                continue
            cycle, w = 0, v
            while w not in seen:
                seen.add(w)
                w = perm[w]
                cycle += 1
            swaps += cycle - 1
        return swaps % 2

    for perm in ph.automorphisms(triangle):
        action = ph.symmetry_action_on_fiber(fc, perm)
        preserves = all(find(action[i]) == find(i) for i in range(len(fc.cells)))
        assert preserves == (parity(perm) == 0)


def test_two_circles_orbits(triangle_fibers):
    fc = triangle_fibers[TYPE_STRINGS["two_circles"]]
    orbits = ph.fiber_symmetry_orbits(fc)
    assert len(orbits) == 16
    assert all(len(o) == 6 for o in orbits)
    assert sorted(i for o in orbits for i in o) == list(range(96))


def test_stratum_barcode_is_symmetry_invariant(triangle):
    rng = random.Random(987)
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    sample = rng.sample(list(strata), 100)
    for st in sample:
        T = ph.barcode_of_stratum(triangle, st)
        for perm in ph.automorphisms(triangle):
            blocks = block_masks(
                triangle,
                *(
                    [ph.apply_permutation(perm, s) for s in block_simplices(triangle, b)]
                    for b in st.blocks
                ),
            )
            moved = type(st)(blocks, st.at_zero, st.at_one)
            assert ph.barcode_of_stratum(triangle, moved) == T
