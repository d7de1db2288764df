"""Filter strata: enumeration, representatives, closure order, grouping."""

import itertools
import random
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import DomainError, io
from phfiber.fiber import _facet_strata
from phfiber.strata import (
    MODES,
    FilterStratum,
    _next_blocks,
    is_lower_star_stratum,
    serialize_stratum,
    stratum_levels,
)

from conftest import TRIANGLE_CODIM_COUNTS, block_masks, stratum_closure_leq


def count_monotone_surjections(K):
    """Brute-force oracle: monotone surjections onto {0..k-1} for all k."""
    n = len(K)
    face_pairs = [
        (K.index[f], i) for i, s in enumerate(K.simplices) for f in s.facets()
    ]
    total = 0
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            if set(assign) != set(range(k)):
                continue
            if all(assign[a] <= assign[b] for a, b in face_pairs):
                total += 1
    return total


@pytest.mark.parametrize(
    "maximal, count",
    [
        ([[0, 1]], 6),
        ([[0, 1], [1, 2], [0, 2]], 446),
        ([[0, 1], [2, 3]], 730),
        ([[0, 1, 2]], 892),
    ],
    ids=["interval", "triangle", "two_intervals", "filled_triangle"],
)
def test_interior_strata_count_matches_oracle(maximal, count):
    K = ph.build_complex(maximal)
    assert len(ph.enumerate_filter_strata(K, "interior_only")) == count
    assert count_monotone_surjections(K) == count


def test_interval_all_mode_adds_flag_combinations(interval):
    strata = ph.enumerate_filter_strata(interval, "all")
    # each partition admits 4 flag choices except the single block, which
    # cannot be pinned at both ends
    assert len(strata) == 4 * 6 - 1 == 23


def test_triangle_all_mode_count(triangle):
    assert len(ph.enumerate_filter_strata(triangle, "all")) == 4 * 446 - 1 == 1783


def test_injective_strata_are_linear_extensions(triangle):
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    injective = [st for st in strata if all(b.bit_count() == 1 for b in st.blocks)]
    face_pairs = [
        (f, s) for s in triangle.simplices for f in s.facets()
    ]
    extensions = [
        order
        for order in itertools.permutations(triangle.simplices)
        if all(order.index(a) < order.index(b) for a, b in face_pairs)
    ]
    assert len(injective) == len(extensions) == 48


def test_unknown_mode_rejected(triangle):
    with pytest.raises(DomainError, match="unknown stratum mode"):
        ph.enumerate_filter_strata(triangle, "everything")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "maximal",
    [[[0, 1]], [[0, 1], [1, 2], [0, 2]], [[0, 1], [2, 3]], [[0, 1, 2]]],
    ids=["interval", "triangle", "two_intervals", "filled_triangle"],
)
def test_strata_are_deterministically_ordered(maximal, mode):
    K = ph.build_complex(maximal)
    keys = [serialize_stratum(st, K) for st in ph.enumerate_filter_strata(K, mode)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["two_triangles", "path6", "rp2"])
def test_next_blocks_walk_is_in_text_order_past_id_ten(name, rp2):
    """With 11 or more simplices, ids of two digits sort as text ("10" before
    "2"); the depth-first walk over _next_blocks must still meet the
    partitions in strictly increasing serialize_stratum text. A full
    enumeration is out of reach (two triangles have 1,444,860 interior
    strata, path6 20,393,790), so the first 20,000 leaves are checked."""
    K = {
        "two_triangles": ph.build_complex([[0, 1, 2], [1, 2, 3]]),
        "path6": ph.build_complex([[i, i + 1] for i in range(5)]),
        "rp2": rp2,
    }[name]
    assert len(K) > 10
    full = (1 << len(K)) - 1
    memo: dict = {}

    def leaves(placed, blocks):
        if placed == full:
            yield FilterStratum(blocks)
            return
        for S, _ in _next_blocks(K, placed, memo):
            yield from leaves(placed | S, blocks + (S,))

    texts = [serialize_stratum(st, K) for st in itertools.islice(leaves(0, ()), 20000)]
    assert len(texts) == 20000
    assert all(a < b for a, b in zip(texts, texts[1:]))


def test_interior_dim_counts_blocks_minus_flags(interval):
    a, b, ab = interval.simplices
    st = FilterStratum(block_masks(interval, [a], [b, ab]), False, False)
    assert st.interior_dim == 2
    st0 = FilterStratum(block_masks(interval, [a], [b, ab]), True, False)
    assert st0.interior_dim == 1
    st01 = FilterStratum(block_masks(interval, [a], [b, ab]), True, True)
    assert st01.interior_dim == 0


def test_representative_filter_spacing(interval):
    a, b, ab = interval.simplices
    st = FilterStratum(block_masks(interval, [a], [b, ab]), False, False)
    f = ph.representative_filter(interval, st)
    assert (f[a], f[b], f[ab]) == (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
    st0 = FilterStratum(block_masks(interval, [a], [b, ab]), True, False)
    f0 = ph.representative_filter(interval, st0)
    assert (f0[a], f0[b], f0[ab]) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


def test_representative_filter_requires_full_support(triangle, interval):
    a, b, ab = interval.simplices
    st = FilterStratum(block_masks(interval, [a, b, ab]), False, False)
    with pytest.raises(DomainError, match="partition"):
        ph.representative_filter(triangle, st)


@pytest.mark.parametrize(
    "maximal, mode",
    [
        ([[0, 1]], "all"),
        ([[0, 1], [1, 2], [0, 2]], "all"),
        ([[0, 1, 2]], "interior_only"),
        ([[0, 1], [1, 2], [2, 3]], "interior_only"),
    ],
    ids=["interval", "triangle", "filled_triangle", "path4"],
)
def test_level_barcode_matches_the_representative_filter(maximal, mode):
    """Oracle for the integer-level path: the levels are the representative
    filter's values times m + 1, and the stratum's type is the canonical type
    of that Fraction filter's barcode."""
    K = ph.build_complex(maximal)
    for st in ph.enumerate_filter_strata(K, mode):
        m = st.interior_dim
        rep = ph.representative_filter(K, st)
        assert rep.values == tuple(Fraction(v, m + 1) for v in stratum_levels(K, st))
        for p in (2, 3):
            field = ph.FieldSpec(p)
            expected = ph.canonicalize_barcode(ph.barcode_of_filter(rep, field))
            assert ph.barcode_of_stratum(K, st, field) == expected


def test_barcode_of_stratum_rejects_bad_strata(triangle, interval):
    a, b, ab = interval.simplices
    backwards = FilterStratum(block_masks(interval, [ab], [a, b]))
    with pytest.raises(DomainError) as err:
        ph.barcode_of_stratum(interval, backwards)
    assert str(err.value) == "not a filter: face {1} has larger value than {0,1}"
    not_a_partition = [
        (triangle, FilterStratum(block_masks(interval, [a, b, ab]))),  # missing ids
        (interval, FilterStratum(block_masks(interval, [a, b], [b, ab]))),  # overlap
        (interval, FilterStratum(block_masks(interval, [a, b, ab]) + (1 << 3,))),
    ]
    for K, st in not_a_partition:
        with pytest.raises(DomainError) as err:
            ph.barcode_of_stratum(K, st)
        assert str(err.value) == "stratum does not partition the simplices of this complex"
    # blocks are positive int masks; anything else fails at construction
    for bad in (frozenset({a}), 0, -1, True):
        with pytest.raises(DomainError, match="bitmasks over canonical simplex ids"):
            FilterStratum((bad,) + block_masks(interval, [b, ab]))


def test_barcode_of_stratum(interval):
    a, b, ab = interval.simplices
    st = FilterStratum(block_masks(interval, [a], [b], [ab]), False, False)
    T = ph.barcode_of_stratum(interval, st)
    assert ph.format_barcode_type(T) == "0:(1,inf),(2,3)"


def test_lower_star_predicate(interval):
    a, b, ab = interval.simplices
    ties = FilterStratum(block_masks(interval, [a], [b, ab]), False, False)
    assert is_lower_star_stratum(interval, ties)
    apart = FilterStratum(block_masks(interval, [a], [b], [ab]), False, False)
    assert not is_lower_star_stratum(interval, apart)
    # a vertex placed after its coface is not a lower-star ordering either
    late_vertex = FilterStratum(block_masks(interval, [a, ab], [b]), False, False)
    assert not is_lower_star_stratum(interval, late_vertex)
    # the predicate looks at blocks only; flagged strata are excluded by the
    # enumeration mode, not by the predicate
    pinned = FilterStratum(block_masks(interval, [a], [b, ab]), True, False)
    assert is_lower_star_stratum(interval, pinned)
    assert pinned not in ph.enumerate_filter_strata(interval, "lower_star")


def test_lower_star_mode_counts(triangle, interval):
    assert len(ph.enumerate_filter_strata(triangle, "lower_star")) == 13
    assert len(ph.enumerate_filter_strata(interval, "lower_star")) == 3


@pytest.mark.parametrize(
    "maximal",
    [
        [[0, 1], [1, 2], [2, 3], [0, 3]],
        [[0, 1, 2]],
        [[0, 1], [1, 2], [2, 3]],
        [[0, 1], [1, 2], [2, 3], [3, 4]],
    ],
    ids=["square", "filled_triangle", "path4", "path5"],
)
def test_lower_star_walk_equals_filtering_every_stratum(maximal):
    """The lower-star walk cuts each branch at its first failing block; it
    must keep exactly the flagless strata that pass is_lower_star_stratum
    after a full walk, in the same order."""
    K = ph.build_complex(maximal)
    every = ph.enumerate_filter_strata(K, "interior_only")
    filtered = [st for st in every if is_lower_star_stratum(K, st)]
    assert len(every) > len(filtered) > 1
    assert list(ph.enumerate_filter_strata(K, "lower_star")) == filtered


def _walk_built_strata():
    """Every stratum the walks build without FilterStratum's checks, per case."""
    square = [[0, 1], [1, 2], [2, 3], [0, 3]]
    path4 = [[0, 1], [1, 2], [2, 3]]
    for name, maximal in (("square", square), ("path4", path4), ("filled_triangle", [[0, 1, 2]])):
        K = ph.build_complex(maximal)
        for mode in MODES:
            yield f"{name}/{mode}", list(ph.enumerate_filter_strata(K, mode))
    path5 = ph.build_complex(path4 + [[3, 4]])
    yield "path5/lower_star", list(ph.enumerate_filter_strata(path5, "lower_star"))
    K = ph.build_complex(path4)
    cells, facets = [], []
    for rec in ph.group_strata_by_barcode(K, ph.enumerate_filter_strata(K, "interior_only")):
        for cell in ph.fiber_complex(K, rec.barcode_type).cells:
            cells.append(cell.stratum)
            facets += _facet_strata(cell.stratum)
    yield "path4/fiber_cells", cells
    yield "path4/fiber_facets", facets


def test_walk_built_strata_equal_checked_ones():
    """The walks build their strata with strata._trusted_stratum, which skips
    FilterStratum's checks. Each must be the record the checked constructor
    gives: equal, with the same hash, and slotted (no __dict__). A lone block
    pinned at both ends would make the checked constructor raise."""
    counts = {}
    for case, strata in _walk_built_strata():
        for st in strata:
            checked = FilterStratum(st.blocks, st.at_zero, st.at_one)
            assert st == checked and hash(st) == hash(checked), case
            assert not hasattr(st, "__dict__"), case
        counts[case] = len(strata)
    assert counts["square/interior_only"] == 20978
    assert counts["path4/all"] == 14471
    assert counts["path5/lower_star"] == 541
    assert counts["path4/fiber_facets"] > counts["path4/fiber_cells"] == 3844
    with pytest.raises(DomainError, match="cannot be pinned at both 0 and 1"):
        FilterStratum((1,), True, True)
    with pytest.raises(DomainError, match="bitmasks over canonical simplex ids"):
        FilterStratum(())


def test_closure_order_is_reflexive_and_antisymmetric(interval):
    strata = ph.enumerate_filter_strata(interval, "all")
    for st in strata:
        assert stratum_closure_leq(st, st)
    for lo, hi in itertools.permutations(strata, 2):
        if stratum_closure_leq(lo, hi) and stratum_closure_leq(hi, lo):
            assert lo == hi


def test_closure_order_examples(interval):
    a, b, ab = interval.simplices
    fine = FilterStratum(block_masks(interval, [a], [b], [ab]), False, False)
    coarse = FilterStratum(block_masks(interval, [a], [b, ab]), False, False)
    point = FilterStratum(block_masks(interval, [a, b, ab]), False, False)
    assert stratum_closure_leq(coarse, fine)
    assert stratum_closure_leq(point, fine)
    assert not stratum_closure_leq(fine, coarse)
    # pinning an end moves into the closure, never out of it
    pinned = FilterStratum(block_masks(interval, [a], [b, ab]), True, False)
    assert stratum_closure_leq(pinned, coarse)
    assert not stratum_closure_leq(coarse, pinned)
    # merging away from the pinned end is blocked
    merged_off_zero = FilterStratum(block_masks(interval, [a, b, ab]), False, False)
    assert not stratum_closure_leq(merged_off_zero, pinned)


def test_closure_requires_same_support(interval, triangle):
    st_i = ph.enumerate_filter_strata(interval, "interior_only")[0]
    st_t = ph.enumerate_filter_strata(triangle, "interior_only")[0]
    with pytest.raises(DomainError, match="different complexes"):
        stratum_closure_leq(st_i, st_t)


def test_closure_respects_dimension(interval):
    strata = ph.enumerate_filter_strata(interval, "all")
    for lo, hi in itertools.permutations(strata, 2):
        if stratum_closure_leq(lo, hi):
            assert lo.interior_dim <= hi.interior_dim


def test_group_strata_by_barcode(triangle, triangle_records):
    assert len(triangle_records) == 34
    counts = {}
    for rec in triangle_records:
        counts[rec.codim] = counts.get(rec.codim, 0) + 1
    assert counts == TRIANGLE_CODIM_COUNTS
    assert sum(len(r.member_ids) for r in triangle_records) == 446
    for rec in triangle_records:
        assert rec.codim == 6 - rec.barcode_type.dim
        deficit = Fraction(6 - rec.barcode_type.finite_endpoint_count(), 2)
        assert rec.bounded_deficit == deficit
    keys = [
        (r.codim, ph.format_barcode_type(r.barcode_type)) for r in triangle_records
    ]
    assert keys == sorted(keys)


def test_grouping_follows_input_order_and_rejects_bad_strata(triangle, triangle_records):
    """Shuffled strata, which share few block prefixes with the stratum before
    them, get the same types; member ids stay input positions, and every
    stratum is checked as barcode_of_stratum checks it."""
    strata = list(ph.enumerate_filter_strata(triangle, "interior_only"))
    shuffled = strata[:]
    random.Random(0).shuffle(shuffled)
    records = ph.group_strata_by_barcode(triangle, shuffled)
    assert [r.barcode_type for r in records] == [r.barcode_type for r in triangle_records]
    for rec, ref in zip(records, triangle_records):
        assert list(rec.member_ids) == sorted(rec.member_ids)
        assert {shuffled[i] for i in rec.member_ids} == {strata[i] for i in ref.member_ids}
    a, b, c, ab, ac, bc = triangle.simplices
    bad = [
        FilterStratum(block_masks(triangle, [a, b, c], [a, ab, ac, bc])),  # overlap
        FilterStratum(block_masks(triangle, [a, b, c], [ab, ac])),  # missing id
        FilterStratum(block_masks(triangle, [a, b, c], [ab, ac, bc]) + (1 << 6,)),
        FilterStratum(block_masks(triangle, [a, ab], [b, c, ac, bc])),  # ab before b
    ]
    for st in bad:
        with pytest.raises(DomainError) as expected:
            ph.barcode_of_stratum(triangle, st)
        mixed = shuffled[:200] + [st] + shuffled[200:]
        with pytest.raises(DomainError) as err:
            ph.group_strata_by_barcode(triangle, mixed)
        assert str(err.value) == str(expected.value)
    assert str(expected.value) == "not a filter: face {1} has larger value than {0,1}"


@pytest.mark.parametrize(
    "maximal, mode, p",
    [
        ([[0, 1], [1, 2], [2, 3], [0, 3]], "interior_only", 2),
        ([[0, 1], [1, 2], [2, 3]], "all", 3),
    ],
    ids=["square_interior_F2", "path4_all_F3"],
)
def test_grouping_does_not_depend_on_shared_block_tuples(maximal, mode, p):
    """The walk gives a stratum's flag variants one blocks tuple, and grouping
    skips its prefix scan when a stratum's blocks are the previous stratum's
    object. The same strata rebuilt with fresh tuples must print the same
    image document."""
    K = ph.build_complex(maximal)
    field = ph.FieldSpec(p)
    walked = ph.enumerate_filter_strata(K, mode)
    fresh = [FilterStratum(tuple([*st.blocks]), st.at_zero, st.at_one) for st in walked]
    assert fresh == list(walked)
    shared = sum(a.blocks is b.blocks for a, b in zip(walked, walked[1:]))
    assert shared == (len(walked) - len({st.blocks for st in walked}))
    assert not any(a.blocks is b.blocks for a, b in zip(fresh, fresh[1:]))
    image = io.dumps(io.image_doc(ph.group_strata_by_barcode(K, walked, field)))
    assert io.dumps(io.image_doc(ph.group_strata_by_barcode(K, fresh, field))) == image


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "maximal, mode",
    [
        ([[0, 1], [1, 2], [2, 3]], "all"),
        ([[0, 1], [1, 2], [2, 3], [0, 3]], "interior_only"),
        ([[0, 1, 2]], "all"),
        ([[0, 1], [2, 3]], "all"),
    ],
    ids=["path4_all", "square_interior", "filled_triangle_all", "two_intervals_all"],
)
def test_grouping_matches_barcode_of_stratum_on_every_stratum(maximal, mode, p):
    """Oracle for the rank-table typing of group_strata_by_barcode: each
    stratum's type is barcode_of_stratum's, which reduces all of K at once.
    The filled triangle has degree-1 classes killed by a 2-simplex, and the
    two intervals an H0 of rank 2."""
    K = ph.build_complex(maximal)
    field = ph.FieldSpec(p)
    strata = ph.enumerate_filter_strata(K, mode)
    records = ph.group_strata_by_barcode(K, strata, field)
    assigned = {i: rec.barcode_type for rec in records for i in rec.member_ids}
    assert sum(len(rec.member_ids) for rec in records) == len(assigned) == len(strata)
    for i, st in enumerate(strata):
        assert assigned[i] == ph.barcode_of_stratum(K, st, field), serialize_stratum(st, K)


@pytest.mark.parametrize(
    "maximal, mode, p, types, reductions",
    [
        ([[0, 1], [1, 2], [2, 3], [0, 3]], "interior_only", 2, 334, 603),
        ([[0, 1], [1, 2], [2, 3]], "all", 3, 667, 319),
    ],
    ids=["square_interior", "path4_all"],
)
def test_grouping_reduces_only_for_its_rank_table(
    monkeypatch, maximal, mode, p, types, reductions
):
    """Grouping types every stratum off its table of inclusion ranks: it never
    calls barcode_of_stratum, and it runs the column reduction once per row
    of block unions holding a nested pair that its strata had not met."""

    def refuse(*args, **kwargs):
        raise AssertionError("grouping called barcode_of_stratum")

    calls = []
    reduce = ph.persistence._reduce

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(ph.strata, "barcode_of_stratum", refuse)
    monkeypatch.setattr(ph.persistence, "_reduce", counted)
    K = ph.build_complex(maximal)
    records = ph.group_strata_by_barcode(K, ph.enumerate_filter_strata(K, mode), ph.FieldSpec(p))
    assert len(records) == types
    assert len(calls) == reductions


def test_grouping_members_have_the_grouped_barcode(triangle, triangle_records):
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    rec = triangle_records[0]
    for i in rec.member_ids[:5]:
        assert ph.barcode_of_stratum(triangle, strata[i]) == rec.barcode_type


def test_serialize_stratum_shows_blocks_and_flags(interval):
    a, b, ab = interval.simplices
    st = FilterStratum(block_masks(interval, [a], [b, ab]), True, False)
    text = serialize_stratum(st, interval)
    flipped = serialize_stratum(
        FilterStratum(block_masks(interval, [a], [b, ab]), False, True), interval
    )
    assert text != flipped
