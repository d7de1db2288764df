"""Filter strata: enumeration, representatives, closure order, grouping."""

import itertools
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import DomainError
from phfiber.strata import (
    FilterStratum,
    is_lower_star_stratum,
    serialize_stratum,
    stratum_closure_leq,
    stratum_levels,
)

from conftest import TRIANGLE_CODIM_COUNTS


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
    injective = [st for st in strata if all(len(b) == 1 for b in st.blocks)]
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


def test_strata_are_deterministically_ordered(triangle):
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    keys = [serialize_stratum(st, triangle) for st in strata]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_interior_dim_counts_blocks_minus_flags(interval):
    a, b, ab = interval.simplices
    st = FilterStratum((frozenset({a}), frozenset({b, ab})), False, False)
    assert st.interior_dim == 2
    st0 = FilterStratum((frozenset({a}), frozenset({b, ab})), True, False)
    assert st0.interior_dim == 1
    st01 = FilterStratum((frozenset({a}), frozenset({b, ab})), True, True)
    assert st01.interior_dim == 0


def test_representative_filter_spacing(interval):
    a, b, ab = interval.simplices
    st = FilterStratum((frozenset({a}), frozenset({b, ab})), False, False)
    f = ph.representative_filter(interval, st)
    assert (f[a], f[b], f[ab]) == (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
    st0 = FilterStratum((frozenset({a}), frozenset({b, ab})), True, False)
    f0 = ph.representative_filter(interval, st0)
    assert (f0[a], f0[b], f0[ab]) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


def test_representative_filter_requires_full_support(triangle, interval):
    a, b, ab = interval.simplices
    st = FilterStratum((frozenset({a, b, ab}),), False, False)
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
    backwards = FilterStratum((frozenset({ab}), frozenset({a, b})))
    with pytest.raises(DomainError) as err:
        ph.barcode_of_stratum(interval, backwards)
    assert str(err.value) == "not a filter: face {1} has larger value than {0,1}"
    foreign = FilterStratum((frozenset({a, b, ab}),))
    with pytest.raises(DomainError) as err:
        ph.barcode_of_stratum(triangle, foreign)
    assert str(err.value) == "stratum does not partition the simplices of this complex"


def test_barcode_of_stratum(interval):
    a, b, ab = interval.simplices
    st = FilterStratum((frozenset({a}), frozenset({b}), frozenset({ab})), False, False)
    T = ph.barcode_of_stratum(interval, st)
    assert ph.format_barcode_type(T) == "0:(1,inf),(2,3)"


def test_lower_star_predicate(interval):
    a, b, ab = interval.simplices
    ties = FilterStratum((frozenset({a}), frozenset({b, ab})), False, False)
    assert is_lower_star_stratum(ties)
    apart = FilterStratum(
        (frozenset({a}), frozenset({b}), frozenset({ab})), False, False
    )
    assert not is_lower_star_stratum(apart)
    # the predicate looks at blocks only; flagged strata are excluded by the
    # enumeration mode, not by the predicate
    pinned = FilterStratum((frozenset({a}), frozenset({b, ab})), True, False)
    assert is_lower_star_stratum(pinned)
    assert pinned not in ph.enumerate_filter_strata(interval, "lower_star")


def test_lower_star_mode_counts(triangle, interval):
    assert len(ph.enumerate_filter_strata(triangle, "lower_star")) == 13
    assert len(ph.enumerate_filter_strata(interval, "lower_star")) == 3


def test_closure_order_is_reflexive_and_antisymmetric(interval):
    strata = ph.enumerate_filter_strata(interval, "all")
    for st in strata:
        assert stratum_closure_leq(st, st)
    for lo, hi in itertools.permutations(strata, 2):
        if stratum_closure_leq(lo, hi) and stratum_closure_leq(hi, lo):
            assert lo == hi


def test_closure_order_examples(interval):
    a, b, ab = interval.simplices
    fine = FilterStratum(
        (frozenset({a}), frozenset({b}), frozenset({ab})), False, False
    )
    coarse = FilterStratum((frozenset({a}), frozenset({b, ab})), False, False)
    point = FilterStratum((frozenset({a, b, ab}),), False, False)
    assert stratum_closure_leq(coarse, fine)
    assert stratum_closure_leq(point, fine)
    assert not stratum_closure_leq(fine, coarse)
    # pinning an end moves into the closure, never out of it
    pinned = FilterStratum((frozenset({a}), frozenset({b, ab})), True, False)
    assert stratum_closure_leq(pinned, coarse)
    assert not stratum_closure_leq(coarse, pinned)
    # merging away from the pinned end is blocked
    merged_off_zero = FilterStratum((frozenset({a, b, ab}),), False, False)
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


def test_grouping_members_have_the_grouped_barcode(triangle, triangle_records):
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    rec = triangle_records[0]
    for i in rec.member_ids[:5]:
        assert ph.barcode_of_stratum(triangle, strata[i]) == rec.barcode_type


def test_serialize_stratum_shows_blocks_and_flags(interval):
    a, b, ab = interval.simplices
    st = FilterStratum((frozenset({a}), frozenset({b, ab})), True, False)
    text = serialize_stratum(st, interval)
    flipped = serialize_stratum(
        FilterStratum((frozenset({a}), frozenset({b, ab})), False, True), interval
    )
    assert text != flipped
