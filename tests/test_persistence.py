"""Filters and sublevel persistence barcodes."""

from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import INF, DomainError


def F(n, d=1):
    return Fraction(n, d)


def test_make_filter_requires_every_simplex(interval):
    a, b, ab = interval.simplices
    with pytest.raises(DomainError, match="no value for simplex"):
        ph.make_filter(interval, {a: F(0), b: F(0)})


def test_make_filter_rejects_floats_and_out_of_range(interval):
    a, b, ab = interval.simplices
    base = {a: F(0), b: F(0), ab: F(1)}
    with pytest.raises(DomainError, match="float"):
        ph.make_filter(interval, {**base, ab: 0.5})
    with pytest.raises(DomainError, match="outside"):
        ph.make_filter(interval, {**base, ab: F(3, 2)})
    with pytest.raises(DomainError, match="not rational"):
        ph.make_filter(interval, {**base, ab: "x"})


def test_filter_must_be_monotone(interval):
    a, b, ab = interval.simplices
    with pytest.raises(DomainError, match="larger value"):
        ph.make_filter(interval, {a: F(1), b: F(0), ab: F(1, 2)})


def test_filter_lookup_and_value_set(interval):
    a, b, ab = interval.simplices
    f = ph.make_filter(interval, {a: F(0), b: F(1, 2), ab: F(1, 2)})
    assert f[a] == 0
    assert f[ab] == F(1, 2)
    assert f.value_set() == (F(0), F(1, 2))


def test_interval_barcode_suppresses_zero_length_bars(interval):
    a, b, ab = interval.simplices
    f = ph.make_filter(interval, {a: F(0), b: F(1, 2), ab: F(1, 2)})
    assert ph.barcode_of_filter(f) == (((F(0), INF),), ())


def test_interval_barcode_with_bounded_bar(interval):
    a, b, ab = interval.simplices
    f = ph.make_filter(interval, {a: F(0), b: F(1, 4), ab: F(3, 4)})
    assert ph.barcode_of_filter(f) == (((F(0), INF), (F(1, 4), F(3, 4))), ())


def test_constant_filter_barcode_matches_betti(triangle):
    f = ph.constant_filter(triangle, F(0))
    bc = ph.barcode_of_filter(f)
    assert bc == (((F(0), INF),), ((F(0), INF),))
    assert ph.infinite_bar_counts(bc) == ph.betti_numbers(triangle) == (1, 1)


def test_bars_sorted_within_degree():
    K = ph.build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    f = ph.filter_from_values(
        K, [F(0), F(1, 8), F(2, 8), F(3, 8), F(4, 8), F(5, 8), F(6, 8), F(1)]
    )
    for bars in ph.barcode_of_filter(f):
        assert list(bars) == sorted(bars, key=lambda b: (b[0], b[1]))


def test_bounded_and_infinite_bar_counts(triangle):
    f = ph.filter_from_values(
        triangle, [F(0), F(1, 6), F(2, 6), F(3, 6), F(4, 6), F(1)]
    )
    bc = ph.barcode_of_filter(f)
    assert ph.infinite_bar_counts(bc) == (1, 1)
    assert ph.bounded_bar_counts(bc) == (2, 0)


def test_barcode_agrees_across_fields(triangle):
    f = ph.filter_from_values(
        triangle, [F(0), F(1, 6), F(2, 6), F(3, 6), F(4, 6), F(1)]
    )
    b2 = ph.barcode_of_filter(f, ph.FieldSpec(2))
    assert b2 == ph.barcode_of_filter(f, ph.FieldSpec(3))
    assert b2 == ph.barcode_of_filter(f, ph.FieldSpec(5))


def test_betti_numbers_of_standard_complexes(rp2):
    assert ph.betti_numbers(ph.build_complex([[0, 1, 2]])) == (1, 0, 0)
    assert ph.betti_numbers(ph.build_complex([[0, 1], [2, 3]])) == (2, 0)
    sphere = ph.build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert ph.betti_numbers(sphere) == (1, 0, 1)
    # Only correct boundary signs make F3 differ from F2 on RP^2.
    assert ph.betti_numbers(rp2) == (1, 1, 1)
    assert ph.betti_numbers(rp2, ph.FieldSpec(3)) == (1, 0, 0)


def test_filter_from_values_checks_length(interval):
    with pytest.raises(DomainError, match="value count"):
        ph.filter_from_values(interval, [F(0), F(1)])
