"""Filters and sublevel persistence barcodes."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import INF, DomainError
from phfiber.barcodes import canonicalize_barcode
from phfiber.persistence import (
    _inclusion_ranks,
    _RankTable,
    _rank_barcode,
    _rank_table,
    level_barcode,
)
from phfiber.strata import _closed_subsets, _shifted_types, mask_ids, stratum_levels

from conftest import COMPLEX_POOL, rank_mod_p


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


def test_make_filter_rejects_foreign_simplices_and_bools(interval):
    a, b, ab = interval.simplices
    base = {a: F(0), b: F(0), ab: F(1)}
    with pytest.raises(DomainError, match=r"simplex \{7\} not in K"):
        ph.make_filter(interval, {**base, ph.simplex([7]): F(1, 2)})
    with pytest.raises(DomainError, match="bool"):
        ph.make_filter(interval, {**base, ab: True})
    with pytest.raises(DomainError, match="bool"):
        ph.filter_from_values(interval, [F(0), False, F(1)])


def test_filter_lookup_outside_the_complex(interval):
    f = ph.constant_filter(interval, F(0))
    with pytest.raises(DomainError, match="not in the filter's complex"):
        f[ph.simplex([0, 2])]


def test_filter_must_be_monotone(interval):
    a, b, ab = interval.simplices
    with pytest.raises(DomainError, match="larger value"):
        ph.make_filter(interval, {a: F(1), b: F(0), ab: F(1, 2)})


def test_filter_lookup_and_value_set(interval):
    a, b, ab = interval.simplices
    f = ph.make_filter(interval, {a: F(0), b: F(1, 2), ab: F(1, 2)})
    assert f[a] == 0
    assert f[ab] == F(1, 2)
    assert sorted(set(f.values)) == [F(0), F(1, 2)]


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
    assert tuple(sum(1 for _, d in deg if d != INF) for deg in bc) == (2, 0)


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


def _boundary_rank(K, cols, rows, p):
    """Rank over F_p of the boundary of the simplices cols, on the rows given."""
    row_of = {r: k for k, r in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for c, j in enumerate(cols):
        for i, f in enumerate(K.facet_ids[j]):
            if f in row_of:
                matrix[row_of[f]][c] = (-1) ** i
    return rank_mod_p(matrix, p)


def _rank_oracle_barcode(K, levels, p):
    """The barcode of the sublevel filtration of levels, from persistent Betti
    numbers (Edelsbrunner and Harer, Computational Topology, VII), with no
    column reduction.

    With K_i the simplices at the i-th smallest level or below, the rank of
    H_q(K_i) -> H_q(K_j) is
        (n_q(i) - rk d_q|K_i) - (rk d_{q+1}|K_j - rk P_i d_{q+1}|K_j),
    where P_i keeps the rows of the q-simplices outside K_i: cycles of K_i
    minus those that bound in K_j. The bar [v_i, v_j) then has multiplicity
    b(i, j-1) - b(i, j) - b(i-1, j-1) + b(i-1, j), with b = 0 at i = 0 and
    at j = m + 1, the infinite death.
    """
    values = sorted(set(levels))
    m = len(values)
    sub = [[s for s in range(len(K)) if levels[s] <= v] for v in values]
    memo = {}

    def of_dim(ids, q):
        return [s for s in ids if K.simplices[s].dim == q]

    def beta(q, i, j):
        if i == 0 or j > m:
            return 0
        if (q, i, j) not in memo:
            Ki, Kj = sub[i - 1], sub[j - 1]
            chains = of_dim(Ki, q)
            cycles = len(chains) - _boundary_rank(K, chains, of_dim(Ki, q - 1), p)
            up, rows = of_dim(Kj, q + 1), of_dim(Kj, q)
            outside = [s for s in rows if levels[s] > values[i - 1]]
            bounding = (_boundary_rank(K, up, rows, p)
                        - _boundary_rank(K, up, outside, p))
            memo[q, i, j] = cycles - bounding
        return memo[q, i, j]

    barcode = []
    for q in range(K.dim + 1):
        bars = []
        for i in range(1, m + 1):
            for j in range(i + 1, m + 2):
                mult = (beta(q, i, j - 1) - beta(q, i, j)
                        - beta(q, i - 1, j - 1) + beta(q, i - 1, j))
                assert mult >= 0, (levels, q, i, j)
                bars += [(values[i - 1], values[j - 1] if j <= m else INF)] * mult
        barcode.append(tuple(sorted(bars)))
    return tuple(barcode)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "maximal", [[[0, 1, 2]], [[0, 1], [1, 2], [2, 3], [0, 3]]], ids=["filled_triangle", "square"]
)
def test_inclusion_rank_matches_boundary_ranks(maximal, p):
    """Each entry of image grouping's rank table, for every nested pair A
    within B of subcomplexes (the empty one too): the rank of H_q(A) -> H_q(B)
    is the q-cycles of A minus those that bound in B, from boundary ranks."""
    K = ph.build_complex(maximal)
    subcomplexes = [0] + _closed_subsets(K, (1 << len(K)) - 1, 0)

    def of_dim(mask, q):
        return [s for s in mask_ids(mask) if K.dims[s] == q]

    pairs = 0
    for B in subcomplexes:
        for A in subcomplexes:
            if A & ~B:
                continue
            expected = []
            for q in range(K.dim + 1):
                chains = of_dim(A, q)
                cycles = len(chains) - _boundary_rank(K, chains, of_dim(A, q - 1), p)
                up, rows = of_dim(B, q + 1), of_dim(B, q)
                outside = [s for s in rows if not A >> s & 1]
                bounding = _boundary_rank(K, up, rows, p) - _boundary_rank(K, up, outside, p)
                expected.append(cycles - bounding)
            ranks = _inclusion_ranks(K, (A, B), ph.FieldSpec(p))
            assert ranks[0] == tuple(expected), (A, B)
            pairs += 1
    assert pairs > len(subcomplexes) * 2


def _random_levels(K, rng, top=5):
    """Random monotone integer levels: raw levels pushed up to the max over faces."""
    levels = []
    for facets in K.facet_ids:  # faces come before their cofaces
        levels.append(max([rng.randrange(top + 1)] + [levels[f] for f in facets]))
    return levels


def test_level_barcode_matches_the_rank_oracle(triangle, rp2):
    """The column reduction against persistent Betti numbers from boundary
    ranks, on every all-mode triangle stratum and on random level vectors of
    RP^2 and the square, whose F3 barcodes need the right boundary signs."""
    square = ph.build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    cases = [
        (triangle, stratum_levels(triangle, st))
        for st in ph.enumerate_filter_strata(triangle, "all")
    ]
    rng = random.Random(0)
    cases += [(K, _random_levels(K, rng)) for K in (rp2, square) for _ in range(40)]
    for K, levels in cases:
        for p in (2, 3):
            expected = _rank_oracle_barcode(K, levels, p)
            assert level_barcode(K, levels, ph.FieldSpec(p)) == expected, (levels, p)


def test_rank_table_is_kept_per_field(rp2):
    """K's shared rank table is keyed by field, under (_RankTable.fill, p)
    in K.tables: RP^2 has Betti numbers (1, 1, 1) over F2 and (1, 0, 0) over
    F3, so the entry for the pair (K, K), which is H(K) itself, must follow
    the field whichever field asks first. Each complex object keeps its own
    tables."""
    F3 = ph.FieldSpec(3)
    for fields in ((ph.F2, F3), (F3, ph.F2)):
        K = ph.build_complex([s.vertices for s in rp2.simplices if s.dim == 2])
        full = (1 << len(K)) - 1
        for field in fields:
            table = _rank_table(K, field)
            assert _rank_table(K, field) is table
            (r,) = table.fill(K, field, [full])
            assert table.into[full][full] == r
            assert table.vectors[r] == ph.betti_numbers(K, field), field
        assert set(K.tables) == {(_RankTable.fill, 2), (_RankTable.fill, 3)}
    assert ph.betti_numbers(rp2, ph.F2) == (1, 1, 1)
    assert ph.betti_numbers(rp2, F3) == (1, 0, 0)


def test_rank_table_leaves_its_complex_to_reference_counting():
    """The table lives on K and holds no reference back to it, so a complex
    and its ranks are freed with its last reference, without the cycle
    collector. (The strata come from a twin complex: the recursive walk of
    the enumeration keeps its own complex until the collector runs.)"""
    strata = ph.enumerate_filter_strata(ph.build_complex([[0, 1, 2]]), "all")
    gc.disable()
    try:
        K = ph.build_complex([[0, 1, 2]])
        ph.group_strata_by_barcode(K, strata)
        assert K.tables[_RankTable.fill, 2].into
        ref = weakref.ref(K)
        del K
        assert ref() is None
    finally:
        gc.enable()


def test_rank_rows_rebuild_the_barcode_and_the_stratum_type(rp2):
    """Image grouping's typing against level_barcode on random block
    filtrations P_1 < ... < P_k = K: _rank_barcode reads the bars in block
    indices off the rows of inclusion ranks rank(P_i, P_j), and with each
    pair of end flags _shifted_types gives the type of the shifted levels,
    canonicalize_barcode's. RP^2 has a degree-2 bar over F2 but not over F3."""
    rng = random.Random(2)
    complexes = [ph.build_complex(maximal) for maximal in COMPLEX_POOL] + [rp2]
    cases = [(K, _random_levels(K, rng)) for K in complexes for _ in range(8)]
    flags = [(False, False), (False, True), (True, False), (True, True)]
    counts = Counter()
    for K, levels in cases:
        values = sorted(set(levels))
        k = len(values)
        block = [values.index(v) + 1 for v in levels]  # each id's block index
        unions = [sum(1 << s for s in range(len(K)) if block[s] <= j) for j in range(1, k + 1)]
        for p in (2, 3):
            field = ph.FieldSpec(p)
            rows = [_inclusion_ranks(K, unions[:j], field) for j in range(1, k + 1)]
            bars = _rank_barcode(rows)
            assert bars == level_barcode(K, block, field), (levels, p)
            for q, deg in enumerate(bars):
                counts[K is rp2, p, q, "inf"] += sum(1 for _, d in deg if d == INF)
                counts[K is rp2, p, q, "finite"] += sum(1 for _, d in deg if d != INF)
            pairs = flags if k > 1 else flags[:3]  # a lone block is not pinned at both ends
            expected = [
                canonicalize_barcode(
                    level_barcode(K, [b - at_zero for b in block], field),
                    k - at_zero - at_one + 1,
                )
                for at_zero, at_one in pairs
            ]
            assert _shifted_types(bars, k, pairs) == expected, (levels, p)
    for q in (0, 1):
        for p in (2, 3):
            assert counts[True, p, q, "finite"] and counts[False, p, q, "finite"], (p, q)
    assert counts[True, 2, 2, "inf"] and not counts[True, 3, 2, "inf"]
