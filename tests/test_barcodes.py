"""Combinatorial barcode types with their parsing and endpoint maps."""

from fractions import Fraction

import pytest

import phfiber as ph
from phfiber import INF, DomainError, ParseError
from phfiber.barcodes import (
    ZERO,
    CombinatorialBarcode,
    EndpointMap,
    all_endpoint_maps,
    apply_endpoint_map_to_type,
    map_bars_raw,
    symbol_token,
)

from conftest import TYPE_STRINGS


def F(n, d=1):
    return Fraction(n, d)


def test_canonicalize_ranks_interior_endpoints():
    bc = (((F(0), INF), (F(1, 3), F(2, 3))), ((F(2, 3), F(1)),))
    T = ph.canonicalize_barcode(bc)
    assert T.dim == 2
    assert ph.format_barcode_type(T) == "0:(zero,inf),(1,2);1:(2,one)"


def test_canonicalize_merges_equal_values_into_one_rank():
    bc = (((F(1, 2), INF), (F(1, 2), F(3, 4))),)
    T = ph.canonicalize_barcode(bc)
    assert T.dim == 2
    assert ph.format_barcode_type(T) == "0:(1,2),(1,inf)"


def test_format_parse_round_trip_on_all_triangle_types(triangle_records):
    for rec in triangle_records:
        text = ph.format_barcode_type(rec.barcode_type)
        assert ph.parse_barcode_type(text) == rec.barcode_type


def test_parse_accepts_boundary_symbols():
    T = ph.parse_barcode_type("0:(zero,inf),(1,2);1:(2,one)")
    assert T.dim == 2
    assert T.degrees[0][0] == (ZERO, T.inf)
    assert T.degrees[1] == ((2, T.one),)


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError, match="bogus"):
        ph.parse_barcode_type("0:(bogus,inf)")


def test_parse_rejects_malformed_text():
    for text in ("", "0:", "0:(1,inf", "(1,inf)", "0:(1,inf);;1:(2,inf)"):
        with pytest.raises(ParseError):
            ph.parse_barcode_type(text)


@pytest.mark.parametrize(
    "text",
    [
        "0:(1,\u00b2)",  # superscript two: str.isdigit() but not int()
        "0:(\u0661,inf)",  # Arabic-Indic one: int() reads it as 1
        "0:(1_0,inf)",
        "0:(+1,inf)",
        "1_0:(1,inf)",
        "\u0660:(1,inf)",
        "-1:(1,inf)",
        "\u00b2:(1,inf)",
    ],
)
def test_parse_accepts_only_ascii_digits(text):
    with pytest.raises(ParseError, match="unknown barcode token"):
        ph.parse_barcode_type(text)


def test_parse_reads_ascii_ranks_and_degrees():
    T = ph.parse_barcode_type(" 1 :(zero,inf);0:( 01 ,10),(2,3),(4,5),(6,7),(8,9)")
    assert T.dim == 10
    assert T.degrees[0][0] == (1, 10)
    assert T.degrees[1] == ((ZERO, T.inf),)


def test_type_validation_requires_all_ranks_used():
    with pytest.raises(ParseError, match="rank never used"):
        ph.parse_barcode_type("0:(1,inf),(3,4)")
    with pytest.raises(DomainError, match="does not use interior ranks"):
        ph.CombinatorialBarcode(2, (((1, 4),),))


def test_symbol_tokens():
    assert [symbol_token(s, 2) for s in range(5)] == ["zero", "1", "2", "one", "inf"]


def test_finite_endpoint_and_bar_counts(types):
    T = types["two_circles"]
    assert sum(len(deg) for deg in T.degrees) == 3
    assert T.finite_endpoint_count() == 4
    assert types["point"].finite_endpoint_count() == 2
    assert types["bars_disjoint"].finite_endpoint_count() == 6


def test_realize_type_round_trips_through_canonicalize(types):
    for T in types.values():
        assert ph.canonicalize_barcode(ph.realize_type(T)) == T


def test_realize_type_with_custom_values(types):
    T = types["two_circles"]
    vals = (F(1, 7), F(2, 7), F(5, 7), F(6, 7))
    bc = ph.realize_type(T, vals)
    assert ph.canonicalize_barcode(bc) == T
    assert bc[0][0] == (F(1, 7), INF)
    with pytest.raises(DomainError, match="strictly increasing"):
        ph.realize_type(T, (F(1, 2), F(1, 2), F(3, 4), F(7, 8)))
    with pytest.raises(DomainError, match="strictly increasing"):
        ph.realize_type(T, (F(1, 2),))


def test_endpoint_map_validation():
    with pytest.raises(DomainError, match="monotone"):
        EndpointMap(2, 2, (2, 1))
    with pytest.raises(DomainError, match="every source rank"):
        EndpointMap(2, 2, (1,))
    with pytest.raises(DomainError, match="out of range"):
        EndpointMap(2, 1, (1, 3))


def test_endpoint_map_fixes_boundary_symbols():
    phi = EndpointMap(2, 1, (1, 1))
    assert phi(0) == 0
    assert phi(3) == 2
    assert phi(4) == 3
    assert phi(1) == phi(2) == 1


def test_endpoint_map_is_simplicial():
    assert EndpointMap(2, 2, (1, 2)).is_simplicial
    assert EndpointMap(2, 1, (1, 1)).is_simplicial
    assert not EndpointMap(2, 2, (2, 2)).is_simplicial
    assert not EndpointMap(1, 2, (2,)).is_simplicial


def test_compose_endpoint_maps(types):
    inner = EndpointMap(3, 2, (1, 2, 2))
    outer = EndpointMap(2, 1, (1, 1))
    comp = ph.compose_endpoint_maps(outer, inner)
    assert comp.rank_images == (1, 1, 1)
    ident = ph.identity_endpoint_map(types["two_circles"])
    assert ph.compose_endpoint_maps(ident, ident) == ident


def test_map_bars_records_collapses(types):
    T = types["two_circles"]
    phi = EndpointMap(4, 2, (1, 2, 2, 2))
    degrees, matching = map_bars_raw(phi, T)
    assert degrees == (((1, 4),), ((2, 4),))
    collapsed = [bar for bar, image in matching[0] if image is None]
    assert collapsed == [(2, 3)]


def test_apply_endpoint_map_reranks(types):
    T = types["two_circles"]
    phi = EndpointMap(4, 2, (1, 2, 2, 2))
    assert apply_endpoint_map_to_type(phi, T) == types["mobius"]
    ident = ph.identity_endpoint_map(T)
    assert apply_endpoint_map_to_type(ident, T) == T


def _rerank_image(phi, T):
    """The push-forward as an explicit re-ranking of the used target ranks."""
    degrees, _ = map_bars_raw(phi, T)
    mt = phi.target_dim
    used = sorted({s for deg in degrees for bar in deg for s in bar if 1 <= s <= mt})
    rerank = {r: i + 1 for i, r in enumerate(used)}
    m_new = len(used)
    rerank.update({ZERO: ZERO, mt + 1: m_new + 1, mt + 2: m_new + 2})
    return CombinatorialBarcode(
        m_new,
        tuple(tuple(sorted((rerank[b], rerank[d]) for b, d in deg)) for deg in degrees),
    )


def test_apply_endpoint_map_matches_reranking_on_triangle_types(triangle):
    """Every map out of an all-mode triangle type into 0..dim ranks."""
    strata = ph.enumerate_filter_strata(triangle, "all")
    cases = 0
    for rec in ph.group_strata_by_barcode(triangle, strata):
        T = rec.barcode_type
        for mt in range(T.dim + 1):
            for phi in all_endpoint_maps(T.dim, mt):
                image = apply_endpoint_map_to_type(phi, T)
                assert image == _rerank_image(phi, T)
                if image.dim == mt:
                    # a map onto its target hits every target rank
                    assert phi.is_simplicial
                cases += 1
    assert cases == 35_399


def test_all_endpoint_maps_enumeration():
    maps = list(all_endpoint_maps(2, 1))
    assert len(maps) == 6
    assert all(m.rank_images == tuple(sorted(m.rank_images)) for m in maps)
    assert len(set(maps)) == 6


def test_named_type_strings_parse(types):
    for name, text in TYPE_STRINGS.items():
        assert ph.format_barcode_type(types[name]) == text
