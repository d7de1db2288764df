"""Sublevel-set persistence of monotone filters, with exact rational values.

A filter assigns each simplex a rational value in [0, 1], faces getting values
no larger than their cofaces. Its total barcode is a tuple, indexed by
homology degree 0..dim K, of sorted bar tuples (birth, death); deaths are
either a value or INF. Zero-length bars are suppressed.

One column reduction (Edelsbrunner, Letscher and Zomorodian 2002), _reduce,
computes every barcode, rank and Betti number in the package but one: the
essentiality search (structure) reduces coboundary columns one at a time
against shared chains of earlier columns, and never reduces K. It reads its
columns from a boundary source, facet ids with coefficients +-1, so the one
loop reduces simplicial complexes and the cellular chain complexes of fibers
alike, and _betti is the one Betti reader for both. level_barcode reads a
barcode off it; it uses only the order of the values, so the package feeds
it integer levels (stratum block positions, rank vectors, 0/1 for
removability), while Filter's Fraction values are for the API.
_inclusion_ranks reads the ranks of H(P_i) -> H(P_k) along a chain of
subcomplexes off one reduction of P_k, and each complex keeps one
table of these ranks per field (_rank_table), shared by every call on it. A
block filtration's bars are fixed by the ranks between its unions
(persistent Betti numbers), so that table is the package's one typing rule:
image grouping reads each type off it by inclusion-exclusion (_rank_barcode),
and the fiber walk prunes a branch as soon as a row of it differs from the
row the type predicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .simplicial import F2, FieldSpec, Simplex, SimplicialComplex

INF = float("inf")

Bar = tuple  # (birth, death): filter values or levels, death possibly INF
TotalBarcode = tuple  # one tuple of bars per degree 0..dim K


def _as_unit_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise DomainError(f"not a filter: bool value {v!r}, use Fraction")
    try:
        f = Fraction(v)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a filter: value {v!r} is not rational") from exc
    if isinstance(v, float):
        raise DomainError(f"not a filter: float value {v!r}, use Fraction")
    if not 0 <= f <= 1:
        raise DomainError(f"not a filter: value {f} outside [0, 1]")
    return f


@dataclass(frozen=True)
class Filter:
    """A monotone map from the simplices of a fixed complex to [0, 1]."""

    complex: SimplicialComplex
    values: tuple[Fraction, ...]  # aligned with complex.simplices

    def __post_init__(self) -> None:
        K = self.complex
        if len(self.values) != len(K):
            raise DomainError("not a filter: value count does not match the complex")
        check_monotone(K, self.values)

    def __getitem__(self, s: Simplex) -> Fraction:
        i = self.complex.index.get(s)
        if i is None:
            raise DomainError(f"simplex {s} is not in the filter's complex")
        return self.values[i]


def check_monotone(K: SimplicialComplex, values: Sequence) -> None:
    """Raise DomainError unless no face has a larger value than a coface."""
    for j, facets in enumerate(K.facet_ids):
        for i in facets:
            if values[i] > values[j]:
                raise DomainError(
                    f"not a filter: face {K.simplices[i]} has larger value "
                    f"than {K.simplices[j]}"
                )


def make_filter(K: SimplicialComplex, values: Mapping[Simplex, object]) -> Filter:
    """Build a Filter from a simplex-keyed mapping, validating everything."""
    unknown = [s for s in values if s not in K]
    if unknown:
        raise DomainError(f"not a filter: value given for simplex {unknown[0]} not in K")
    missing = [s for s in K.simplices if s not in values]
    if missing:
        raise DomainError(f"not a filter: no value for simplex {missing[0]}")
    return Filter(K, tuple(_as_unit_fraction(values[s]) for s in K.simplices))


def barcode_of_filter(filt: Filter, field: FieldSpec = F2) -> TotalBarcode:
    """Total barcode of the sublevel filtration of a filter."""
    return level_barcode(filt.complex, filt.values, field)


def _reduce(
    boundary: Sequence[Sequence[tuple[int, int]]], order: Sequence[int], field: FieldSpec
) -> tuple[list, dict]:
    """The column reduction of the boundary matrix of the cells in order, a
    filtration order of a subcomplex (faces before their cofaces).

    boundary[j] lists cell j's facets as (facet id, +-1) pairs: a complex's
    SimplicialComplex.boundary, or a FiberComplex's cellular boundary.
    Returns, per position, the pivot row of its reduced column (None when it
    reduces to zero), and the reduced columns keyed by pivot row.
    """
    p = field.characteristic
    pos = [0] * len(boundary)  # position of each id in the order
    pivots: dict[int, dict[int, int]] = {}  # pivot row -> reduced column
    lows: list = []  # pivot row of each position's column, None if zero
    # Each column is reduced against the earlier ones: a column reducing to
    # zero creates a class, a surviving one kills the class at its pivot row.
    # A -1 stays -1 until its column is reduced; all arithmetic is mod p.
    for j, idx in enumerate(order):
        pos[idx] = j
        col: dict[int, int] = {}
        for facet, c in boundary[idx]:
            col[pos[facet]] = c
        while col:
            low = max(col)
            if low not in pivots:
                break
            other = pivots[low]
            factor = col[low] * pow(other[low], -1, p) % p
            for r, c in other.items():
                v = (col.get(r, 0) - factor * c) % p
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
        if col:
            low = max(col)
            pivots[low] = col
            lows.append(low)
        else:
            lows.append(None)
    return lows, pivots


def _betti(
    boundary: Sequence[Sequence[tuple[int, int]]], dims: Sequence[int], field: FieldSpec
) -> tuple[int, ...]:
    """Betti numbers over F_p, degrees 0..max(dims), of the complex of cells
    0, 1, ... (faces first) with dimensions dims and boundary as for _reduce."""
    lows, pivots = _reduce(boundary, range(len(boundary)), field)
    betti = [0] * (max(dims) + 1)
    for j, low in enumerate(lows):
        if low is None and j not in pivots:
            betti[dims[j]] += 1
    return tuple(betti)


def level_barcode(
    K: SimplicialComplex, values: Sequence, field: FieldSpec = F2
) -> TotalBarcode:
    """Total barcode of the sublevel filtration of values, by _reduce.

    values, in canonical simplex order, are any comparable values monotone
    on K, unchecked (see check_monotone); bar endpoints are these values.
    Zero-length bars are suppressed; bars are sorted within each degree.
    """
    # Canonical ids are already sorted by dimension then lex, so (value, id)
    # is a valid filtration order (faces never come after cofaces).
    order = sorted(range(len(K)), key=lambda i: (values[i], i))
    lows, pivots = _reduce(K.boundary, order, field)
    dims = K.dims
    level = [values[i] for i in order]
    bars: list[list[Bar]] = [[] for _ in range(K.dim + 1)]
    for j, low in enumerate(lows):
        if low is not None and level[low] < level[j]:
            bars[dims[order[low]]].append((level[low], level[j]))
    for j, low in enumerate(lows):
        if low is None and j not in pivots:  # a class that nothing kills
            bars[dims[order[j]]].append((level[j], INF))
    return tuple(tuple(sorted(b)) for b in bars)


def _inclusion_ranks(
    K: SimplicialComplex, unions: Sequence[int], field: FieldSpec = F2
) -> list[tuple[int, ...]]:
    """Per P_i of a chain P_1 <= ... <= P_k of closed masks, and per degree,
    the rank of H(P_i) -> H(P_k), all read off one reduction of P_k.

    P_k is filtered by the first P_i holding each simplex, so the rest of K
    is never reduced. A class born by P_i that nothing in P_k kills is one
    basis element of the image of H(P_i).
    """
    order, starts, before = [], [], 0  # starts[i]: the position P_i starts at
    for P in unions:
        starts.append(len(order))
        new = P & ~before
        while new:
            low = new & -new
            order.append(low.bit_length() - 1)
            new ^= low
        before = P
    starts.append(len(order))
    lows, pivots = _reduce(K.boundary, order, field)
    dims, total, ranks = K.dims, [0] * (K.dim + 1), []
    for i in range(len(unions)):
        for j in range(starts[i], starts[i + 1]):
            if lows[j] is None and j not in pivots:  # a class P_k never kills
                total[dims[order[j]]] += 1
        ranks.append(tuple(total))
    return ranks


class _RankTable:
    """The inclusion ranks of one complex over one field, each computed once.

    into[B][A] is the id of the rank vector of H(A) -> H(B), per degree, for
    closed masks A within B, and vectors[id] is that vector. Equal vectors
    share one small id, so rows of ids compare and hash as int tuples. A
    caller reads the row of a chain of unions from into[B], B its last mask,
    and calls fill when an entry is missing; the lookup is written out in
    each caller's hot loop (the image walk, image grouping and the fiber
    walk), where a call per row cost image grouping 9%.
    The table holds no reference to its complex, which holds the table.
    """

    __slots__ = ("into", "vectors", "ids")

    def __init__(self) -> None:
        self.into: dict[int, dict[int, int]] = {}
        self.vectors: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}

    def fill(
        self, K: SimplicialComplex, field: FieldSpec, unions: Sequence[int]
    ) -> list[int]:
        """Store and return the rank ids of H(A) -> H(B) for each A of the
        chain unions, B its last mask, from one reduction of B."""
        ids, vectors = self.ids, self.vectors
        row = []
        for vector in _inclusion_ranks(K, unions, field):
            r = ids.setdefault(vector, len(vectors))
            if r == len(vectors):
                vectors.append(vector)
            row.append(r)
        self.into.setdefault(unions[-1], {}).update(zip(unions, row))
        return row


def _rank_table(K: SimplicialComplex, field: FieldSpec) -> _RankTable:
    """K's table of inclusion ranks over field, in K.tables at (_RankTable.fill, p)."""
    key = (_RankTable.fill, field.characteristic)
    table = K.tables.get(key)
    if table is None:
        table = K.tables[key] = _RankTable()
    return table


def _rank_barcode(rows: Sequence[Sequence[Sequence[int]]]) -> TotalBarcode:
    """The barcode of P_1 < ... < P_k = K in block indices 1..k, from its ranks.

    rows[j - 1][i - 1] is, per degree, the rank r(i, j) of H(P_i) -> H(P_j)
    (from _inclusion_ranks), for i <= j. With r(0, j) = 0, the bar [i, j) has
    multiplicity r(i, j-1) - r(i, j) - r(i-1, j-1) + r(i-1, j) and the bar
    [i, inf) has r(i, k) - r(i-1, k) (persistent Betti numbers: Edelsbrunner
    and Harer, Computational Topology, VII). Bars come sorted, as in level_barcode.
    """
    k = len(rows)
    barcode = []
    for q in range(len(rows[0][0])):
        bars: list[Bar] = []
        for i in range(k):
            # alive: r(i+1, j+1) - r(i, j+1), the classes born at block i + 1
            # that live at block j + 1; each drop ends that many bars there.
            alive = 0
            for j in range(i, k):
                row = rows[j]
                n = row[i][q] - row[i - 1][q] if i else row[i][q]
                if alive > n:
                    bars += [(i + 1, j + 1)] * (alive - n)
                alive = n
            bars += [(i + 1, INF)] * alive
        barcode.append(tuple(bars))
    return tuple(barcode)


def betti_numbers(K: SimplicialComplex, field: FieldSpec = F2) -> tuple[int, ...]:
    """Betti numbers over F_p for degrees 0..dim K."""
    return _betti(K.boundary, K.dims, field)


def infinite_bar_counts(barcode: TotalBarcode) -> tuple[int, ...]:
    return tuple(sum(1 for _, d in deg if d == INF) for deg in barcode)


def constant_filter(K: SimplicialComplex, value) -> Filter:
    v = _as_unit_fraction(value)
    return Filter(K, tuple(v for _ in K.simplices))


def filter_from_values(K: SimplicialComplex, values: Iterable[object]) -> Filter:
    """Build a Filter from values listed in canonical simplex order."""
    return Filter(K, tuple(_as_unit_fraction(v) for v in values))
