"""Sublevel-set persistence of monotone filters, with exact rational values.

A filter assigns each simplex a rational value in [0, 1], faces getting values
no larger than their cofaces. Its total barcode is a tuple, indexed by
homology degree 0..dim K, of sorted bar tuples (birth, death); deaths are
either a value or INF. Zero-length bars are suppressed.

One column reduction (Edelsbrunner, Letscher and Zomorodian 2002) computes
every barcode in the package: _PrefixReduction, which places the columns of
a filtration block by block and can pop the last block again. level_barcode
is one push of it over a whole filtration; it reads only the order of the
values, so the package feeds it integer levels (stratum block positions,
rank vectors, 0/1 for removability, all 0 for Betti numbers), while Filter's
Fraction values are for the API. The fiber walk pushes and pops stratum
blocks, pruning on the events of each pushed block (_PrefixReduction.events).
_inclusion_rank reads the rank of H(A) -> H(B) for nested subcomplexes off
one level_barcode, and _rank_barcode reads the barcode of a chain of
subcomplexes off these ranks by inclusion-exclusion, with no reduction of its
own; grouping strata by type types them from a table of these ranks.
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


def level_barcode(
    K: SimplicialComplex, values: Sequence, field: FieldSpec = F2
) -> TotalBarcode:
    """Total barcode of the sublevel filtration of values, by column reduction.

    values, in canonical simplex order, are any comparable values monotone
    on K, unchecked (see check_monotone); bar endpoints are these values.
    The whole filtration is one push of _PrefixReduction, in filtration
    order with ties broken by the canonical simplex order.
    """
    # Canonical ids are already sorted by dimension then lex, so (value, id)
    # is a valid filtration order (faces never come after cofaces).
    order = sorted(range(len(K)), key=lambda i: (values[i], i))
    reduction = _PrefixReduction(K, field)
    reduction.push(order, [values[i] for i in order])
    return reduction.bars()


def _inclusion_rank(
    K: SimplicialComplex, A: int, B: int, field: FieldSpec = F2
) -> tuple[int, ...]:
    """Per degree, the rank of H(A) -> H(B) for closed masks A within B.

    The filtration with level 0 on A, 1 on B minus A and 2 on the rest of K
    has one bar born at 0 that outlives 1 per basis element of that image.
    """
    levels = [0 if A >> i & 1 else 1 if B >> i & 1 else 2 for i in range(len(K))]
    return tuple(
        sum(1 for b, d in deg if b == 0 and d > 1) for deg in level_barcode(K, levels, field)
    )


def _rank_barcode(rows: Sequence[Sequence[Sequence[int]]]) -> TotalBarcode:
    """The barcode of P_1 < ... < P_k = K in block indices 1..k, from its ranks.

    rows[j - 1][i - 1] is, per degree, the rank r(i, j) of H(P_i) -> H(P_j)
    (an _inclusion_rank), for i <= j. With r(0, j) = 0, the bar [i, j) has
    multiplicity r(i, j-1) - r(i, j) - r(i-1, j-1) + r(i-1, j) and the bar
    [i, inf) has r(i, k) - r(i-1, k) (persistent Betti numbers: Edelsbrunner
    and Harer, Computational Topology, VII). Bars come sorted, as in bars().
    """
    k = len(rows)
    barcode = []
    for q in range(len(rows[0][0])):
        r = [[0] * (k + 1)]  # r[i][j] = r(i, j) in degree q, for i <= j
        r += [[0] * i + [row[i - 1][q] for row in rows[i - 1 :]] for i in range(1, k + 1)]
        bars: list[Bar] = []
        for i in range(1, k + 1):
            ri, rh = r[i], r[i - 1]
            for j in range(i + 1, k + 1):
                bars += [(i, j)] * (ri[j - 1] - ri[j] - rh[j - 1] + rh[j])
            bars += [(i, INF)] * (ri[k] - rh[k])
        barcode.append(tuple(bars))
    return tuple(barcode)


class _PrefixReduction:
    """The column reduction of a filtration, built one block at a time.

    push(ids, levels) appends a block: its columns are reduced in the given
    order against the pivots in place, a column reducing to zero creating a
    class and a surviving column killing the class created at its pivot row.
    Filtration order puts every face first, and a column is reduced only
    against earlier columns, so the reduction of a prefix of blocks is the
    same whatever blocks follow; events() reads the bars that die in the last
    block and the classes born in it off its pivots, and pop() undoes its
    columns and pivots. The caller checks that each block is disjoint from
    the placed ones and holds all its faces with them.
    """

    def __init__(self, K: SimplicialComplex, field: FieldSpec = F2) -> None:
        self.K = K
        self.p = field.characteristic
        self.pos = [0] * len(K)  # position of each placed id
        self.order: list[int] = []  # id at each position
        self.level: list = []  # level of each position, its bar value
        self.lows: list = []  # pivot row of each position's column, None if zero
        self.pivots: dict[int, dict[int, int]] = {}  # pivot row -> reduced column
        self.starts: list[int] = []  # first position of each pushed block

    def push(self, ids: Sequence[int], levels: Iterable) -> None:
        """Place the columns of ids, in this order, one level each."""
        p, pos, pivots, facet_ids = self.p, self.pos, self.pivots, self.K.facet_ids
        lows = self.lows
        start = len(self.order)
        self.starts.append(start)
        self.order += ids
        self.level += levels
        for j, idx in enumerate(ids, start):
            pos[idx] = j
            col: dict[int, int] = {}
            for i, facet in enumerate(facet_ids[idx]):
                col[pos[facet]] = (-1) ** i % p
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

    def events(self) -> tuple[tuple[int, ...], tuple[tuple[int, object], ...]]:
        """The last block's events, read off the pivots push recorded for it.

        For a block pushed at one level: births holds the degree of each class
        born in the block that outlives it, deaths the (degree, birth level) of
        each class of an earlier block that it kills, both sorted. A class
        born and killed inside the block is neither, as its bar has length 0.
        The reduction of a prefix is final, so every filtration that starts
        with the placed blocks has exactly these bars born and dying in the
        block, whatever blocks follow.
        """
        start = self.starts[-1]
        order, level, dims, lows = self.order, self.level, self.K.dims, self.lows
        births: list[int] = []
        deaths: list[tuple[int, object]] = []
        for j in range(start, len(lows)):
            low = lows[j]
            if low is None:
                births.append(dims[order[j]])
            elif low < start:
                deaths.append((dims[order[low]], level[low]))
            else:  # one class of this degree is born and killed in the block
                births.remove(dims[order[low]])
        births.sort()
        deaths.sort()
        return tuple(births), tuple(deaths)

    def pop(self) -> None:
        start = self.starts.pop()
        for low in self.lows[start:]:
            if low is not None:
                del self.pivots[low]
        del self.order[start:], self.level[start:], self.lows[start:]

    def bars(self) -> TotalBarcode:
        """The barcode of the placed columns, with their levels as values.

        Zero-length bars are suppressed; bars are sorted within each degree.
        """
        order, level, dims = self.order, self.level, self.K.dims
        bars: list[list[Bar]] = [[] for _ in range(self.K.dim + 1)]
        killed = set()
        creators = []
        for j, low in enumerate(self.lows):
            if low is None:
                creators.append(j)
            else:
                killed.add(low)
                if level[low] < level[j]:
                    bars[dims[order[low]]].append((level[low], level[j]))
        for j in creators:
            if j not in killed:
                bars[dims[order[j]]].append((level[j], INF))
        return tuple(tuple(sorted(b)) for b in bars)


def betti_numbers(K: SimplicialComplex, field: FieldSpec = F2) -> tuple[int, ...]:
    """Betti numbers over F_p for degrees 0..dim K.

    With every level 0 each finite bar would be (0, 0) and is suppressed, so
    the bars left in degree q are (0, inf), one per basis element of H_q(K).
    """
    return infinite_bar_counts(level_barcode(K, (0,) * len(K), field))


def infinite_bar_counts(barcode: TotalBarcode) -> tuple[int, ...]:
    return tuple(sum(1 for _, d in deg if d == INF) for deg in barcode)


def constant_filter(K: SimplicialComplex, value) -> Filter:
    v = _as_unit_fraction(value)
    return Filter(K, tuple(v for _ in K.simplices))


def filter_from_values(K: SimplicialComplex, values: Iterable[object]) -> Filter:
    """Build a Filter from values listed in canonical simplex order."""
    return Filter(K, tuple(_as_unit_fraction(v) for v in values))
