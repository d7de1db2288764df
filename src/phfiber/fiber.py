"""Fibers of the persistence map, as explicit polyhedral complexes.

The fiber over a barcode type T is assembled from the filter strata whose
barcode is T. Each such stratum is one closed cell, affinely a product of
simplices: writing the pinned symbols in value order as ZERO < 1 < ... < m <
ONE, the free blocks falling strictly between consecutive pinned symbols form
the gaps, and a gap with k free blocks contributes a k-simplex factor. The
face relation is stratum coarsening, so the whole complex is combinatorial;
no coordinates beyond symbol rank vectors are ever needed.

The cells are found by one depth-first walk over the monotone partitions
(_fiber_strata, on strata._next_blocks, or its lower-star rows for the
lower-star cells). Cheap tests on each block come first: its Euler count
must match the symbol it takes, and the simplices still unplaced must supply
the symbols still to come, one simplex of the right dimension per endpoint
(_supply_needs; a simplex creates or kills at most one class, the count
behind the bounded deficit). These tests are one function, _moves, of the
placed union and the need rows at the next rank and the one after (the Euler
counts follow from them), so each placed union gets its list of viable
children once per complex for every type with those rows, kept in K.tables
under (_moves, lower_star, key). Then a branch survives only while the
block's row of inclusion ranks, read from the complex's one rank table
(persistence._rank_table), equals the row T predicts for the symbol the
block takes, or for its gap when it is free. Those ranks fix the bars born
and dying at the block, so the leaves are exactly the strata of type T, with
no recheck, and each cell is built from the symbols the walk assigned: a
block is pinned when it takes a symbol and free otherwise, and a 0-cell's
rank vector gives each simplex its block's symbol. Block masks are the
strata's blocks, so cells, their facets and monodromy images use masks.

The face relation is built locally. A cell's facets are the facets of its
simplex factors: in a gap holding free blocks p_1 .. p_k they merge p_1 into
the block before it, p_i with p_(i+1), or p_k into the block after it (or pin
it at 1), each merge the OR of two masks. The cells come in
(dimension, serialize_stratum) order, so one pass in that order finds every
cell's facets, its faces (its facets together with their faces) and its
cellular boundary, with the product sign of Hatcher, Algebraic Topology,
section 2.2. Homology is read off that boundary by the package's one column
reduction (persistence._betti), the DOT graph off the comparable pairs of
0-faces within each cell, and boundary circuits off the 1-cells and 2-cells:
no second complex is built.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator

from .barcodes import ZERO, CombinatorialBarcode
from .errors import DomainError, InvariantError
from .persistence import Filter, _betti, _rank_table
from .simplicial import F2, FieldSpec, SimplicialComplex
from .strata import (
    FilterStratum,
    _next_blocks,
    _trusted_stratum,
    bounded_deficit,
    mask_ids,
    serialize_stratum,
)

FIBER_MODES = ("all", "lower_star")


@dataclass(frozen=True)
class FiberCell:
    """One cell of a fiber: a filter stratum plus its product-of-simplices shape.

    rank_vector is set on 0-cells only; it assigns each simplex (in canonical
    order) the symbol of its block's pinned value, which is its level. labels
    holds one ("pin", symbol) or ("free", gap index) per block.
    """

    stratum: FilterStratum
    gap_shape: tuple[int, ...]
    rank_vector: tuple[int, ...] | None
    labels: tuple[tuple[str, int], ...]

    @property
    def dim(self) -> int:
        return sum(self.gap_shape)


@dataclass(frozen=True)
class FiberComplex:
    """The fiber over one barcode type, with cells sorted by (dim, id string).

    cell_ids maps each cell's stratum to its id, faces[j] holds the ids of
    the proper faces of cell j, and boundary[j] its cellular boundary as
    (facet id, +-1) pairs; all are derived from cells.
    """

    complex: SimplicialComplex
    barcode_type: CombinatorialBarcode
    field: FieldSpec
    mode: str
    cells: tuple[FiberCell, ...]
    face_relation: tuple[tuple[int, int], ...]  # (face id, cell id) pairs
    cell_ids: dict[FilterStratum, int] = dc_field(compare=False, repr=False)
    faces: tuple[frozenset[int], ...] = dc_field(compare=False, repr=False)
    boundary: tuple[tuple[tuple[int, int], ...], ...] = dc_field(
        compare=False, repr=False
    )

    def bounded_deficit(self) -> Fraction:
        return bounded_deficit(self.complex, self.barcode_type)

    def zero_cells(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c.dim == 0)

    def cell_index(self, stratum: FilterStratum) -> int:
        try:
            return self.cell_ids[stratum]
        except KeyError:
            raise DomainError("stratum is not a cell of this fiber") from None

    def zero_faces_of(self, cell_id: int) -> tuple[int, ...]:
        """Ids of the 0-cells in the closure of the given cell."""
        closure = self.faces[cell_id] | {cell_id}
        return tuple(sorted(i for i in closure if self.cells[i].dim == 0))


def _supply_needs(T: CombinatorialBarcode) -> list[tuple[int, ...]]:
    """need[r][q]: the q-simplices that the symbols r..ONE of T still need.

    One per endpoint at such a symbol: a bar of degree q born there, or a
    bar of degree q - 1 dying there at a finite symbol. A simplex creates or
    kills at most one class and a free block carries no endpoint, so the
    blocks of a stratum of type T that take the symbols r..ONE hold at least
    need[r][q] q-simplices. Rows run over r = ZERO..ONE + 1, the last all 0;
    columns over the degrees q = 0..len(T.degrees).
    """
    need = [[0] * (len(T.degrees) + 1) for _ in range(T.one + 2)]
    for q, deg in enumerate(T.degrees):
        for b, d in deg:
            for row in need[: b + 1]:
                row[q] += 1
            if d != T.inf:
                for row in need[: d + 1]:
                    row[q + 1] += 1
    return [tuple(row) for row in need]


def _moves(K: SimplicialComplex, lower_star: bool, key: tuple, placed: int) -> list:
    """The viable children of a placed union in a fiber walk: per block of
    strata._next_blocks (its lower-star rows when lower_star is set) that
    has any moves, (block, union, last, moves), where moves lists each
    (symbol taken, next rank to pin) that passes the tests below.

    key is (rank, m, need[rank], need[rank + 1]), need = _supply_needs(T)
    and rank the next rank to pin. It is all the tests read of T, so every
    type with that key shares one table of these lists on K. No test drops
    a stratum of type T:
    - at ZERO the block takes ZERO; later it is free or takes rank while
      rank <= m, and the last block may take ONE;
    - the block's Euler count is that of the symbol it takes, 0 when free.
      Symbol rank's count is the sum over q of (-1)^q (need[rank][q] -
      need[rank + 1][q]), its endpoints (a death of degree q - 1 sits in
      column q);
    - the last block leaves every rank placed, and pins ONE unless need[ONE]
      is all 0 (ONE is no endpoint);
    - the simplices not yet placed supply the symbols still to come: per
      degree q, at least need[r][q] q-simplices for the move's next rank r.
    """
    rank, m, need, after = key  # need[rank], need[rank + 1]
    one = m + 1
    chi = sum((-1) ** q * (n - k) for q, (n, k) in enumerate(zip(need, after)))
    full = (1 << len(K)) - 1
    dim_masks = K.dim_masks + (0,) * len(need)  # no simplices above dim K
    out = []
    for S, c in _next_blocks(K, placed, lower_star):
        B = placed | S
        last = B == full
        moves = []
        if rank == ZERO:
            if c == chi:
                moves.append((ZERO, 1))
        else:
            if c == 0:
                moves.append((None, rank))
            if rank <= m and c == chi:
                moves.append((rank, rank + 1))
            elif last and c == chi:  # rank is ONE
                moves.append((one, rank))
        # No simplex is left after the last block, so the supply test keeps a
        # move there exactly when need[ONE] is all 0; pinning ONE skips it.
        moves = [
            (s, r) for s, r in moves
            if (r > m or not last) and (s == one or all(
                n <= (~B & mask).bit_count()
                for n, mask in zip(need if r == rank else after, dim_masks)
            ))
        ]
        if moves:
            out.append((S, B, last, moves))
    return out


def _fiber_strata(
    K: SimplicialComplex, T: CombinatorialBarcode, field: FieldSpec, lower_star: bool = False
) -> list[tuple[FilterStratum, tuple]]:
    """The strata of type T, each with the symbol each of its blocks takes.

    A depth-first walk, in serialize_stratum order, over the partitions of
    strata._next_blocks, its lower-star rows when lower_star is set. A block
    takes a symbol, or None when it is free, and its place is that symbol, or
    its gap g when free: it then lies strictly between the symbols g and
    g + 1. The moves a block may make come from _moves, which reads only the
    placed union and the key (rank, m, need[rank], need[rank + 1]) of T's
    supply rows at the next rank to pin, so each placed union's list is
    built once per complex for every type with that key, in
    K.tables[(_moves, lower_star, key)]. A branch at block j then survives
    only while its row of inclusion ranks, rank(H(P_i) -> H(P_j)) per
    degree for the unions P_i of the first i <= j blocks (K's rank table,
    persistence._rank_table), equals the row T predicts: the number of T's
    bars born at or before block i's place and dying after block j's place.
    Rows j - 1 and j fix the bars born and dying at block j, so the leaves
    are exactly the strata whose barcode is T (the persistent Betti numbers
    fix the bars). The row test reads the path and stays per node.

    The first block is pinned at 0 exactly when ZERO is an endpoint of T
    (need[ZERO] != need[1]), since it holds a vertex; the ranks 1..m are
    taken in order; the last block may be pinned at 1 when ONE is not an
    endpoint. Each finite endpoint takes its own simplex, so a type with
    more of them than K has simplices (a negative bounded deficit) has no
    strata, and the walk returns none before building its tables.
    """
    m, one = T.dim, T.one
    if T.finite_endpoint_count() > len(K):
        return []  # each finite endpoint is a distinct simplex: the deficit is < 0
    need = _supply_needs(T)
    # expect[s][t]: per degree of K, T's bars born at or before s, dying after t.
    # Sized for both K and T, so a type with bars above dim K matches no row.
    width = max(K.dim + 1, len(T.degrees))
    counts = [[[0] * width for _ in range(one + 1)] for _ in range(one + 1)]
    for q, deg in enumerate(T.degrees):
        for b, d in deg:
            for s in range(b, one + 1):
                for c in counts[s][: min(d, one + 1)]:
                    c[q] += 1
    expect = [[tuple(c) for c in row] for row in counts]
    keys = [(r, m, need[r], need[r + 1]) for r in range(one + 1)]
    viable = [K.tables.setdefault((_moves, lower_star, key), {}) for key in keys]
    table = _rank_table(K, field)
    vectors = table.vectors
    blocks: list[int] = []
    unions: list[int] = []  # per placed block, the union of the blocks up to it
    places: list[int] = []  # per placed block, its symbol, or its gap when free
    symbols: list = []  # per placed block, its symbol or None when free
    leaves: list[tuple[FilterStratum, tuple]] = []

    def walk(placed: int, rank: int) -> None:
        kids = viable[rank].get(placed)
        if kids is None:
            kids = viable[rank][placed] = _moves(K, lower_star, keys[rank], placed)
        for S, B, last, moves in kids:
            unions.append(B)
            into = table.into.get(B)
            row = []
            if into is not None:
                for A in unions:
                    r = into.get(A)
                    if r is None:
                        break
                    row.append(vectors[r])
            if len(row) < len(unions):
                row = [vectors[r] for r in table.fill(K, field, unions)]
            blocks.append(S)
            for sym, nxt in moves:
                place = rank - 1 if sym is None else sym
                places.append(place)
                if [expect[s][place] for s in places] == row:
                    symbols.append(sym)
                    if last:
                        at_zero = symbols[0] == ZERO
                        stratum = _trusted_stratum(tuple(blocks), at_zero, sym == one)
                        leaves.append((stratum, tuple(symbols)))
                    else:
                        walk(B, nxt)
                    symbols.pop()
                places.pop()
            blocks.pop()
            unions.pop()

    walk(0, ZERO if need[ZERO] != need[1] else 1)
    del walk  # its closure holds walk: break the cycle, which would keep K alive
    return leaves


def _fiber_cell(
    K: SimplicialComplex, stratum: FilterStratum, symbols: tuple, T: CombinatorialBarcode,
    shapes: dict[tuple[int, ...], tuple[int, ...]],
) -> FiberCell:
    """The cell of a stratum over T, read off the symbols its blocks take.

    A pinned block is labelled with its symbol. A free block lies in the gap
    after the last rank pinned before it. A 0-cell has no free block, and its
    rank vector gives each simplex the symbol of its block, which is its level.
    Gap shapes are interned in shapes, so io.dumps writes each shape once.
    """
    shape = [0] * (T.dim + 1)
    labels = []
    gap = 0
    for sym in symbols:
        if sym is None:
            labels.append(("free", gap))
            shape[gap] += 1
        else:
            labels.append(("pin", sym))
            if sym <= T.dim:
                gap = sym
    rank_vector = None
    if not any(shape):
        levels = [0] * len(K)
        for sym, block in zip(symbols, stratum.blocks):
            for i in mask_ids(block):
                levels[i] = sym
        rank_vector = tuple(levels)
    gap_shape = tuple(shape)
    gap_shape = shapes.setdefault(gap_shape, gap_shape)
    return FiberCell(stratum, gap_shape, rank_vector, tuple(labels))


def _cell_facets(cell: FiberCell) -> Iterator[tuple[FilterStratum, int]]:
    """The facets of a cell, each with its sign in the cellular boundary.

    A gap holding the free blocks p_1 .. p_k is a k-simplex factor. Its facet
    i merges p_i with p_(i+1), where p_0 and p_(k+1) are the blocks around
    the gap; with no block after the gap, facet k pins p_k at 1. (There is
    always a block before it: the first block holds a vertex, so a bar is
    born there and it is pinned.) With o free blocks in the earlier gaps,
    facet i carries the sign (-1) ** (o + i), the product sign of Hatcher,
    Algebraic Topology, section 2.2. So each merge of blocks t and t + 1, one
    of them free, is a facet, of sign (-1) ** (free blocks among the first
    t + 1); merging two pinned blocks would change the type.
    """
    st = cell.stratum
    blocks, z, o = st.blocks, st.at_zero, st.at_one
    free = [kind == "free" for kind, _ in cell.labels]
    sign = 1
    for t in range(len(blocks) - 1):
        if free[t]:
            sign = -sign
        if free[t] or free[t + 1]:
            merged = blocks[:t] + (blocks[t] | blocks[t + 1],) + blocks[t + 2 :]
            yield _trusted_stratum(merged, z, o), sign
    if free[-1]:
        yield _trusted_stratum(blocks, z, True), -sign


def _face_sets(
    K: SimplicialComplex, cells: list[FiberCell], cell_ids: dict[FilterStratum, int]
) -> tuple[list[frozenset[int]], list[tuple[tuple[int, int], ...]]]:
    """Per cell, the ids of its proper faces (its facets and their faces) and
    its cellular boundary as (facet id, sign) pairs.

    Each cell must have all of its sum(k + 1) facets, k over its gap shape's
    nonzero entries, as cells of one dimension less and smaller ids.
    """
    faces: list[frozenset[int]] = []
    boundary: list[tuple[tuple[int, int], ...]] = []
    for j, cell in enumerate(cells):
        below: set[int] = set()
        column = []
        for st, sign in _cell_facets(cell):
            i = cell_ids.get(st)
            if i is None:
                continue
            if cells[i].dim != cell.dim - 1 or i >= j:
                raise InvariantError(
                    f"fiber facet {serialize_stratum(st, K)} of cell {j}: expected "
                    f"dimension {cell.dim - 1} and an id below {j}, got cell {i} "
                    f"of dimension {cells[i].dim}"
                )
            below.add(i)
            below |= faces[i]
            column.append((i, sign))
        want = sum(k + 1 for k in cell.gap_shape if k)
        if len(column) != want:
            raise InvariantError(
                f"cell {j} ({serialize_stratum(cell.stratum, K)}) with gap shape "
                f"{cell.gap_shape} has {len(column)} fiber facets, expected {want}"
            )
        faces.append(frozenset(below))
        boundary.append(tuple(column))
    return faces, boundary


def fiber_complex(
    K: SimplicialComplex,
    T: CombinatorialBarcode,
    field: FieldSpec = F2,
    mode: str = "all",
) -> FiberComplex:
    """All cells of the fiber over T together with their face poset.

    mode "lower_star" walks only lower-star strata (the lower-star rows of
    strata._next_blocks); the resulting complex is still closed under faces.
    """
    if mode not in FIBER_MODES:
        raise DomainError(f"unknown fiber mode {mode!r}, expected one of {FIBER_MODES}")
    leaves = _fiber_strata(K, T, field, mode == "lower_star")
    shapes: dict[tuple[int, ...], tuple[int, ...]] = {}
    cells = [_fiber_cell(K, st, sym, T, shapes) for st, sym in leaves]
    if not cells:
        raise DomainError("empty fiber")
    # The walk meets the strata in text order, so a stable sort by dimension
    # gives (dim, serialize_stratum) order. No stratum comes twice: at a
    # non-last block at most one symbol passes the row test (a free block
    # has no births or deaths, every rank 1..m has some); at the last block,
    # free and pinned at ONE both pass only when ONE is no endpoint, in the
    # order "t", "t+o"; at_zero is fixed for the whole walk.
    cells.sort(key=lambda c: c.dim)

    cell_ids = {c.stratum: i for i, c in enumerate(cells)}
    faces, boundary = _face_sets(K, cells, cell_ids)
    relation = sorted((i, j) for j, below in enumerate(faces) for i in below)
    return FiberComplex(
        K, T, field, mode, tuple(cells), tuple(relation), cell_ids, tuple(faces),
        tuple(boundary),
    )


def fiber_dimension(fc: FiberComplex) -> int:
    top = max(range(len(fc.cells)), key=lambda i: fc.cells[i].dim)
    d = fc.cells[top].dim
    if Fraction(d) > fc.bounded_deficit():
        raise InvariantError(
            f"cell {top} ({serialize_stratum(fc.cells[top].stratum, fc.complex)}) "
            f"has dimension {d} above the bounded deficit {fc.bounded_deficit()}"
        )
    return d


def fiber_vertices(fc: FiberComplex) -> tuple[Filter, ...]:
    """The 0-cells realized as filters with values 0, i/(m+1), 1."""
    m = fc.barcode_type.dim
    return tuple(
        Filter(fc.complex, tuple(Fraction(s, m + 1) for s in fc.cells[i].rank_vector))
        for i in fc.zero_cells()
    )


def triangulate_fiber(fc: FiberComplex) -> FiberComplex:
    """Return fc: homology, DOT edges and boundary circuits read the fiber's
    own cells. Kept for the earlier call fiber_homology(triangulate_fiber(fc))."""
    return fc


def fiber_homology(fc: FiberComplex, field: FieldSpec = F2) -> tuple[int, ...]:
    """Betti numbers of the fiber over F_p, degrees 0..max(1, fiber dim), by
    cellular homology: one reduction of the cells' own boundary."""
    betti = _betti(fc.boundary, [c.dim for c in fc.cells], field)
    return betti + (0,) * (max(1, fiber_dimension(fc)) + 1 - len(betti))


def _components(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Connected components of a graph, each sorted, ordered by least node."""
    parent = {x: x for x in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for x in sorted(parent):
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(g) for g in groups.values())


def boundary_circuits(fc: FiberComplex) -> int:
    """Connected components of the 1-cells lying on exactly one 2-cell.

    The fiber must be pure 2-dimensional: every cell is a face of a 2-cell.
    """
    covered = set().union(*fc.faces)
    if any(c.dim != 2 for i, c in enumerate(fc.cells) if i not in covered):
        raise DomainError("boundary circuits need a pure 2-dimensional fiber")
    incidence = Counter(
        i for c, column in zip(fc.cells, fc.boundary) if c.dim == 2 for i, _ in column
    )
    edges = [[v for v, _ in fc.boundary[i]] for i, n in incidence.items() if n == 1]
    return len(_components({v for e in edges for v in e}, edges))
