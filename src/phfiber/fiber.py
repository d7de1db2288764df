"""Fibers of the persistence map, as explicit polyhedral complexes.

The fiber over a barcode type T is assembled from the filter strata whose
barcode is T. Each such stratum is one closed cell, affinely a product of
simplices: writing the pinned symbols in value order as ZERO < 1 < ... < m <
ONE, the free blocks falling strictly between consecutive pinned symbols form
the gaps, and a gap with k free blocks contributes a k-simplex factor. The
face relation is stratum coarsening, so the whole complex is combinatorial;
no coordinates beyond symbol rank vectors are ever needed.

The cells are found by one depth-first walk over the monotone partitions
(_fiber_strata, on strata._next_blocks) that carries one column reduction,
persistence._PrefixReduction: each block is pushed on entering a branch and
popped on leaving it. The reduction of a block prefix is final, so the bars
that die in a block and the classes born in it that outlive it are known as
soon as it is pushed, and a branch survives only while they equal T's events
at the symbol the block takes (none when the block is free). A cheap
Euler-count test on each block comes first. The leaves are exactly the strata
of type T, with no recheck, and each cell is built from the symbols the walk
assigned: a block is pinned when it takes a symbol and free otherwise, and a
0-cell's rank vector gives each simplex its block's symbol. Block masks are
the strata's blocks, so cells, their facets and monodromy images use masks.

The face relation is built locally. The codimension-1 coarsenings of a
stratum are the merges of two adjacent blocks (the OR of their masks) and the
pinning of the first block at 0 or of the last block at 1; those that are
cells of the fiber are the cell's facets. The cells come in (dimension,
serialize_stratum) order, so one pass in that order collects every cell's
faces as its facets together with their faces. The triangulation takes its
maximal simplices from the cells that are no other cell's face.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator

from .barcodes import ZERO, CombinatorialBarcode, format_barcode_type
from .errors import DomainError, InvariantError
from .persistence import Filter, _PrefixReduction, betti_numbers
from .simplicial import F2, FieldSpec, SimplicialComplex, build_complex
from .strata import (
    FilterStratum,
    _next_blocks,
    _trusted_stratum,
    bounded_deficit,
    is_lower_star_stratum,
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

    cell_ids maps each cell's stratum to its id, and faces[j] holds the ids of
    the proper faces of cell j; both are derived from cells and face_relation.
    """

    complex: SimplicialComplex
    barcode_type: CombinatorialBarcode
    field: FieldSpec
    mode: str
    cells: tuple[FiberCell, ...]
    face_relation: tuple[tuple[int, int], ...]  # (face id, cell id) pairs
    cell_ids: dict[FilterStratum, int] = dc_field(compare=False, repr=False)
    faces: tuple[frozenset[int], ...] = dc_field(compare=False, repr=False)

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


def _symbol_events(T: CombinatorialBarcode) -> dict[int, tuple[tuple, tuple]]:
    """Per finite symbol of T: the degrees of the bars born there, and the
    (degree, birth symbol) of the bars dying there, both sorted.

    These are the events _PrefixReduction.events reports for a block that
    takes the symbol, with block levels read as symbols.
    """
    births: dict[int, list] = {s: [] for s in range(ZERO, T.one + 1)}
    deaths: dict[int, list] = {s: [] for s in births}
    for q, deg in enumerate(T.degrees):
        for b, d in deg:
            births[b].append(q)
            if d != T.inf:
                deaths[d].append((q, b))
    return {s: (tuple(sorted(births[s])), tuple(sorted(deaths[s]))) for s in births}


def _fiber_strata(
    K: SimplicialComplex, T: CombinatorialBarcode, field: FieldSpec
) -> list[tuple[FilterStratum, tuple]]:
    """The strata of type T, each with the symbol each of its blocks takes.

    A depth-first walk over the monotone partitions, in the serialize_stratum
    order of strata._next_blocks, carries one _PrefixReduction: a block is
    pushed at its block index on entering a branch and popped on leaving it.
    The reduction of a prefix is final, so the block's events
    (_PrefixReduction.events) are bars of every stratum below the branch, and
    the branch survives only if they equal T's events at the symbol the block
    takes (_symbol_events); a free block, None, takes no symbol and must have
    none. The leaves are then exactly the strata whose barcode is T: every
    symbol with events is taken by one block, so the births and deaths of each
    symbol match T's, and so do the bars. Before the push, the block's Euler
    count must equal the symbol's (0 when free), which prunes most branches.

    The first block is pinned at 0 exactly when ZERO has events, since it
    holds a vertex; the ranks 1..m are taken in order; the last block may be
    pinned at 1 with no events when ONE has none.
    """
    m, one = T.dim, T.one
    table = _symbol_events(T)
    # The change of the sublevel Euler characteristic at each symbol.
    chi = {
        s: sum((-1) ** q for q in births) - sum((-1) ** q for q, _ in deaths)
        for s, (births, deaths) in table.items()
    }
    quiet = ((), ())  # no births, no deaths
    one_optional = table[one] == quiet
    full = (1 << len(K)) - 1
    reduction = _PrefixReduction(K, field)
    blocks: list[int] = []
    symbols: list = []  # per placed block, its symbol or None when free
    leaves: list[tuple[FilterStratum, tuple]] = []
    memo: dict = {}

    def walk(placed: int, rank: int) -> None:
        k = len(blocks)
        for S, c, ids in _next_blocks(K, placed, memo):
            moves = []  # (symbol taken, next rank to pin)
            if rank == ZERO:
                if c == chi[ZERO]:
                    moves.append((ZERO, 1))
            else:
                if c == 0:
                    moves.append((None, rank))
                if rank <= m and c == chi[rank]:
                    moves.append((rank, rank + 1))
            last = placed | S == full
            if last:
                # Every rank is placed, and ONE is pinned unless it has no events.
                if rank > m and c == chi[one]:
                    moves.append((one, rank))
                moves = [(s, r) for s, r in moves if r > m and (s == one or one_optional)]
            if not moves:
                continue
            reduction.push(ids, [k] * len(ids))
            births, deaths = reduction.events()
            events = (births, tuple([(q, symbols[b]) for q, b in deaths]))
            blocks.append(S)
            for sym, nxt in moves:
                if events != (quiet if sym is None else table[sym]):
                    continue
                symbols.append(sym)
                if last:
                    stratum = _trusted_stratum(tuple(blocks), symbols[0] == ZERO, sym == one)
                    leaves.append((stratum, tuple(symbols)))
                else:
                    walk(placed | S, nxt)
                symbols.pop()
            blocks.pop()
            reduction.pop()

    walk(0, ZERO if table[ZERO] != quiet else 1)
    return leaves


def _fiber_cell(
    K: SimplicialComplex, stratum: FilterStratum, symbols: tuple, T: CombinatorialBarcode
) -> FiberCell:
    """The cell of a stratum over T, read off the symbols its blocks take.

    A pinned block is labelled with its symbol. A free block lies in the gap
    after the last rank pinned before it. A 0-cell has no free block, and its
    rank vector gives each simplex the symbol of its block, which is its level.
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
    return FiberCell(stratum, tuple(shape), rank_vector, tuple(labels))


def _facet_strata(stratum: FilterStratum) -> Iterator[FilterStratum]:
    """The codimension-1 coarsenings: merge two adjacent blocks, or pin an end.

    None of them may leave a single block pinned at both 0 and 1.
    """
    blocks, z, o = stratum.blocks, stratum.at_zero, stratum.at_one
    n = len(blocks)
    if not (n == 2 and z and o):
        for i in range(n - 1):
            merged = blocks[:i] + (blocks[i] | blocks[i + 1],) + blocks[i + 2 :]
            yield _trusted_stratum(merged, z, o)
    if not z and not (n == 1 and o):
        yield _trusted_stratum(blocks, True, o)
    if not o and not (n == 1 and z):
        yield _trusted_stratum(blocks, z, True)


def _face_sets(
    K: SimplicialComplex, cells: list[FiberCell], cell_ids: dict[FilterStratum, int]
) -> list[frozenset[int]]:
    """Per cell, the ids of its proper faces: its fiber facets and their faces."""
    faces: list[frozenset[int]] = []
    for j, cell in enumerate(cells):
        below: set[int] = set()
        for st in _facet_strata(cell.stratum):
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
        faces.append(frozenset(below))
    return faces


def fiber_complex(
    K: SimplicialComplex,
    T: CombinatorialBarcode,
    field: FieldSpec = F2,
    mode: str = "all",
) -> FiberComplex:
    """All cells of the fiber over T together with their face poset.

    mode "lower_star" keeps only cells that are strata of lower-star filters;
    the resulting complex is still closed under faces.
    """
    if mode not in FIBER_MODES:
        raise DomainError(f"unknown fiber mode {mode!r}, expected one of {FIBER_MODES}")
    cells = [
        _fiber_cell(K, st, symbols, T)
        for st, symbols in _fiber_strata(K, T, field)
        if mode == "all" or is_lower_star_stratum(K, st)
    ]
    if not cells:
        raise DomainError("empty fiber")
    # The walk meets the strata in text order, so a stable sort by dimension
    # gives (dim, serialize_stratum) order. No stratum comes twice: at a
    # non-last block at most one symbol passes the event test (a free block
    # needs no events, every rank 1..m has some); at the last block, free and
    # pinned at ONE both pass only when ONE has no events, in the order "t",
    # "t+o"; at_zero is fixed for the whole walk.
    cells.sort(key=lambda c: c.dim)

    cell_ids = {c.stratum: i for i, c in enumerate(cells)}
    faces = _face_sets(K, cells, cell_ids)
    relation = sorted((i, j) for j, below in enumerate(faces) for i in below)
    return FiberComplex(
        K, T, field, mode, tuple(cells), tuple(relation), cell_ids, tuple(faces)
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


@dataclass(frozen=True)
class TriangulatedFiber:
    """A simplicial complex supported on the fiber.

    Vertices are the deduplicated rank vectors of the fiber's 0-cells; the
    simplices are the chains of those vectors under the pointwise symbol
    order, taken within each cell.
    """

    fiber: FiberComplex
    vertices: tuple[tuple[int, ...], ...]
    maximal_simplices: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All 1-simplices of the triangulation (pairs inside some chain)."""
        pairs = {
            (a, b)
            for chain in self.maximal_simplices
            for a in chain
            for b in chain
            if a < b
        }
        return tuple(sorted(pairs))


def _pointwise_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _maximal_chains(vectors: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
    below = {
        v: [w for w in vectors if w != v and _pointwise_leq(w, v)] for v in vectors
    }
    covers: dict[tuple[int, ...], list[tuple[int, ...]]] = {v: [] for v in vectors}
    for v in vectors:
        for w in below[v]:
            if not any(u != w and _pointwise_leq(w, u) for u in below[v]):
                covers[w].append(v)

    def extend(chain: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        nxt = covers[chain[-1]]
        if not nxt:
            yield chain
            return
        for v in nxt:
            yield from extend(chain + [v])

    for v in vectors:
        if not below[v]:
            yield from extend([v])


def triangulate_fiber(fc: FiberComplex) -> TriangulatedFiber:
    """Staircase triangulation: per cell, the order complex of its 0-faces.

    Chains coming from a shared face agree, so the per-cell triangulations
    glue. A maximal chain of a cell spans a simplex whose interior lies in
    the cell's interior, so it lies in no chain of another cell unless the
    cell is a face of that one: the maximal simplices are exactly the
    maximal chains of the maximal cells, each produced once.
    """
    vertices = sorted(fc.cells[i].rank_vector for i in fc.zero_cells())
    vid = {v: k for k, v in enumerate(vertices)}
    faces = set().union(*fc.faces)

    maximal = []
    for ci, cell in enumerate(fc.cells):
        vecs = [fc.cells[i].rank_vector for i in fc.zero_faces_of(ci)]
        for chain in _maximal_chains(vecs):
            if len(chain) != cell.dim + 1:
                raise InvariantError(
                    f"cell {ci} ({serialize_stratum(cell.stratum, fc.complex)}) of "
                    f"dimension {cell.dim} has a maximal chain of {len(chain)} "
                    f"0-faces, expected {cell.dim + 1}"
                )
            if ci not in faces:
                maximal.append(tuple(sorted(vid[v] for v in chain)))
    return TriangulatedFiber(fc, tuple(vertices), tuple(sorted(maximal)))


def fiber_homology(tf: TriangulatedFiber, field: FieldSpec = F2) -> tuple[int, ...]:
    """Betti numbers of the triangulated fiber, degrees 0..max(1, fiber dim)."""
    K_t = build_complex([list(s) for s in tf.maximal_simplices])
    betti = list(betti_numbers(K_t, field))
    want = max(1, fiber_dimension(tf.fiber)) + 1
    while len(betti) < want:
        betti.append(0)
    return tuple(betti)


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


def boundary_circuits(tf: TriangulatedFiber) -> int:
    """Connected components of the edges lying on exactly one triangle."""
    if any(len(s) != 3 for s in tf.maximal_simplices):
        raise DomainError("boundary circuits need a pure 2-dimensional fiber")
    incidence: dict[tuple[int, int], int] = {}
    for a, b, c in tf.maximal_simplices:
        for e in ((a, b), (a, c), (b, c)):
            incidence[e] = incidence.get(e, 0) + 1
    boundary = [e for e, n in incidence.items() if n == 1]
    return len(_components({v for e in boundary for v in e}, boundary))


@dataclass(frozen=True)
class DimensionBoundRow:
    barcode_type: CombinatorialBarcode
    fiber_dim: int
    bounded_deficit: Fraction
    codim: int
    tight: bool


def check_dimension_bound(
    K: SimplicialComplex, records, field: FieldSpec = F2
) -> tuple[DimensionBoundRow, ...]:
    """Verify fiber_dim <= bounded deficit <= codim for each barcode record."""
    rows = []
    for rec in records:
        fc = fiber_complex(K, rec.barcode_type, field)
        d = fiber_dimension(fc)
        if not Fraction(d) <= rec.bounded_deficit <= Fraction(rec.codim):
            raise InvariantError(
                f"fiber over {format_barcode_type(rec.barcode_type)}: dimension {d} "
                f"<= bounded deficit {rec.bounded_deficit} <= codim {rec.codim} fails"
            )
        rows.append(
            DimensionBoundRow(
                barcode_type=rec.barcode_type,
                fiber_dim=d,
                bounded_deficit=rec.bounded_deficit,
                codim=rec.codim,
                tight=Fraction(d) == rec.bounded_deficit,
            )
        )
    return tuple(rows)
