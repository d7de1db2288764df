"""Fibers of the persistence map, as explicit polyhedral complexes.

The fiber over a barcode type T is assembled from the filter strata whose
barcode is T. Each such stratum is one closed cell, affinely a product of
simplices: writing the pinned symbols in value order as ZERO < 1 < ... < m <
ONE, the free blocks falling strictly between consecutive pinned symbols form
the gaps, and a gap with k free blocks contributes a k-simplex factor. The
face relation is stratum coarsening, so the whole complex is combinatorial;
no coordinates beyond symbol rank vectors are ever needed.

Candidates come from the strata walker (strata._walk_partitions) with an
Euler-count step: a partial partition is pruned as soon as a block's Euler
count differs from the birth/death balance of the symbol it takes (0 when the
block is free). A surviving leaf's block masks are its stratum's blocks, so
cells, their facets and the monodromy images are all built on masks. They are
rechecked on the barcode of their integer levels (strata.stratum_levels), and
one pass over a survivor's block levels builds its cell: a block is pinned
when its level is 0, the top level or an endpoint, and free otherwise. A
0-cell's levels are its symbols, so its rank vector is its levels.

The face relation is built locally. The codimension-1 coarsenings of a
stratum are the merges of two adjacent blocks (the OR of their masks) and the
pinning of the first block at 0 or of the last block at 1; those that are
cells of the fiber are the cell's facets. Cells are sorted by dimension, so one pass in that order
collects every cell's faces as its facets together with their faces. The
triangulation takes its maximal simplices from the cells that are no other
cell's face.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator

from .barcodes import ZERO, CombinatorialBarcode, canonicalize_barcode, format_barcode_type
from .errors import DomainError, InvariantError
from .persistence import Filter, TotalBarcode, betti_numbers, level_barcode
from .simplicial import F2, FieldSpec, SimplicialComplex, build_complex
from .strata import (
    FilterStratum,
    _walk_partitions,
    bounded_deficit,
    is_lower_star_stratum,
    serialize_stratum,
    stratum_levels,
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


def _symbol_events(T: CombinatorialBarcode) -> tuple[dict[int, int], set[int]]:
    """Per finite symbol: Euler count of births minus deaths, and presence."""
    chi: dict[int, int] = {s: 0 for s in range(ZERO, T.one + 1)}
    present: set[int] = set()
    for p, deg in enumerate(T.degrees):
        sign = (-1) ** p
        for b, d in deg:
            chi[b] += sign
            present.add(b)
            if d != T.inf:
                chi[d] -= sign
                present.add(d)
    return chi, present


def _candidate_strata(K: SimplicialComplex, T: CombinatorialBarcode) -> list[FilterStratum]:
    """Monotone partitions that could map to T, by Euler-count pruning.

    Every block entering at a pinned symbol must change the sublevel Euler
    characteristic by that symbol's birth/death balance, and blocks at free
    values must not change it at all. These conditions are necessary, so the
    survivors are rechecked against the exact barcode by the caller.

    The walk's state is (at_zero, next symbol to pin, at_one). The first block
    is pinned at 0 exactly when ZERO is present, since it holds a vertex; a
    last block pinned at 1 may carry no events, when its births and deaths
    cancel.
    """
    m, one = T.dim, T.one
    chi, present = _symbol_events(T)
    odd = sum(1 << i for i, s in enumerate(K.simplices) if s.dim % 2)
    full = (1 << len(K)) - 1

    def step(state, placed, S):
        at_zero, rank, _ = state
        c = (S & ~odd).bit_count() - (S & odd).bit_count()
        if rank == ZERO:
            moves = [(True, 1, False)] if c == chi[ZERO] else []
        else:
            moves = [(at_zero, rank, False)] if c == 0 else []
            if rank <= m and c == chi[rank]:
                moves.append((at_zero, rank + 1, False))
        if placed | S != full:
            return moves
        # The last block: all ranks are placed, and a present ONE is pinned.
        if rank > m and c == chi[one]:
            moves.append((at_zero, rank, True))
        return [st for st in moves if st[1] > m and (st[2] or one not in present)]

    start = (False, ZERO if ZERO in present else 1, False)
    leaves = {(b, z, o) for b, (z, _, o) in _walk_partitions(K, step, start)}
    return [FilterStratum(b, z, o) for b, z, o in leaves]


def _fiber_cell(
    stratum: FilterStratum, levels: tuple[int, ...], raw: TotalBarcode, T: CombinatorialBarcode
) -> FiberCell:
    """The cell of a stratum over T, read off its block levels in one pass.

    Level 0 is pinned at ZERO and level m + 1 at ONE, for the interior
    dimension m. An interior level that is an endpoint of the level barcode
    raw takes the next rank; any other level is free, in the gap after the
    last rank taken. A 0-cell's levels are its rank vector.
    """
    endpoints = {e for deg in raw for bar in deg for e in bar}
    top = stratum.interior_dim + 1
    first = 0 if stratum.at_zero else 1
    shape = [0] * (T.dim + 1)
    labels = []
    rank = 0
    for level in range(first, first + len(stratum.blocks)):
        if level == 0:
            labels.append(("pin", ZERO))
        elif level == top:
            labels.append(("pin", T.one))
        elif level in endpoints:
            rank += 1
            labels.append(("pin", rank))
        else:
            labels.append(("free", rank))
            shape[rank] += 1
    return FiberCell(stratum, tuple(shape), None if any(shape) else levels, tuple(labels))


def _facet_strata(stratum: FilterStratum) -> Iterator[FilterStratum]:
    """The codimension-1 coarsenings: merge two adjacent blocks, or pin an end.

    None of them may leave a single block pinned at both 0 and 1.
    """
    blocks, z, o = stratum.blocks, stratum.at_zero, stratum.at_one
    n = len(blocks)
    if not (n == 2 and z and o):
        for i in range(n - 1):
            merged = blocks[:i] + (blocks[i] | blocks[i + 1],) + blocks[i + 2 :]
            yield FilterStratum(merged, z, o)
    if not z and not (n == 1 and o):
        yield FilterStratum(blocks, True, o)
    if not o and not (n == 1 and z):
        yield FilterStratum(blocks, z, True)


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
    cells = []
    for st in _candidate_strata(K, T):
        if mode == "lower_star" and not is_lower_star_stratum(K, st):
            continue
        levels = stratum_levels(K, st)
        raw = level_barcode(K, levels, field)
        if canonicalize_barcode(raw, st.interior_dim + 1) == T:
            cells.append(_fiber_cell(st, levels, raw, T))
    if not cells:
        raise DomainError("empty fiber")
    cells.sort(key=lambda c: (c.dim, serialize_stratum(c.stratum, K)))

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
