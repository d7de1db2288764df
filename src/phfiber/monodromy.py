"""Monodromy maps between fibers induced by barcode degenerations.

A morphism class from type T to type T' acts on the fiber over T by
postcomposition of filters with its representative reparametrization. The
action carries each cell of the fiber onto a cell of the fiber over T',
projecting away the gaps whose two delimiting endpoints are identified.
"""
from __future__ import annotations

from dataclasses import dataclass

from .barcodes import ZERO, canonicalize_barcode, compose_endpoint_maps
from .category import MorphismClass, _class_of_map
from .errors import DomainError, InvariantError
from .fiber import FiberCell, FiberComplex
from .persistence import check_monotone, level_barcode
from .simplicial import SimplicialComplex
from .strata import FilterStratum, serialize_stratum


@dataclass(frozen=True)
class MonodromyMap:
    """The action of one morphism class on a pair of fibers.

    cell_map[i] is the target cell id of source cell i; vertex_map restricts
    it to the 0-cells. Collapsed cells are those whose image has strictly
    smaller dimension.
    """

    source: FiberComplex
    target: FiberComplex
    morphism: MorphismClass
    vertex_map: tuple[tuple[int, int], ...]
    cell_map: tuple[int, ...]

    @property
    def collapsed_cells(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, j in enumerate(self.cell_map)
            if self.target.cells[j].dim < self.source.cells[i].dim
        )

    @property
    def surviving_cells(self) -> tuple[int, ...]:
        collapsed = set(self.collapsed_cells)
        return tuple(i for i in range(len(self.cell_map)) if i not in collapsed)


def _image_stratum(cell: FiberCell, phi) -> FilterStratum:
    """Push a fiber cell forward along a simplicial endpoint map.

    Blocks sharing an image value merge; a free block keeps its gap when the
    gap's delimiters stay distinct and is pinned at their common image
    otherwise. Bucket order follows the target values: the pin at symbol t
    sits between the free blocks of gaps t-1 and t. Free blocks keep their
    source order, in which their gaps, and so their images, never decrease.
    """
    mp = phi.target_dim
    pins = dict.fromkeys(range(ZERO, mp + 2), 0)
    frees: list[tuple[int, int]] = []
    for block, (kind, pos) in zip(cell.stratum.blocks, cell.labels):
        if kind == "pin":
            pins[phi(pos)] |= block
        else:
            lo, hi = phi(pos), phi(pos + 1)
            if lo == hi:
                pins[lo] |= block
            else:
                frees.append((lo, block))
    blocks: list[int] = []
    for t in range(ZERO, mp + 2):
        if pins[t]:
            blocks.append(pins[t])
        elif 1 <= t <= mp:
            raise DomainError("image stratum misses a pinned endpoint")
        blocks.extend(b for g, b in frees if g == t)
    return FilterStratum(tuple(blocks), bool(pins[ZERO]), bool(pins[mp + 1]))


def _check_equivariant(fc: FiberComplex, target_type, phi) -> None:
    """Each 0-cell's levels pushed along phi are levels over the target type."""
    for i in fc.zero_cells():
        image = tuple(phi(s) for s in fc.cells[i].rank_vector)
        check_monotone(fc.complex, image)
        raw = level_barcode(fc.complex, image, fc.field)
        if canonicalize_barcode(raw, phi.target_dim + 1) != target_type:
            raise InvariantError(
                f"0-cell {i} ({serialize_stratum(fc.cells[i].stratum, fc.complex)}): "
                "the image of its filter does not lie over the target type"
            )


def _monodromy_tables(
    fc: FiberComplex, fc_target: FiberComplex, phi
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    cell_map = []
    for i, cell in enumerate(fc.cells):
        image = _image_stratum(cell, phi)
        j = fc_target.cell_index(image)
        collapsed = {
            g for g in range(fc.barcode_type.dim + 1) if phi(g) == phi(g + 1)
        }
        expected = tuple(
            k for g, k in enumerate(cell.gap_shape) if g not in collapsed
        )
        if fc_target.cells[j].gap_shape != expected:
            raise InvariantError(
                f"cell {i} ({serialize_stratum(cell.stratum, fc.complex)}) maps to "
                f"target cell {j} of gap shape {fc_target.cells[j].gap_shape}, "
                f"expected {expected}"
            )
        cell_map.append(j)
    vertex_map = tuple((i, cell_map[i]) for i in fc.zero_cells())
    return vertex_map, tuple(cell_map)


def monodromy_map(
    K: SimplicialComplex,
    fc: FiberComplex,
    fc_target: FiberComplex,
    c: MorphismClass,
) -> MonodromyMap:
    """The simplicial action of c's representative on the fiber over c.source.

    Each cell maps onto a cell of the target fiber; the image gap shape is
    the source shape with the collapsed gaps deleted, and every 0-cell's
    image filter is checked to lie over the target type.
    """
    if fc.complex != K or fc_target.complex != K:
        raise DomainError("fibers do not belong to the given complex")
    if fc.barcode_type != c.source or fc_target.barcode_type != c.target:
        raise DomainError("morphism class does not connect the fiber types")
    if fc.field != fc_target.field or fc.mode != fc_target.mode:
        raise DomainError("mismatched fibers")
    phi = c.representative
    if not phi.is_simplicial:
        raise DomainError("morphism representative is not simplicial")
    _check_equivariant(fc, c.target, phi)
    vertex_map, cell_map = _monodromy_tables(fc, fc_target, phi)
    return MonodromyMap(fc, fc_target, c, vertex_map, cell_map)


def compose_monodromies(m1: MonodromyMap, m2: MonodromyMap) -> MonodromyMap:
    """The composite action, checked against the composed representative.

    The tables of the composite are the composed tables; they must agree
    with the monodromy computed directly from the composition of the two
    representatives, which is the functoriality of the fiber construction.
    """
    if m2.source != m1.target:
        raise DomainError("mismatched fibers")
    fc, fc_target = m1.source, m2.target
    cell_map = tuple(m2.cell_map[j] for j in m1.cell_map)
    vertex_map = tuple((i, cell_map[i]) for i in fc.zero_cells())
    composed = compose_endpoint_maps(
        m2.morphism.representative, m1.morphism.representative
    )
    _, direct = _monodromy_tables(fc, fc_target, composed)
    for i, (j, k) in enumerate(zip(direct, cell_map)):
        if j != k:
            raise InvariantError(
                f"cell {i} ({serialize_stratum(fc.cells[i].stratum, fc.complex)}): "
                f"the composed representative maps it to cell {j}, the composed "
                f"tables to cell {k}"
            )
    cls = _class_of_map(fc.barcode_type, fc_target.barcode_type, composed)
    return MonodromyMap(fc, fc_target, cls, vertex_map, cell_map)
