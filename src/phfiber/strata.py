"""Strata of the space of monotone filters on a fixed complex.

Filters inducing the same ordered partition of the simplices (with the same
subsets pinned at the values 0 and 1) form one stratum; the space of filters
is the disjoint union of these strata. A stratum is recorded as its ordered
block sequence plus two flags saying whether the first block sits at 0 and
whether the last sits at 1. The unflagged blocks carry the stratum's interior
dimension, one free value each.

Strata are enumerated by one walker over block bitmasks on canonical ids,
which the fiber's candidate search also runs with a pruning step; masks become
frozensets of Simplex objects only when a FilterStratum is returned.

A stratum's barcode type depends only on its block order, so it is read off
the barcode of its integer levels (stratum_levels); representative_filter,
the same levels over m + 1 as Fractions, is for the API.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .barcodes import CombinatorialBarcode, canonicalize_barcode, format_barcode_type
from .errors import DomainError
from .persistence import Filter, check_monotone, level_barcode
from .simplicial import F2, FieldSpec, Simplex, SimplicialComplex

MODES = ("all", "interior_only", "lower_star")


@dataclass(frozen=True)
class FilterStratum:
    """An ordered monotone set partition of the simplices, with end flags."""

    blocks: tuple[frozenset[Simplex], ...]
    at_zero: bool = False
    at_one: bool = False

    def __post_init__(self) -> None:
        if not self.blocks or any(not b for b in self.blocks):
            raise DomainError("stratum blocks must be nonempty")
        if len(self.blocks) == 1 and self.at_zero and self.at_one:
            raise DomainError("a single block cannot be pinned at both 0 and 1")

    @property
    def interior_dim(self) -> int:
        return len(self.blocks) - int(self.at_zero) - int(self.at_one)

    def block_of(self) -> dict[Simplex, int]:
        return {s: i for i, b in enumerate(self.blocks) for s in b}

    def support(self) -> frozenset[Simplex]:
        return frozenset(s for b in self.blocks for s in b)


def serialize_stratum(stratum: FilterStratum, K: SimplicialComplex) -> str:
    """Stable text id: canonical simplex ids per block, flags appended."""
    parts = [
        ".".join(str(i) for i in sorted(K.index[s] for s in block))
        for block in stratum.blocks
    ]
    text = "|".join(parts)
    if stratum.at_zero:
        text += "+z"
    if stratum.at_one:
        text += "+o"
    return text


def _closed_subsets(K: SimplicialComplex, remaining: int, placed: int) -> list[int]:
    """Nonempty subsets S of `remaining` with all faces inside placed | S.

    Sets are bitmasks over canonical ids. Faces have smaller ids than their
    cofaces, so one ascending pass decides inclusion exactly: each subset
    built so far is extended by id i when i's faces lie in placed | subset.
    """
    subsets = [0]
    for i in range(len(K)):
        if remaining >> i & 1:
            faces = K.face_masks[i]
            subsets += [S | 1 << i for S in subsets if faces & ~(placed | S) == 0]
    return subsets[1:]


def _walk_partitions(
    K: SimplicialComplex, step=lambda state, placed, S: (state,), state=None
) -> Iterator[tuple[tuple[int, ...], object]]:
    """Ordered set partitions of K compatible with the face order, as block masks.

    step(state, placed, S) gives the states reached by appending the closed
    block S after the blocks whose union is `placed`; a branch with no state
    is pruned. Yields each complete partition with the state it ended in.
    """
    full = (1 << len(K)) - 1
    stack = [(0, (), state)]
    while stack:
        placed, blocks, state = stack.pop()
        if placed == full:
            yield blocks, state
            continue
        for S in _closed_subsets(K, full & ~placed, placed):
            for nxt in step(state, placed, S):
                stack.append((placed | S, blocks + (S,), nxt))


def _strata_from_masks(
    K: SimplicialComplex, leaves: Iterable[tuple[tuple[int, ...], bool, bool]]
) -> Iterator[FilterStratum]:
    """FilterStrata from (block masks, at_zero, at_one); equal masks share one block."""
    blocks: dict[int, frozenset[Simplex]] = {}
    for masks, at_zero, at_one in leaves:
        for mask in masks:
            if mask not in blocks:
                blocks[mask] = frozenset(
                    s for i, s in enumerate(K.simplices) if mask >> i & 1
                )
        yield FilterStratum(tuple(blocks[m] for m in masks), at_zero, at_one)


def is_lower_star_stratum(stratum: FilterStratum) -> bool:
    """True when every filter of the stratum is a lower-star filter.

    Equivalent block criterion: each simplex of positive dimension lies in
    the same block as its last vertex, i.e. every non-vertex simplex shares
    its block with at least one of its own vertices.
    """
    block_of = stratum.block_of()
    for block in stratum.blocks:
        for s in block:
            if s.dim > 0:
                top = max(block_of[Simplex((v,))] for v in s.vertices)
                if top != block_of[s]:
                    return False
    return True


def enumerate_filter_strata(
    K: SimplicialComplex, mode: str = "all"
) -> tuple[FilterStratum, ...]:
    """All filter strata of K, in a deterministic canonical order.

    mode "interior_only" keeps both end flags off; "lower_star" keeps the
    flagless strata of lower-star filters; "all" is everything.
    """
    if mode not in MODES:
        raise DomainError(f"unknown stratum mode {mode!r}, expected one of {MODES}")
    flags = [(False, False)]
    if mode == "all":
        flags += [(True, False), (False, True), (True, True)]
    leaves = (
        (masks, at_zero, at_one)
        for masks, _ in _walk_partitions(K)
        for at_zero, at_one in flags
        if not (at_zero and at_one and len(masks) == 1)
    )
    out = [
        st
        for st in _strata_from_masks(K, leaves)
        if mode != "lower_star" or is_lower_star_stratum(st)
    ]
    out.sort(key=lambda st: serialize_stratum(st, K))
    return tuple(out)


def stratum_levels(K: SimplicialComplex, stratum: FilterStratum) -> tuple[int, ...]:
    """Per simplex in canonical order, the value position of its block.

    A block pinned at 0 has level 0 and the next blocks 1, 2, ..., so a block
    pinned at 1 has level m + 1 for the interior dimension m. These are the
    values of representative_filter times m + 1.
    """
    first = 0 if stratum.at_zero else 1
    level = {s: first + i for i, block in enumerate(stratum.blocks) for s in block}
    if level.keys() != K.index.keys():
        raise DomainError("stratum does not partition the simplices of this complex")
    levels = tuple(level[s] for s in K.simplices)
    check_monotone(K, levels)
    return levels


def representative_filter(K: SimplicialComplex, stratum: FilterStratum) -> Filter:
    """The evenly spaced filter of the stratum: 0, 1/(m+1), ..., m/(m+1), 1."""
    m = stratum.interior_dim
    return Filter(K, tuple(Fraction(v, m + 1) for v in stratum_levels(K, stratum)))


def barcode_of_stratum(
    K: SimplicialComplex, stratum: FilterStratum, field: FieldSpec = F2
) -> CombinatorialBarcode:
    """Combinatorial barcode type shared by every filter of the stratum."""
    levels = stratum_levels(K, stratum)
    return canonicalize_barcode(level_barcode(K, levels, field), stratum.interior_dim + 1)


def stratum_closure_leq(low: FilterStratum, high: FilterStratum) -> bool:
    """True when `low` lies in the closure of `high`.

    Closure passes to coarser strata: merge runs of consecutive blocks, where
    merging into the leading block may pin it at 0 and merging into the
    trailing block may pin it at 1. Pinned ends can never come unpinned.
    """
    if low.support() != high.support():
        raise DomainError("strata live over different complexes")
    if high.at_zero and not low.at_zero:
        return False
    if high.at_one and not low.at_one:
        return False
    low_of = low.block_of()
    prev = 0
    for hi_pos, block in enumerate(high.blocks):
        targets = {low_of[s] for s in block}
        if len(targets) != 1:
            return False
        t = targets.pop()
        if t < prev:
            return False
        prev = t
        if high.at_zero and hi_pos == 0 and t != 0:
            return False
        if high.at_one and hi_pos == len(high.blocks) - 1 and t != len(low.blocks) - 1:
            return False
    return True


def bounded_deficit(K: SimplicialComplex, T: CombinatorialBarcode) -> Fraction:
    """Half the simplices not accounted for by a finite endpoint of T."""
    return Fraction(len(K) - T.finite_endpoint_count(), 2)


@dataclass(frozen=True)
class BarcodeStratumRecord:
    """One barcode stratum of the image, with its member filter strata."""

    barcode_type: CombinatorialBarcode
    member_ids: tuple[int, ...]
    codim: int
    bounded_deficit: Fraction


def group_strata_by_barcode(
    K: SimplicialComplex,
    strata: Iterable[FilterStratum],
    field: FieldSpec = F2,
) -> tuple[BarcodeStratumRecord, ...]:
    """Group strata by barcode type, sorted by (codimension, type string).

    Each stratum's type is the canonical barcode of its levels, computed once,
    in enumeration order, by the one column-reduction kernel.
    """
    groups: dict[CombinatorialBarcode, list[int]] = {}
    for i, st in enumerate(strata):
        groups.setdefault(barcode_of_stratum(K, st, field), []).append(i)
    records = [
        BarcodeStratumRecord(
            barcode_type=T,
            member_ids=tuple(ids),
            codim=len(K) - T.dim,
            bounded_deficit=bounded_deficit(K, T),
        )
        for T, ids in groups.items()
    ]
    records.sort(key=lambda r: (r.codim, format_barcode_type(r.barcode_type)))
    return tuple(records)
