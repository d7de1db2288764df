"""Removable subsets, essential complexes, lower-star filters, symmetries.

A subset of simplices is removable when deleting it leaves a subcomplex whose
inclusion induces an isomorphism on homology; a complex with no nonempty
removable subset is essential. Lower-star filters are the filters determined
by their vertex values. The automorphism group of the complex acts on every
fiber by permuting cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import DomainError
from .fiber import FiberComplex, _components
from .persistence import INF, Filter, level_barcode, make_filter
from .simplicial import (
    F2,
    FieldSpec,
    Simplex,
    SimplicialComplex,
    apply_permutation,
    automorphisms,
    is_automorphism,
)
from .strata import FilterStratum, mask_ids

# The most coface-closed subsets the essentiality search may keep, counting
# every set it builds and does not drop (_zero_count_masks), count 0 or not.
DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class RemovabilityReport:
    """Outcome of testing one subset of simplices for removability."""

    subset: tuple[Simplex, ...]
    is_subcomplex_complement: bool
    homology_preserved: bool

    @property
    def removable(self) -> bool:
        return self.is_subcomplex_complement and self.homology_preserved


def _inclusion_is_iso(K: SimplicialComplex, removed: int, field: FieldSpec) -> bool:
    """True when including the complement of the removed mask is a homology iso.

    By the long exact sequence of the pair, the inclusion of sub = K minus R
    is an isomorphism exactly when H(K, sub) = 0. The relative chains have
    the removed simplices R as a basis, so the alternating sum of the
    relative Betti numbers is the Euler count of R over every field, and a
    nonzero count rules the removal out before any column reduction.

    Otherwise filter K by level 0 on sub and 1 on R; is_removable's
    closedness check is exactly the monotonicity of these levels. Their
    barcode is the interval decomposition of the map H(sub) -> H(K): a (0, 1)
    bar is a class of sub that dies in K (the kernel), a (1, inf) bar a class
    of K not coming from sub (the cokernel), and a (0, inf) bar a class
    mapped isomorphically. So the inclusion is an isomorphism exactly when
    every bar is (0, inf).
    """
    if K.euler_count(removed):
        return False
    levels = tuple(removed >> i & 1 for i in range(len(K)))
    return all(
        birth == 0 and death == INF
        for bars in level_barcode(K, levels, field)
        for birth, death in bars
    )


def is_removable(
    K: SimplicialComplex, subset: Iterable[Simplex], field: FieldSpec = F2
) -> RemovabilityReport:
    """Test whether deleting the subset preserves the homology of K."""
    chosen = set(subset)
    for s in chosen:
        if s not in K:
            raise DomainError(f"subset simplex {s} is not in the complex")
    removed = sum(1 << K.index[s] for s in chosen)
    ordered = tuple(K.simplices[i] for i in mask_ids(removed))
    full = (1 << len(K)) - 1
    if removed == full:
        return RemovabilityReport(ordered, True, False)
    if any(K.face_masks[j] & removed for j in mask_ids(full & ~removed)):
        return RemovabilityReport(ordered, False, False)
    if not removed:
        return RemovabilityReport(ordered, True, True)
    return RemovabilityReport(ordered, True, _inclusion_is_iso(K, removed, field))


def _zero_count_masks(K: SimplicialComplex, budget: int) -> Iterator[int]:
    """Masks of the nonempty coface-closed subsets with Euler count 0, in
    (size, mask) order.

    Only coface-closed subsets have subcomplex complements, and only those
    with count 0 can be removable (_inclusion_is_iso). The sets form a tree:
    each set's parent is the set minus its lowest id, which is coface-closed
    too, since faces have smaller ids than their cofaces. A set M with lowest
    id l grows only by its candidates, the ids x < l whose cofaces with id
    >= l lie in M, and its children are M plus one candidate with no coface
    below l; no set arises twice. So the Euler count of every set in M's
    subtree lies between chi(M) minus its odd candidates and chi(M) plus its
    even ones, and when 0 lies outside that range the walk drops M with its
    whole subtree (branch and bound). A child's candidates are its parent's
    below it, less the faces of the ids between it and l.

    The children of M lie between M and M plus its lowest bit, and any larger
    mask of M's size lies past that, so building from the kept parents in
    mask order, each through its children in increasing order, keeps every
    level sorted. A size is built only once the last one was consumed, and
    only as far as the budget reaches; past `budget` kept sets, DomainError.
    """
    n, odd, faces = len(K), K.odd_mask, K.face_masks
    level = [(0, 0, (1 << n) - 1)]  # per kept set: mask, Euler count, candidates
    count = size = 0
    while True:
        kept = []
        for mask, chi, live in level:
            kids = []
            # ids below the lowest set bit, downward; every id below the empty
            # set. At x, live holds the candidates <= x with no coface between
            # x and that bit, so x makes a child exactly when it is in live.
            low = (mask & -mask).bit_length() - 1 if mask else n
            for x in range(low - 1, -1, -1):
                bit = 1 << x
                if live & bit:
                    below = live & (bit - 1)
                    c = chi - 1 if odd & bit else chi + 1
                    if c - (below & odd).bit_count() <= 0 <= c + (below & ~odd).bit_count():
                        kids.append((mask | bit, c, below))
                live &= ~faces[x] & (bit - 1)
                if not live:
                    break
            kept += reversed(kids)
            if len(kept) > budget - count:
                break
        if not kept:
            return
        level = kept
        size += 1
        for mask, chi, _ in level:
            count += 1
            if count > budget:
                raise DomainError(
                    "too large for exhaustive essentiality: more than "
                    f"{budget} coface-closed subsets kept by size {size}; raise --budget"
                )
            if not chi:
                yield mask


def find_removable_subset(
    K: SimplicialComplex, field: FieldSpec = F2, budget: int = DEFAULT_BUDGET
) -> tuple[Simplex, ...] | None:
    """First nonempty removable subset in (size, mask) order, or None.

    A removable subset has Euler count 0, since it is a basis of the relative
    chains of a pair with no relative homology (_inclusion_is_iso), and its
    complement is a subcomplex, so it is coface-closed. The walk
    (_zero_count_masks) drops every coface-closed set whose subtree cannot
    reach count 0 and yields the rest of count 0 in (size, mask) order, so
    the first witness is unchanged; each is reduced, and removing all of K
    never counts. `budget` bounds the sets the walk keeps, count 0 or not;
    past it, DomainError. A budget below 1 is a DomainError.
    """
    if budget < 1:
        raise DomainError(f"essentiality budget must be at least 1, got {budget}")
    full = (1 << len(K)) - 1
    for mask in _zero_count_masks(K, budget):
        if mask != full and _inclusion_is_iso(K, mask, field):
            return tuple(K.simplices[i] for i in mask_ids(mask))
    return None


def is_essential(
    K: SimplicialComplex, field: FieldSpec = F2, budget: int = DEFAULT_BUDGET
) -> bool:
    """True when the complex has no nonempty removable subset."""
    return find_removable_subset(K, field, budget) is None


def lower_star_extension(
    K: SimplicialComplex, vertex_values: Mapping[int, object]
) -> Filter:
    """The filter sending each simplex to the max of its vertex values."""
    unknown = sorted(set(vertex_values) - set(K.vertex_ids))
    if unknown:
        raise DomainError(f"value given for unknown vertex {unknown[0]}")
    missing = [v for v in K.vertex_ids if v not in vertex_values]
    if missing:
        raise DomainError(f"no value for vertex {missing[0]}")
    values = {s: max(vertex_values[v] for v in s.vertices) for s in K.simplices}
    return make_filter(K, values)


def symmetry_action_on_fiber(
    fc: FiberComplex, perm: Mapping[int, int]
) -> tuple[int, ...]:
    """Cell permutation induced by f -> f o s^{-1} for an automorphism s.

    Block i of the image stratum is s applied to block i, flags unchanged, so
    the barcode type is preserved and the fiber's cells are permuted with
    0-cells going to 0-cells.
    """
    K = fc.complex
    if not is_automorphism(K, perm):
        raise DomainError("permutation is not an automorphism of the complex")
    image = [K.index[apply_permutation(perm, s)] for s in K.simplices]
    out = []
    for cell in fc.cells:
        st = cell.stratum
        blocks = tuple(sum(1 << image[i] for i in mask_ids(b)) for b in st.blocks)
        out.append(fc.cell_index(FilterStratum(blocks, st.at_zero, st.at_one)))
    return tuple(out)


def fiber_symmetry_orbits(fc: FiberComplex) -> tuple[tuple[int, ...], ...]:
    """Orbits of the fiber's cells under all automorphisms of the complex."""
    pairs = (
        (i, j)
        for perm in automorphisms(fc.complex)
        for i, j in enumerate(symmetry_action_on_fiber(fc, perm))
    )
    return tuple(_components(range(len(fc.cells)), pairs))
