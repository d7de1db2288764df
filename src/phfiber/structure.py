"""Removable subsets, essential complexes, lower-star filters, symmetries.

A subset of simplices is removable when deleting it leaves a subcomplex whose
inclusion induces an isomorphism on homology; a complex with no nonempty
removable subset is essential. Removing R is allowed exactly when the
relative cohomology H*(K, K - R) vanishes, and the essentiality search reads
that off the rank of K's coboundary restricted to R (de Silva, Morozov and
Vejdemo-Johansson, Dualities in persistent (co)homology, Inverse Problems 27,
2011): the defect d(R) = |R| - 2 rank is its total dimension. The search
grows coface-closed sets one simplex at a time, so each set adds one column
to its parent's reduced coboundary, and it drops a set once neither d nor the
Euler count, |chi| <= d, can still reach 0. is_removable reads removability
off one 0/1 filter's barcode of K instead. Lower-star filters are the filters
determined by their vertex values. The automorphism group of the complex
acts on every fiber by permuting cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
# every set it builds and does not drop (_removable_masks), removable or not.
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
    nonzero count rules the removal out before any column reduction. Their
    total is the defect d(R) that the essentiality search carries
    (_removable_masks), so |chi(R)| <= d(R), and this test, which reduces
    all of K, is is_removable's and the search's oracle, not its step.

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


def _coboundaries(K: SimplicialComplex, p: int) -> list[tuple]:
    """Per simplex x, its coboundary column over F_p and the column's lead,
    the bit of its lowest row (0 for a zero column).

    The column holds the cofaces y of x one dimension up, with the
    coefficient (-1) ** i of x as facet i of y: an int bitmask of the y over
    F2, a dict y -> coefficient mod p otherwise, scaled so that its lead
    coefficient is 1. Over F2 a reduction step is one XOR of bitmasks; with
    dicts there the search took twice as long on the torus and on rp2. Each
    search reads its own table, as no caller searches one complex twice.
    """
    n, facet_ids = len(K), K.facet_ids
    if p == 2:
        cols = [0] * n
        for y, ids in enumerate(facet_ids):
            for x in ids:
                cols[x] |= 1 << y
        return [(col, col & -col) for col in cols]
    signed: list[dict[int, int]] = [{} for _ in range(n)]
    for y, ids in enumerate(facet_ids):
        for i, x in enumerate(ids):
            signed[x][y] = -1 if i & 1 else 1
    cob = []
    for col in signed:
        if col:
            low = min(col)  # its coefficient, +-1, is its own inverse
            cob.append(({y: c * col[low] % p for y, c in col.items()}, 1 << low))
        else:
            cob.append((col, 0))
    return cob


def _reduce_f2(col: int, lead: int, pivots: int, basis: tuple) -> tuple[int, int]:
    """col, whose lead is one of the pivots of the basis chain, reduced
    against the chain over F2; the reduced column and its lead (both 0 when
    it reduces to zero). Each step finds the link holding the lead by
    walking the chain, which is no longer than the rank."""
    while True:
        link = basis
        while link[1] != lead:
            link = link[3]
        col ^= link[2]
        lead = col & -col
        if not pivots & lead:
            return col, lead


def _reduce_mod_p(
    col: dict, lead: int, pivots: int, basis: tuple, p: int
) -> tuple[dict, int]:
    """As _reduce_f2, over F_p, on sparse columns (rows -> coefficients)
    whose lead coefficients are 1; the reduced column is scaled to keep that."""
    col = dict(col)
    while True:
        link = basis
        while link[1] != lead:
            link = link[3]
        factor = col[lead.bit_length() - 1]
        for r, c in link[2].items():
            v = (col.get(r, 0) - factor * c) % p
            if v:
                col[r] = v
            else:
                del col[r]
        if not col:
            return col, 0
        row = min(col)
        lead = 1 << row
        if not pivots & lead:
            unit = pow(col[row], -1, p)
            return {r: c * unit % p for r, c in col.items()}, lead


def _removable_masks(
    K: SimplicialComplex, field: FieldSpec, budget: int
) -> Iterator[int]:
    """Masks of the nonempty removable subsets, in (size, mask) order.

    Only coface-closed subsets have subcomplex complements. The sets form a
    tree: each set's parent is the set minus its lowest id, which is
    coface-closed too, since faces have smaller ids than their cofaces. A set
    M with lowest id l grows only by its candidates, the ids x < l whose
    cofaces with id >= l lie in M, and its children are M plus one candidate
    with no coface below l; no set arises twice. A child's candidates are its
    parent's below it, less the faces of the ids between it and l.

    Removing R is allowed when H(K, K - R) = 0 (_inclusion_is_iso). Over a
    field that holds when the relative cohomology vanishes; the relative
    cochains have basis R, and since R is coface-closed their coboundary is
    K's coboundary restricted to R. So the defect d(R) = |R| - 2 rank of that
    restriction is the total relative Betti number, and R is removable
    exactly when d(R) = 0. A child M + x adds one column, the coboundary of
    x, and a zero row (x is a coface of nothing in M); its rank is M's plus 1
    when that column reduces to nonzero against M's reduced columns, so each
    addition moves d by +-1 (de Silva, Morozov and Vejdemo-Johansson,
    Dualities in persistent (co)homology, Inverse Problems 27, 2011, reduce
    coboundaries in place of boundaries). A column's pivot is its lowest
    row. Each kept set carries its reduced columns as a chain: its parent's
    chain, plus a link holding the new column when it is independent, so no
    basis is copied.

    Two bounds drop a set with its whole subtree (branch and bound): d can
    reach 0 only when d(M) is at most M's count of candidates, and the Euler
    count, which satisfies |chi| <= d, can reach 0 only when it lies between
    chi(M) minus the odd candidates and chi(M) plus the even ones. A child
    is reduced only when both bounds can still keep it, and the scan for
    M's children stops once too few candidates are left for any further
    child to meet the defect bound.

    The children of M lie between M and M plus its lowest bit, and any larger
    mask of M's size lies past that, so building from the kept parents in
    mask order, each through its children in increasing order, keeps every
    level sorted. Each kept set is counted, and yielded when d = 0, as it is
    built, so a size is built only as far as the caller reads; past `budget`
    kept sets, DomainError.
    """
    n, odd, faces, p = len(K), K.odd_mask, K.face_masks, field.characteristic
    even = (1 << n) - 1 & ~odd
    cob = _coboundaries(K, p)
    reduce = _reduce_f2 if p == 2 else partial(_reduce_mod_p, p=p)
    # per kept set: mask, Euler count, candidates, defect, basis chain; a
    # chain link is (the leads of its columns, as one mask, lead, column,
    # parent link)
    level = [(0, 0, (1 << n) - 1, 0, None)]
    count = size = 0
    while level:
        size += 1
        kept = []
        for mask, chi, live, d, basis in level:
            kids = []
            pivots = basis[0] if basis else 0
            # ids below the lowest set bit, downward; every id below the empty
            # set. At x, live holds the candidates <= x with no coface between
            # x and that bit, so x makes a child exactly when it is in live.
            # A child's defect, d +- 1, must not exceed its candidate count,
            # one less than live's at x. So the scan stops once fewer than d
            # ids (or none) are live, and every child it reaches with an
            # independent column passes the defect bound.
            need = d or 1
            low = (mask & -mask).bit_length() - 1 if mask else n
            for x in range(low - 1, -1, -1):
                bit = 1 << x
                if live & bit:
                    below = live & (bit - 1)
                    c = chi - 1 if odd & bit else chi + 1
                    if c - (below & odd).bit_count() <= 0 <= c + (below & even).bit_count():
                        col, lead = cob[x]
                        if pivots & lead:
                            col, lead = reduce(col, lead, pivots, basis)
                        if lead:
                            link = (pivots | lead, lead, col, basis)
                            kids.append((mask | bit, c, below, d - 1, link))
                        elif d < below.bit_count():
                            kids.append((mask | bit, c, below, d + 1, basis))
                live &= ~faces[x] & (bit - 1)
                if live.bit_count() < need:
                    break
            for kid in reversed(kids):
                count += 1
                if count > budget:
                    raise DomainError(
                        "too large for exhaustive essentiality: more than "
                        f"{budget} coface-closed subsets kept by size {size}; raise --budget"
                    )
                if not kid[3]:
                    yield kid[0]
                kept.append(kid)
        level = kept


def find_removable_subset(
    K: SimplicialComplex, field: FieldSpec = F2, budget: int = DEFAULT_BUDGET
) -> tuple[Simplex, ...] | None:
    """First nonempty removable subset in (size, mask) order, or None.

    A removable subset's complement is a subcomplex, so it is coface-closed.
    The walk (_removable_masks) yields the coface-closed sets whose defect
    d(R) = |R| - 2 rank of K's coboundary restricted to R is 0, which are
    exactly the removable ones, and drops every set whose subtree can reach
    neither d = 0 nor Euler count 0, |chi| <= d. It reduces at most one
    coboundary column per set it builds, against its parent's reduced
    columns, and never reduces K. All of K is never yielded: its defect is
    the sum of its Betti numbers, at least 1. `budget` bounds the sets the
    walk keeps, removable or not; past it, DomainError. A budget below 1 is
    a DomainError.
    """
    if budget < 1:
        raise DomainError(f"essentiality budget must be at least 1, got {budget}")
    for mask in _removable_masks(K, field, budget):
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
