"""Strata of the space of monotone filters on a fixed complex.

Filters inducing the same ordered partition of the simplices (with the same
subsets pinned at the values 0 and 1) form one stratum; the space of filters
is the disjoint union of these strata. A stratum is recorded as its ordered
block sequence plus two flags saying whether the first block sits at 0 and
whether the last sits at 1. The unflagged blocks carry the stratum's interior
dimension, one free value each.

A block is a bitmask over the complex's canonical simplex ids (bit i set when
simplex i lies in the block). The enumeration here and the fiber's pruned
walk (fiber._fiber_strata) read one table of next blocks, _next_blocks, whose
order makes both meet the strata in serialize_stratum order. Every consumer
reads the masks; Simplex objects appear only in the JSON documents.

A stratum's barcode type depends only on its block order, so it is read off
the barcode of its integer levels (stratum_levels, barcode_of_stratum);
representative_filter, the same levels over m + 1 as Fractions, is for the
API. group_strata_by_barcode, which types many strata at once, reads each
type off K's table of inclusion ranks (persistence._rank_table): a stratum's
type is fixed by its flags and the ranks of H(P_i) -> H(P_j) between the
unions P_i of its first blocks (persistent Betti numbers), read by
inclusion-exclusion (persistence._rank_barcode). The fiber walk prunes on
the same table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .barcodes import CombinatorialBarcode, canonicalize_barcode, format_barcode_type
from .errors import DomainError, InvariantError
from .persistence import (
    Filter,
    _rank_barcode,
    _rank_table,
    check_monotone,
    level_barcode,
)
from .simplicial import F2, FieldSpec, SimplicialComplex

MODES = ("all", "interior_only", "lower_star")


@dataclass(frozen=True, slots=True)
class FilterStratum:
    """An ordered monotone set partition of the simplices, with end flags.

    Each block is a positive int, the bitmask of its canonical simplex ids.
    The constructor checks that; the walks build their strata, valid by
    construction, with _trusted_stratum.
    """

    blocks: tuple[int, ...]
    at_zero: bool = False
    at_one: bool = False

    def __post_init__(self) -> None:
        if not self.blocks or any(type(b) is not int or b <= 0 for b in self.blocks):
            raise DomainError(
                "stratum blocks must be nonempty bitmasks over canonical simplex ids "
                f"(positive ints), got {self.blocks!r}"
            )
        if len(self.blocks) == 1 and self.at_zero and self.at_one:
            raise DomainError("a single block cannot be pinned at both 0 and 1")

    @property
    def interior_dim(self) -> int:
        return len(self.blocks) - int(self.at_zero) - int(self.at_one)

    def support(self) -> int:
        """The union of the blocks, as a mask."""
        mask = 0
        for b in self.blocks:
            mask |= b
        return mask


_set_blocks = FilterStratum.blocks.__set__
_set_at_zero = FilterStratum.at_zero.__set__
_set_at_one = FilterStratum.at_one.__set__


def _trusted_stratum(blocks: tuple[int, ...], at_zero: bool, at_one: bool) -> FilterStratum:
    """FilterStratum(blocks, at_zero, at_one) without its checks.

    For the walks' own strata only: each block is a nonempty mask they took
    from _next_blocks or merged from two such, and they never pin a lone
    block at both ends. Writing the slots directly skips the frozen
    dataclass's __init__ and __post_init__.
    """
    st = object.__new__(FilterStratum)
    _set_blocks(st, blocks)
    _set_at_zero(st, at_zero)
    _set_at_one(st, at_one)
    return st


def mask_ids(mask: int) -> list[int]:
    """The ids of the set bits of a mask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def serialize_stratum(stratum: FilterStratum, K: SimplicialComplex) -> str:
    """Stable text id: canonical simplex ids of K per block, flags appended."""
    text = "|".join(".".join(map(str, mask_ids(b))) for b in stratum.blocks)
    return text + "+z" * stratum.at_zero + "+o" * stratum.at_one


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


def _next_blocks(K: SimplicialComplex, placed: int, memo: dict) -> list:
    """Each closed block after `placed` as (mask, Euler count), in memo[placed].

    Sorted by id text, plus "|" unless the block is the last one. These keys
    are prefix-free and a stratum's text is its blocks' keys, then its flags,
    so a depth-first walk in this order meets strata in serialize_stratum order.
    A block's entry and id text depend on the block alone, so memo[None] keeps
    them, built once per walk.
    """
    if placed not in memo:
        full = (1 << len(K)) - 1
        known = memo.setdefault(None, {})  # block -> (its entry, its id text)
        subsets = _closed_subsets(K, full & ~placed, placed)
        for S in subsets:
            if S not in known:
                known[S] = (S, K.euler_count(S)), ".".join(map(str, mask_ids(S)))
        subsets.sort(key=lambda S: known[S][1] + "|" * (placed | S != full))
        memo[placed] = [known[S][0] for S in subsets]
    return memo[placed]


def is_lower_star_stratum(K: SimplicialComplex, stratum: FilterStratum) -> bool:
    """True when every filter of the stratum is a lower-star filter.

    Equivalent block criterion: each simplex of positive dimension lies in
    the same block as its last vertex, i.e. all its vertices are placed by
    its own block and at least one of them lies in it.
    """
    placed = 0
    for block in stratum.blocks:
        if not _is_lower_star_block(K, placed, block):
            return False
        placed |= block
    return True


def _is_lower_star_block(K: SimplicialComplex, placed: int, block: int) -> bool:
    """is_lower_star_stratum's test of one block placed after the ids of `placed`."""
    vertices = (1 << len(K.vertex_ids)) - 1  # vertices come first in id order
    for i in mask_ids(block & ~vertices):
        own = K.face_masks[i] & vertices
        if own & ~(placed | block) or not own & block:
            return False
    return True


def enumerate_filter_strata(
    K: SimplicialComplex, mode: str = "all"
) -> tuple[FilterStratum, ...]:
    """All filter strata of K in serialize_stratum order: a walk over _next_blocks.

    mode "interior_only" keeps both end flags off; "lower_star" keeps the
    flagless strata of lower-star filters, cutting each branch at its first
    block that fails is_lower_star_stratum's test; "all" is everything.
    """
    if mode not in MODES:
        raise DomainError(f"unknown stratum mode {mode!r}, expected one of {MODES}")
    flags = [(False, False)]
    if mode == "all":  # in text order: "", "+o", "+z", "+z+o"
        flags += [(False, True), (True, False), (True, True)]
    lone = [f for f in flags if f != (True, True)]  # one block cannot be pinned at both ends
    full = (1 << len(K)) - 1
    memo: dict = {}
    out: list[FilterStratum] = []
    children = _next_blocks
    if mode == "lower_star":
        kept: dict[int, list] = {}  # placed -> its children that pass the test

        def children(K: SimplicialComplex, placed: int, memo: dict) -> list:
            if placed not in kept:
                kept[placed] = [
                    entry
                    for entry in _next_blocks(K, placed, memo)
                    if _is_lower_star_block(K, placed, entry[0])
                ]
            return kept[placed]

    def walk(placed: int, blocks: tuple[int, ...]) -> None:
        if placed == full:  # one record per flag pair, all sharing blocks
            for z, o in flags if len(blocks) > 1 else lone:
                out.append(_trusted_stratum(blocks, z, o))
            return
        for S, _ in children(K, placed, memo):
            walk(placed | S, blocks + (S,))

    walk(0, ())
    return tuple(out)


def stratum_levels(K: SimplicialComplex, stratum: FilterStratum) -> tuple[int, ...]:
    """Per simplex in canonical order, the value position of its block.

    A block pinned at 0 has level 0 and the next blocks 1, 2, ..., so a block
    pinned at 1 has level m + 1 for the interior dimension m. These are the
    values of representative_filter times m + 1.
    """
    # The blocks partition the ids exactly when their union is every id and
    # their sum equals their union; overlapping blocks sum to more.
    if not sum(stratum.blocks) == stratum.support() == (1 << len(K)) - 1:
        raise DomainError("stratum does not partition the simplices of this complex")
    levels = [0] * len(K)
    for level, block in enumerate(stratum.blocks, 0 if stratum.at_zero else 1):
        for i in mask_ids(block):
            levels[i] = level
    check_monotone(K, levels)
    return tuple(levels)


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

    Member ids are positions in `strata`. Each stratum's type is that of
    barcode_of_stratum, read off ranks instead of a reduction of all of K.
    A filtration P_1 < ... < P_k = K has its barcode, in block indices, fixed
    by the ranks of H(P_i) -> H(P_j) (persistent Betti numbers), and its type
    by that barcode and the flags. So each block prefix gets an id interned
    from its parent's id and its row of rank ids (rank(P_1, P_k), ...,
    rank(P_k, P_k)), read from K's rank table (persistence._rank_table),
    which keeps them per complex and field, fills a row with a missing rank
    by one reduction of P_k and gives equal rank vectors one small id.
    Strata with the same prefix id and flags share one type, which
    persistence._rank_barcode reads off the prefix's rows and the flags
    shift to levels as stratum_levels does. A stratum reuses the prefix ids
    of the blocks it shares with the one before it, so strata in walk order
    (as enumerate_filter_strata gives them) get one row per block prefix;
    one whose blocks are the same tuple object as the previous stratum's
    (the walk's flag variants) skips even the scan for the shared blocks.
    Each new block is checked as stratum_levels would: inside the ids of K
    and disjoint from the placed blocks, then holding its faces with them,
    and the last block must cover every id; a failure raises stratum_levels'
    DomainError.
    """
    full = (1 << len(K)) - 1
    table = _rank_table(K, field)
    vectors = table.vectors  # rank id -> ranks per degree
    closures: dict[int, int] = {}  # block -> the union of its ids' face masks
    interned: dict[tuple, int] = {}  # (parent prefix id, row) -> prefix id
    prev: tuple[int, ...] = ()  # the previous stratum's blocks, each checked
    unions: list[int] = []  # the union of its first k blocks, per k
    rows: list[tuple] = []  # the row of rank ids of its first k blocks, per k
    pids: list[int] = [-1]  # the id of its first k blocks, per k from 0
    members: dict[tuple, list[int]] = {}  # (prefix id, flags) -> its type's group
    groups: dict[CombinatorialBarcode, list[int]] = {}
    for i, st in enumerate(strata):
        new = st.blocks
        if new is not prev:  # flag variants share their blocks' tuple
            k = 0
            for old, S in zip(prev, new):
                if old != S:
                    break
                k += 1
            del unions[k:], rows[k:], pids[k + 1 :]
            pid = pids[k]
            before = unions[k - 1] if k else 0
            for S in new[k:]:
                B = before | S
                if S & (before | ~full):
                    _reject(K, st)
                faces = closures.get(S)
                if faces is None:
                    faces = 0
                    for j in mask_ids(S):
                        faces |= K.face_masks[j]
                    closures[S] = faces
                if faces & ~B:
                    _reject(K, st)
                unions.append(B)
                into = table.into.get(B)
                row = []
                if into is not None:
                    for A in unions:
                        r = into.get(A)
                        if r is None:
                            break
                        row.append(r)
                if len(row) < len(unions):
                    row = table.fill(K, field, unions)
                row = tuple(row)
                rows.append(row)
                pid = interned.setdefault((pid, row), len(interned))
                pids.append(pid)
                before = B
            if before != full:
                _reject(K, st)
            prev = new
        key = (pids[-1], st.at_zero, st.at_one)
        group = members.get(key)
        if group is None:
            rank_rows = [[vectors[r] for r in row] for row in rows]
            T = _type_of_rank_rows(rank_rows, st.at_zero, st.at_one)
            group = members[key] = groups.setdefault(T, [])
        group.append(i)
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


def _type_of_rank_rows(rows: list, at_zero: bool, at_one: bool) -> CombinatorialBarcode:
    """barcode_of_stratum for the stratum whose block unions have these rows.

    rows are persistence._rank_barcode's: rows[j - 1][i - 1] holds the ranks
    of H(P_i) -> H(P_j) per degree. The bars they give in block indices are
    shifted to levels as stratum_levels does: block 1 is level 0 when pinned
    at 0, else 1.
    """
    z = at_zero
    bars = _rank_barcode(rows)
    levels = tuple(tuple((b - z, d - z) for b, d in deg) for deg in bars)
    return canonicalize_barcode(levels, len(rows) - z - at_one + 1)


def _reject(K: SimplicialComplex, stratum: FilterStratum) -> None:
    """Raise stratum_levels' DomainError for a stratum that failed a block check."""
    stratum_levels(K, stratum)
    raise InvariantError(
        f"stratum {serialize_stratum(stratum, K)} failed a block check "
        "that stratum_levels passes"
    )
