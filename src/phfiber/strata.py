"""Strata of the space of monotone filters on a fixed complex.

Filters inducing the same ordered partition of the simplices (with the same
subsets pinned at the values 0 and 1) form one stratum; the space of filters
is the disjoint union of these strata. A stratum is recorded as its ordered
block sequence plus two flags saying whether the first block sits at 0 and
whether the last sits at 1. The unflagged blocks carry the stratum's interior
dimension, one free value each.

A block is a bitmask over the complex's canonical simplex ids (bit i set when
simplex i lies in the block). The enumeration here and the fiber's pruned
walk (fiber._fiber_strata) read one table of next blocks, _next_blocks,
with lower-star rows of its own, kept on K per mode as its rank tables are,
so every walk on K shares it; its order makes both walks meet the strata in
serialize_stratum order. Every consumer reads the masks; Simplex objects
appear only in the JSON documents.

A stratum's barcode type depends only on its block order, so it is read off
the barcode of its integer levels (stratum_levels, barcode_of_stratum);
representative_filter, the same levels over m + 1 as Fractions, is for the
API. The image types many strata at once off K's table of inclusion ranks
(persistence._rank_table): a stratum's type is fixed by its flags and the
ranks of H(P_i) -> H(P_j) between the unions P_i of its blocks (persistent
Betti numbers), read by inclusion-exclusion (persistence._rank_barcode).
The last row, the ranks into K, reads each P_i alone, so the type is fixed
before the last block, and each block prefix is typed once for all its flag
pairs (_prefix_bars, _shifted_types). image_records is the image: one walk
over the block table that carries unions, rows and prefix ids and builds a
stratum only for a type's top member. group_strata_by_barcode types strata
a caller built, with every block checked, and is the walk's oracle. The
fiber walk prunes on the same table. check_dimension_bound reads each
fiber's dimension off its record's top member, with no fiber built.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .barcodes import ZERO, CombinatorialBarcode, canonicalize_barcode, format_barcode_type
from .errors import DomainError, InvariantError
from .persistence import (
    INF,
    Filter,
    TotalBarcode,
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


def serialize_stratum(stratum: FilterStratum, K: SimplicialComplex | None) -> str:
    """Stable text id: canonical simplex ids of K per block, flags appended.

    The text reads the blocks and flags alone, so K may be None.
    """
    text = "|".join(".".join(map(str, mask_ids(b))) for b in stratum.blocks)
    return text + "+z" * stratum.at_zero + "+o" * stratum.at_one


def _closed_subsets(
    K: SimplicialComplex, remaining: int, placed: int, lower_star: bool = False
) -> list[int]:
    """Nonempty subsets S of `remaining` with all faces inside placed | S.

    Sets are bitmasks over canonical ids. Faces have smaller ids than their
    cofaces, so one ascending pass decides inclusion exactly: each subset
    built so far is extended by id i when i's faces lie in placed | subset.
    With lower_star only vertices branch: any other simplex joins each subset
    holding its faces, so S is a vertex set with every simplex it completes.
    """
    subsets = [0]
    for i in range(len(K)):
        if remaining >> i & 1:
            faces = K.face_masks[i]
            if lower_star and faces:
                subsets = [S | 1 << i if faces & ~(placed | S) == 0 else S for S in subsets]
            else:
                subsets += [S | 1 << i for S in subsets if faces & ~(placed | S) == 0]
    return subsets[1:]


def _next_blocks(K: SimplicialComplex, placed: int, lower_star: bool = False) -> list:
    """Each closed block after `placed` as (mask, Euler count).

    With lower_star, per nonempty set W of unplaced vertices, W with every
    unplaced simplex whose vertices are placed or in W, so each simplex falls
    in the block of its last vertex; `placed` must then be a union of such
    blocks, so it holds every simplex its vertices complete.

    Sorted by id text, plus "|" unless the block is the last one. These keys
    are prefix-free and a stratum's text is its blocks' keys, then its flags,
    so a depth-first walk in this order meets strata in serialize_stratum order.
    The lists are kept in K's block table for the mode, like its rank tables,
    so every walk on K shares them: table[placed] is the list after placed,
    and table[None] maps each block to its entry and id text, which depend on
    the block alone. The table holds ints and strings only, no reference to K.
    """
    table = K.block_tables[lower_star]
    blocks = table.get(placed)
    if blocks is None:
        full = (1 << len(K)) - 1
        known = table.setdefault(None, {})  # block -> (its entry, its id text)
        subsets = _closed_subsets(K, full & ~placed, placed, lower_star)
        for S in subsets:
            if S not in known:
                known[S] = (S, K.euler_count(S)), ".".join(map(str, mask_ids(S)))
        subsets.sort(key=lambda S: known[S][1] + "|" * (placed | S != full))
        blocks = table[placed] = [known[S][0] for S in subsets]
    return blocks


def is_lower_star_stratum(K: SimplicialComplex, stratum: FilterStratum) -> bool:
    """True when every filter of the stratum is a lower-star filter.

    Equivalent block criterion: each simplex of positive dimension lies in
    the same block as its last vertex, i.e. all its vertices are placed by
    its own block and at least one of them lies in it. The lower-star walks
    read _next_blocks' lower-star rows instead; this is their test oracle.
    Blocks that do not partition K raise stratum_levels' DomainError.
    """
    if not sum(stratum.blocks) == stratum.support() == (1 << len(K)) - 1:
        _reject(K, stratum)
    vertices = (1 << len(K.vertex_ids)) - 1  # vertices come first in id order
    placed = 0
    for block in stratum.blocks:
        placed |= block
        for i in mask_ids(block & ~vertices):
            own = K.face_masks[i] & vertices
            if own & ~placed or not own & block:
                return False
    return True


def _flag_pairs(mode: str) -> tuple[list, list]:
    """The end flags of a mode's strata, in text order ("", "+o", "+z",
    "+z+o"): for strata of several blocks, and for a lone block, which
    cannot be pinned at both ends."""
    if mode not in MODES:
        raise DomainError(f"unknown stratum mode {mode!r}, expected one of {MODES}")
    flags = [(False, False)]
    if mode == "all":
        flags += [(False, True), (True, False), (True, True)]
    return flags, [f for f in flags if f != (True, True)]


def enumerate_filter_strata(
    K: SimplicialComplex, mode: str = "all"
) -> tuple[FilterStratum, ...]:
    """All filter strata of K in serialize_stratum order: a walk over _next_blocks.

    mode "interior_only" keeps both end flags off; "lower_star" walks the
    lower-star rows, vertex sets with the simplices they complete, with
    the flags off: exactly the lower-star strata; "all" is everything.
    Every node has one last block, the rest of K, which the walk turns into
    its strata in place, one per flag pair, all sharing one blocks tuple.
    """
    flags, lone = _flag_pairs(mode)
    lower_star = mode == "lower_star"
    table = K.block_tables[lower_star]
    full = (1 << len(K)) - 1
    out: list[FilterStratum] = []

    def walk(placed: int, blocks: tuple[int, ...]) -> None:
        kids = table.get(placed)
        if kids is None:
            kids = _next_blocks(K, placed, lower_star)
        for S, _ in kids:
            B = placed | S
            if B != full:
                walk(B, blocks + (S,))
                continue
            leaf = blocks + (S,)
            for z, o in flags if blocks else lone:
                out.append(_trusted_stratum(leaf, z, o))

    walk(0, ())
    del walk  # its closure holds walk: break the cycle, which would keep K alive
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
    """One barcode stratum of the image, with its member filter strata.

    top_member is the first member, in member order, of the largest
    interior_dim. A stratum of type T is a cell of T's fiber with
    interior_dim - T.dim free blocks (T.dim of its unpinned blocks take the
    ranks 1..T.dim), so it is a top cell of the fiber when the members hold
    every top cell of the fiber:
    - all-mode groups qualify, because a type's group is its whole fiber;
    - interior groups qualify, because an interior type has no endpoint at
      0 or 1. So no cell is pinned at 0, and a cell pinned at 1 is a facet of
      the same blocks with the last one free.
    Lower-star groups miss the top cells: the check-bounds command replaces
    their top member by the first largest cell of the type's all-mode fiber.
    """

    barcode_type: CombinatorialBarcode
    member_ids: tuple[int, ...]
    codim: int
    bounded_deficit: Fraction
    top_member: FilterStratum


@dataclass(frozen=True)
class DimensionBoundRow:
    barcode_type: CombinatorialBarcode
    fiber_dim: int
    bounded_deficit: Fraction
    codim: int
    tight: bool


def check_dimension_bound(
    records: Iterable[BarcodeStratumRecord],
) -> tuple[DimensionBoundRow, ...]:
    """Verify fiber dim <= bounded deficit <= codim for each barcode record.

    The fiber's dimension is its record's top member's interior_dim minus
    T.dim, with no fiber built; it is exact when the top member is a top
    cell of the fiber (see BarcodeStratumRecord).
    """
    rows = []
    for rec in records:
        T = rec.barcode_type
        top = rec.top_member
        d = top.interior_dim - T.dim
        if not Fraction(d) <= rec.bounded_deficit <= Fraction(rec.codim):
            raise InvariantError(
                f"fiber over {format_barcode_type(T)}: top member "
                f"{serialize_stratum(top, None)} has dimension {d}, and {d} <= "
                f"bounded deficit {rec.bounded_deficit} <= codim {rec.codim} fails"
            )
        rows.append(
            DimensionBoundRow(
                barcode_type=T,
                fiber_dim=d,
                bounded_deficit=rec.bounded_deficit,
                codim=rec.codim,
                tight=Fraction(d) == rec.bounded_deficit,
            )
        )
    return tuple(rows)


def group_strata_by_barcode(
    K: SimplicialComplex,
    strata: Iterable[FilterStratum],
    field: FieldSpec = F2,
) -> tuple[BarcodeStratumRecord, ...]:
    """Group strata by barcode type, sorted by (codimension, type string).

    For strata the caller built; image_records types a mode's strata from
    one walk, and this is its oracle. Member ids are positions in `strata`.
    Each stratum's type is that of barcode_of_stratum, read off ranks
    instead of a reduction of all of K. A filtration P_1 < ... < P_k = K has
    its barcode, in block indices, fixed by the ranks of H(P_i) -> H(P_j)
    (persistent Betti numbers), and its type by that barcode and the flags.
    The last row, the ranks into K, reads each P_i alone, so each block
    prefix but the whole stratum gets an id interned from its parent's id
    and its row: the rank ids of H(P_i) -> H(P_j) for its unions P_i, then
    that of H(P_j) -> H(K) (see _prefix_bars). They come from K's rank table
    (persistence._rank_table), which keeps them per complex and field, fills
    a missing row by one reduction of P_j, or of K over the stratum's whole
    chain for a missing rank into K, and gives equal rank vectors one small
    id. Strata with the same id for their first k - 1 blocks and the same
    flags share one type. A stratum reuses the prefix ids of the blocks it
    shares with the one before it, so strata in walk order (as
    enumerate_filter_strata gives them) get one row per block prefix; one
    whose blocks are the same tuple object as the previous stratum's (the
    walk's flag variants) skips even the scan for the shared blocks.
    Each new block is checked as stratum_levels would: inside the ids of K
    and disjoint from the placed blocks, then holding its faces with them,
    and the last block must cover every id; a failure raises stratum_levels'
    DomainError.
    """
    full = (1 << len(K)) - 1
    table = _rank_table(K, field)
    into = table.into
    last = into.setdefault(full, {})  # P -> the rank id of H(P) -> H(K)
    closures: dict[int, int] = {}  # block -> the union of its ids' face masks
    interned: dict[tuple, int] = {}  # (parent prefix id, row) -> prefix id
    prev: tuple[int, ...] = ()  # the previous stratum's blocks, each checked
    unions: list[int] = []  # the union of its first j blocks, per j
    rows: list[tuple] = []  # the row of its first j blocks, per j < k
    pids: list[int] = [-1]  # the id of its first j blocks, per j < k from 0
    bars: dict[int, TotalBarcode] = {}  # prefix id -> bars in block indices
    members: dict[tuple, list[int]] = {}  # (prefix id, flags) -> its type's group
    groups: dict[CombinatorialBarcode, list[int]] = {}
    tops: dict[CombinatorialBarcode, FilterStratum] = {}  # type -> its top member
    for i, st in enumerate(strata):
        new = st.blocks
        if new is not prev:  # flag variants share their blocks' tuple
            k = 0
            for old, S in zip(prev, new):
                if old != S:
                    break
                k += 1
            del unions[k:], rows[k:], pids[k + 1 :]
            before = unions[-1] if unions else 0
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
                before = B
            if before != full:
                _reject(K, st)
            pid = pids[-1]
            for j in range(len(rows), len(new) - 1):
                B, chain = unions[j], unions[: j + 1]
                r = last.get(B)
                if r is None:
                    r = table.fill(K, field, unions)[j]
                try:
                    row = (*map(into[B].__getitem__, chain), r)
                except KeyError:
                    row = (*table.fill(K, field, chain), r)
                rows.append(row)
                pid = interned.setdefault((pid, row), len(interned))
                pids.append(pid)
            prev = new
        key = (pids[-1], st.at_zero, st.at_one)
        group = members.get(key)
        if group is None:
            b = bars.get(key[0])
            if b is None:
                b = bars[key[0]] = _prefix_bars(K, field, rows)
            (T,) = _shifted_types(b, len(rows) + 1, [key[1:]])
            group = members[key] = groups.setdefault(T, [])
            if T not in tops or st.interior_dim > tops[T].interior_dim:
                tops[T] = st  # a key's strata share their interior_dim
        group.append(i)
    return _records(K, groups, tops)


def image_records(
    K: SimplicialComplex, mode: str = "all", field: FieldSpec = F2
) -> tuple[BarcodeStratumRecord, ...]:
    """group_strata_by_barcode(K, enumerate_filter_strata(K, mode), field),
    from one walk that builds a stratum only for a new top member.

    The walk is enumerate_filter_strata's, over K's block table for the
    mode, and a member id is the position at which that walk meets the
    stratum. Each node carries its union, its row and its prefix id, read
    as group_strata_by_barcode reads them, so a stratum's type is fixed at
    the node before its last block: each prefix id is typed once for all
    its flag pairs, and each stratum is one position appended to its group.
    A type's top member is rebuilt from the unions on the path when a
    prefix id's flag pair improves it. Where a rank into K is missing, the
    table fills it by one reduction of K over the chain of the node's first
    stratum, the one its leftmost children give, as grouping the enumeration
    fills it from that stratum.
    """
    flags, lone = _flag_pairs(mode)
    lower_star = mode == "lower_star"
    block_table = K.block_tables[lower_star]
    full = (1 << len(K)) - 1
    table = _rank_table(K, field)
    into = table.into
    last = into.setdefault(full, {})  # P -> the rank id of H(P) -> H(K)
    interned: dict[tuple, int] = {}  # (parent prefix id, row) -> prefix id
    unions: list[int] = []  # per block on the path, the union up to it
    rows: list[tuple] = []  # per block on the path, its row
    typed: dict[int, list] = {}  # prefix id -> per flag pair, its type's group
    groups: dict[CombinatorialBarcode, list[int]] = {}
    tops: dict[CombinatorialBarcode, FilterStratum] = {}  # type -> its top member
    pos = 0

    def walk(placed: int, pid: int) -> None:
        nonlocal pos
        kids = block_table.get(placed)
        if kids is None:
            kids = _next_blocks(K, placed, lower_star)
        for S, _ in kids:
            B = placed | S
            if B == full:  # the last block: one stratum per flag pair
                per_flags = typed.get(pid)
                if per_flags is None:
                    b = _prefix_bars(K, field, rows)
                    pairs = flags if rows else lone
                    types = _shifted_types(b, len(rows) + 1, pairs)
                    per_flags = typed[pid] = [groups.setdefault(T, []) for T in types]
                    for T, (z, o) in zip(types, pairs):
                        if T not in tops or len(rows) + 1 - z - o > tops[T].interior_dim:
                            ends = zip([0, *unions], [*unions, full])
                            tops[T] = _trusted_stratum(tuple(B ^ A for A, B in ends), z, o)
                for group in per_flags:
                    group.append(pos)
                    pos += 1
                continue
            unions.append(B)
            r = last.get(B)
            if r is None:
                chain, P = unions[:], B
                while P != full:
                    P |= _next_blocks(K, P, lower_star)[0][0]
                    chain.append(P)
                r = table.fill(K, field, chain)[len(unions) - 1]
            try:
                row = (*map(into[B].__getitem__, unions), r)
            except KeyError:
                row = (*table.fill(K, field, unions), r)
            rows.append(row)
            walk(B, interned.setdefault((pid, row), len(interned)))
            rows.pop()
            unions.pop()

    walk(0, -1)
    del walk  # its closure holds walk: break the cycle, which would keep K alive
    return _records(K, groups, tops)


def _records(
    K: SimplicialComplex,
    groups: dict[CombinatorialBarcode, list[int]],
    tops: dict[CombinatorialBarcode, FilterStratum],
) -> tuple[BarcodeStratumRecord, ...]:
    """One record per type, sorted by (codimension, type string)."""
    records = [
        BarcodeStratumRecord(
            barcode_type=T,
            member_ids=tuple(ids),
            codim=len(K) - T.dim,
            bounded_deficit=bounded_deficit(K, T),
            top_member=tops[T],
        )
        for T, ids in groups.items()
    ]
    records.sort(key=lambda r: (r.codim, format_barcode_type(r.barcode_type)))
    return tuple(records)


def _prefix_bars(K: SimplicialComplex, field: FieldSpec, rows: list) -> TotalBarcode:
    """The bars, in block indices 1..k, of the strata whose first k - 1
    blocks have these rows in K's rank table.

    rows[j - 1] holds the rank ids of H(P_i) -> H(P_j) for i <= j, then
    that of H(P_j) -> H(K), for the unions P_j of the first j blocks; the
    last row of the strata, the ranks into P_k = K, is the last entries
    and the rank of H(K) -> H(K), read off K's Betti numbers.
    """
    full = (1 << len(K)) - 1
    table = _rank_table(K, field)
    top = table.into[full].get(full)
    if top is None:  # no row into K read yet: one reduction of K alone
        (top,) = table.fill(K, field, [full])
    vectors = table.vectors
    rank_rows = [[vectors[r] for r in row[:-1]] for row in rows]
    rank_rows.append([vectors[row[-1]] for row in rows] + [vectors[top]])
    return _rank_barcode(rank_rows)


def _shifted_types(bars: TotalBarcode, k: int, flags: Iterable) -> list[CombinatorialBarcode]:
    """barcode_of_stratum for each flag pair of the strata of k blocks whose
    bars in block indices are `bars` (sorted, as persistence._rank_barcode
    gives them).

    Block i sits at level i - at_zero, as stratum_levels puts it, so block 1
    is ZERO when pinned at 0, block k is ONE when pinned at 1, the other
    endpoint blocks take the ranks 1..m in order, and INF is m + 2. This is
    canonicalize_barcode of the shifted levels; the map keeps the order of
    the bars, and they are valid by construction, so the types are built
    unchecked.
    """
    ends = sorted({e for deg in bars for bar in deg for e in bar if e != INF})
    while bars and not bars[-1]:
        bars = bars[:-1]
    types = []
    for at_zero, at_one in flags:
        symbol = {}
        m = 0
        for e in ends:
            if at_zero and e == 1:
                symbol[e] = ZERO
            elif at_one and e == k:  # the largest endpoint, after every rank
                symbol[e] = m + 1
            else:
                m += 1
                symbol[e] = m
        symbol[INF] = m + 2
        degrees = tuple(tuple([(symbol[b], symbol[d]) for b, d in deg]) for deg in bars)
        types.append(_trusted_barcode(m, degrees))
    return types


def _trusted_barcode(dim: int, degrees: tuple) -> CombinatorialBarcode:
    """CombinatorialBarcode(dim, degrees) without its checks, for types
    built valid by construction (_shifted_types)."""
    T = object.__new__(CombinatorialBarcode)
    T.__dict__.update(dim=dim, degrees=degrees)
    return T


def _reject(K: SimplicialComplex, stratum: FilterStratum) -> None:
    """Raise stratum_levels' DomainError for a stratum that failed a block check."""
    stratum_levels(K, stratum)
    raise InvariantError(
        f"stratum {serialize_stratum(stratum, K)} failed a block check "
        "that stratum_levels passes"
    )
