"""Shared fixtures: standard complexes, named barcode types, golden counts."""

from fractions import Fraction

import pytest

import phfiber as ph
from phfiber.barcodes import ZERO
from phfiber.persistence import level_barcode
from phfiber.strata import FilterStratum, _closed_subsets, stratum_levels

# Barcode types of the hollow triangle, keyed by the shape of their fiber or
# the structure of their bars.
TYPE_STRINGS = {
    # codimension 0: two bounded component bars and the infinite pair
    "bars_disjoint": "0:(1,inf),(2,3),(4,5);1:(6,inf)",
    "bars_crossing": "0:(1,inf),(2,4),(3,5);1:(6,inf)",
    "bars_nested": "0:(1,inf),(2,5),(3,4);1:(6,inf)",
    # codimension 2: fiber is two disjoint circles
    "two_circles": "0:(1,inf),(2,3);1:(4,inf)",
    # codimension 3: fiber is one 18-gon circle
    "circle_shared_birth": "0:(1,2),(1,inf);1:(3,inf)",
    "circle_shared_death": "0:(1,inf),(2,3);1:(3,inf)",
    # codimension 4
    "mobius": "0:(1,inf);1:(2,inf)",
    "hexagon": "0:(1,2),(1,inf);1:(2,inf)",
    "twin_pairs": "0:(1,2),(1,2),(1,inf);1:(2,inf)",
    # codimension 5: the single most degenerate interior type
    "point": "0:(1,inf);1:(1,inf)",
}

# Fiber cell counts by dimension and Betti numbers of the triangulation.
FIBER_CENSUS = {
    "bars_disjoint": ({0: 12}, (12, 0)),
    "bars_crossing": ({0: 12}, (12, 0)),
    "bars_nested": ({0: 24}, (24, 0)),
    "two_circles": ({0: 48, 1: 48}, (2, 2)),
    "circle_shared_birth": ({0: 18, 1: 18}, (1, 1)),
    "circle_shared_death": ({0: 18, 1: 18}, (1, 1)),
    "mobius": ({0: 9, 1: 21, 2: 12}, (1, 1, 0)),
    "hexagon": ({0: 6, 1: 6}, (1, 1)),
    "twin_pairs": ({0: 1}, (1, 0)),
    "point": ({0: 1}, (1, 0)),
}

# Number of interior barcode strata of the triangle per codimension.
TRIANGLE_CODIM_COUNTS = {0: 3, 1: 9, 2: 11, 3: 7, 4: 3, 5: 1}


@pytest.fixture(scope="session")
def triangle():
    return ph.build_complex([[0, 1], [1, 2], [0, 2]])


@pytest.fixture(scope="session")
def interval():
    return ph.build_complex([[0, 1]])


@pytest.fixture(scope="session")
def path5():
    return ph.build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])


@pytest.fixture(scope="session")
def two_intervals():
    return ph.build_complex([[0, 1], [2, 3]])


@pytest.fixture(scope="session")
def wedge():
    return ph.build_complex([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]])


@pytest.fixture(scope="session")
def rp2():
    """Minimal RP^2: six vertices, ten triangles; H differs over F2 and F3."""
    triangles = "012 023 034 045 051 124 235 341 452 513".split()
    return ph.build_complex([[int(c) for c in t] for t in triangles])


@pytest.fixture(scope="session")
def types():
    return {k: ph.parse_barcode_type(v) for k, v in TYPE_STRINGS.items()}


@pytest.fixture(scope="session")
def triangle_records(triangle):
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    return ph.group_strata_by_barcode(triangle, strata)


@pytest.fixture(scope="session")
def triangle_fibers(triangle, triangle_records):
    return {
        ph.format_barcode_type(r.barcode_type): ph.fiber_complex(
            triangle, r.barcode_type
        )
        for r in triangle_records
    }


def random_monotone_filter(K, rng, denominator=64):
    """A random filter: raw values pushed up to the max over faces."""
    raw = {s: Fraction(rng.randrange(denominator + 1), denominator) for s in K.simplices}
    values = {}
    for s in K.simplices:
        v = raw[s]
        for f in s.facets():
            v = max(v, values[f])
        values[s] = v
    return ph.make_filter(K, values)


def block_masks(K, *blocks):
    """Stratum blocks as bitmasks over K's canonical ids, one per list of simplices."""
    return tuple(sum(1 << K.index[s] for s in set(block)) for block in blocks)


def block_simplices(K, mask):
    """The simplices of K in a block mask, in canonical order."""
    return [s for i, s in enumerate(K.simplices) if mask >> i & 1]


def rank_mod_p(rows, p):
    """Rank over F_p of a dense matrix given as a list of int rows."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def stratum_closure_leq(low, high):
    """True when `low` lies in the closure of `high`: the face-poset oracle.

    Closure passes to coarser strata: merge runs of consecutive blocks, where
    merging into the leading block may pin it at 0 and merging into the
    trailing block may pin it at 1. Pinned ends can never come unpinned.
    """
    if low.support() != high.support():
        raise ph.DomainError("strata live over different complexes")
    if high.at_zero and not low.at_zero:
        return False
    if high.at_one and not low.at_one:
        return False
    # Each block of high lies inside one block of low, at nondecreasing
    # positions t; low's blocks are disjoint, so a forward scan finds it.
    # With equal supports the first and last blocks of high then land in
    # the first and last blocks of low, so pinned ends stay pinned.
    lows, t = low.blocks, 0
    for h in high.blocks:
        while h & ~lows[t]:
            t += 1
            if t == len(lows):
                return False
    return True


def euler_recheck_cells(K, T, field=ph.F2, memo=None):
    """The fiber's cells over T by Euler-count pruning and a recheck of each leaf.

    The oracle for fiber_complex's exact walk. A partition is pruned as soon
    as a block's Euler count differs from the birth/death balance of the
    symbol it takes (0 when free), which is necessary but not sufficient, so
    each surviving leaf is rechecked on the level barcode of all of K. Its
    cell is read off its levels: level 0 is pinned at ZERO, the top level at
    ONE, an interior level that is an endpoint takes the next rank, and any
    other level is free in the gap after the last rank taken. Returns
    ({stratum: (gap shape, rank vector, labels)}, number of leaves rechecked).
    Next blocks and leaf barcodes depend on K alone, so calls on one K may
    share a memo dict.
    """
    m, one = T.dim, T.one
    chi = {s: 0 for s in range(ZERO, one + 1)}
    present = set()
    for q, deg in enumerate(T.degrees):
        for b, d in deg:
            chi[b] += (-1) ** q
            present.add(b)
            if d != T.inf:
                chi[d] -= (-1) ** q
                present.add(d)
    odd = sum(1 << i for i, s in enumerate(K.simplices) if s.dim % 2)
    full = (1 << len(K)) - 1
    leaves = set()
    memo = {} if memo is None else memo
    closed = memo.setdefault("closed", {})  # placed -> its closed next blocks
    rechecked = memo.setdefault("rechecked", {})  # (stratum, field) -> levels, bars

    def walk(placed, blocks, at_zero, rank):
        if placed not in closed:
            closed[placed] = _closed_subsets(K, full & ~placed, placed)
        for S in closed[placed]:
            c = (S & ~odd).bit_count() - (S & odd).bit_count()
            if rank == ZERO:
                moves = [(True, 1, False)] if c == chi[ZERO] else []
            else:
                moves = [(at_zero, rank, False)] if c == 0 else []
                if rank <= m and c == chi[rank]:
                    moves.append((at_zero, rank + 1, False))
            if placed | S != full:
                for z, r, _ in moves:
                    walk(placed | S, blocks + (S,), z, r)
                continue
            if rank > m and c == chi[one]:
                moves.append((at_zero, rank, True))
            for z, r, o in moves:
                if r > m and (o or one not in present):
                    leaves.add(FilterStratum(blocks + (S,), z, o))

    walk(0, (), False, ZERO if ZERO in present else 1)
    cells = {}
    for st in leaves:
        if (st, field) not in rechecked:
            levels = stratum_levels(K, st)
            rechecked[st, field] = levels, level_barcode(K, levels, field)
        levels, raw = rechecked[st, field]
        if ph.canonicalize_barcode(raw, st.interior_dim + 1) != T:
            continue
        endpoints = {e for deg in raw for bar in deg for e in bar}
        top = st.interior_dim + 1
        shape = [0] * (m + 1)
        labels = []
        rank = 0
        for level in range(int(not st.at_zero), int(not st.at_zero) + len(st.blocks)):
            if level == 0:
                labels.append(("pin", ZERO))
            elif level == top:
                labels.append(("pin", one))
            elif level in endpoints:
                rank += 1
                labels.append(("pin", rank))
            else:
                labels.append(("free", rank))
                shape[rank] += 1
        cells[st] = (tuple(shape), None if any(shape) else levels, tuple(labels))
    return cells, len(leaves)


COMPLEX_POOL = [
    [[0, 1]],
    [[0, 1], [1, 2]],
    [[0, 1], [2, 3]],
    [[0, 1], [1, 2], [0, 2]],
    [[0, 1, 2]],
    [[0, 1], [1, 2], [2, 3], [0, 3]],
    [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]],
    [[0, 1, 2], [1, 2, 3]],
    [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    [[0, 1, 2, 3]],
]
