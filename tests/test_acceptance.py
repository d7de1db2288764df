"""End-to-end checks of the worked examples, one printed line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see every line; without -s the
lines of failing criteria still appear in the captured output.
"""

import itertools
import random
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import phfiber as ph
from phfiber import INF
from phfiber.fiber import boundary_circuits, fiber_dimension
from phfiber.monodromy import monodromy_map
from phfiber.strata import FilterStratum, check_dimension_bound

from conftest import (
    COMPLEX_POOL,
    TYPE_STRINGS,
    block_masks,
    block_simplices,
    random_monotone_filter,
    stratum_closure_leq,
)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_triangle_stratum_counts():
    start = time.perf_counter()
    K = ph.build_complex([[0, 1], [1, 2], [0, 2]])
    strata = ph.enumerate_filter_strata(K, "interior_only")
    records = ph.group_strata_by_barcode(K, strata)
    injective = sum(1 for st in strata if all(b.bit_count() == 1 for b in st.blocks))
    top = sum(1 for r in records if r.codim == 0)
    elapsed = time.perf_counter() - start
    ok = injective == 48 and top == 3 and len(records) == 34 and elapsed < 10
    _report(
        1,
        ok,
        f"48 injective={injective}, 3 top={top}, 34 types={len(records)}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_point_fiber_cardinalities(triangle_fibers):
    sizes = {}
    for name in ("bars_disjoint", "bars_crossing", "bars_nested"):
        fc = triangle_fibers[TYPE_STRINGS[name]]
        assert all(c.dim == 0 for c in fc.cells)
        sizes[name] = len(fc.cells)
    ok = sizes == {"bars_disjoint": 12, "bars_crossing": 12, "bars_nested": 24}
    _report(2, ok, f"vertex counts {sizes}")


def test_criterion_03_fiber_betti_numbers(triangle_fibers):
    got = {}
    for name in (
        "two_circles",
        "circle_shared_birth",
        "circle_shared_death",
        "mobius",
        "hexagon",
        "point",
    ):
        fc = triangle_fibers[TYPE_STRINGS[name]]
        got[name] = ph.fiber_homology(fc)
    mobius = triangle_fibers[TYPE_STRINGS["mobius"]]
    two_cells = sum(1 for c in mobius.cells if c.dim == 2)
    circuits = boundary_circuits(mobius)
    ok = (
        got["two_circles"] == (2, 2)
        and got["circle_shared_birth"] == (1, 1)
        and got["circle_shared_death"] == (1, 1)
        and got["hexagon"] == (1, 1)
        and got["mobius"] == (1, 1, 0)
        and got["point"] == (1, 0)
        and two_cells == 12
        and circuits == 1
    )
    _report(3, ok, f"betti {got}, mobius 2-cells {two_cells}, circuits {circuits}")


def test_criterion_04_fiber_edge_counts(triangle_fibers):
    counts = {
        name: sum(
            1 for c in triangle_fibers[TYPE_STRINGS[name]].cells if c.dim == 1
        )
        for name in ("two_circles", "circle_shared_birth", "circle_shared_death")
    }
    ok = counts == {
        "two_circles": 48,
        "circle_shared_birth": 18,
        "circle_shared_death": 18,
    }
    _report(4, ok, f"edge counts {counts}")


def test_criterion_05_circle_monodromy_collapses(
    triangle, triangle_fibers, types
):
    src = triangle_fibers[TYPE_STRINGS["circle_shared_death"]]
    results = {}
    for name in ("mobius", "hexagon"):
        cls_list = ph.enumerate_morphism_classes(
            types["circle_shared_death"], types[name]
        )
        mm = monodromy_map(
            triangle, src, triangle_fibers[TYPE_STRINGS[name]], cls_list[0]
        )
        results[name] = (len(cls_list), len(mm.collapsed_cells))
    edges = sum(1 for c in src.cells if c.dim == 1)
    ok = edges == 18 and results == {"mobius": (1, 12), "hexagon": (1, 6)}
    _report(
        5,
        ok,
        f"of {edges} edges, collapse counts (classes, collapsed) {results}, "
        "expected (1, 12) into the Moebius fiber and (1, 6) into the hexagon",
    )


def test_criterion_06_dimension_bound_sweep(triangle_records):
    rows = check_dimension_bound(triangle_records)
    bounds_hold = all(
        Fraction(r.fiber_dim) <= r.bounded_deficit <= Fraction(r.codim)
        for r in rows
    )
    loose = [
        ph.format_barcode_type(r.barcode_type) for r in rows if not r.tight
    ]
    ok = bounds_hold and loose == [TYPE_STRINGS["point"]]
    _report(6, ok, f"34 rows, bounds hold={bounds_hold}, non-tight={loose}")


def test_criterion_07_interval_fibers(interval):
    fc1 = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,inf),(2,3)"))
    fc2 = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,2),(1,inf)"))
    fc3 = ph.fiber_complex(interval, ph.parse_barcode_type("0:(1,inf)"))
    counts1 = Counter(c.dim for c in fc1.cells)
    counts2 = Counter(c.dim for c in fc2.cells)
    betti3 = ph.fiber_homology(fc3)
    ok = (
        counts1 == {0: 2}
        and counts2 == {0: 1}
        and fiber_dimension(fc3) == 1
        and betti3 == (1, 0)
    )
    _report(
        7,
        ok,
        f"two points {dict(counts1)}, one point {dict(counts2)}, "
        f"connected 1-dim betti {betti3}",
    )


def test_criterion_08_path_square_cell(path5):
    sx = {s.vertices: s for s in path5.simplices}
    st = FilterStratum(
        block_masks(
            path5,
            [sx[(0,)]],
            [sx[(1,)], sx[(0, 1)]],
            [sx[(3,)]],
            [sx[(2,)], sx[(1, 2)], sx[(2, 3)]],
            [sx[(4,)], sx[(3, 4)]],
        ),
        True,
        False,
    )
    T = ph.barcode_of_stratum(path5, st)
    fc = ph.fiber_complex(path5, T)
    cell = fc.cells[fc.cell_index(st)]
    ok = (
        ph.format_barcode_type(T) == "0:(zero,inf),(1,2)"
        and cell.gap_shape == (1, 0, 1)
        and cell.dim == 2
    )
    _report(
        8,
        ok,
        f"type {ph.format_barcode_type(T)}, gap shape {cell.gap_shape}, "
        f"dim {cell.dim} = 5 blocks - 3 pinned",
    )


def test_criterion_09_lower_star_triangle(triangle):
    strata = ph.enumerate_filter_strata(triangle, "lower_star")
    records = ph.group_strata_by_barcode(triangle, strata)
    fibers = {
        ph.format_barcode_type(r.barcode_type): ph.fiber_complex(
            triangle, r.barcode_type, mode="lower_star"
        )
        for r in records
    }
    shapes = {
        t: dict(Counter(c.dim for c in fc.cells)) for t, fc in fibers.items()
    }
    betti = {
        t: ph.fiber_homology(fc) for t, fc in fibers.items()
    }
    ok = (
        len(records) == 2
        and shapes.get(TYPE_STRINGS["point"]) == {0: 1}
        and shapes.get(TYPE_STRINGS["mobius"]) == {0: 6, 1: 6}
        and betti.get(TYPE_STRINGS["mobius"]) == (1, 1)
    )
    _report(9, ok, f"2 rows={len(records)}, fibers {shapes}, betti {betti}")


def test_criterion_10_essentiality(triangle, wedge, interval):
    tri = ph.is_essential(triangle)
    wed = ph.is_essential(wedge)
    witness = ph.find_removable_subset(interval)
    interval_ok = witness is not None and ph.is_removable(
        interval, witness
    ).removable
    ok = tri and wed and interval_ok
    _report(
        10,
        ok,
        f"triangle essential={tri}, wedge essential={wed}, "
        f"interval witness={[list(s.vertices) for s in witness or ()]}",
    )


def _piecewise_monotone_map(rng, grid=8, denominator=32):
    knots = sorted(
        Fraction(rng.randrange(denominator + 1), denominator)
        for _ in range(grid + 1)
    )
    xs = [Fraction(i, grid) for i in range(grid + 1)]

    def phi(x):
        if x == INF:
            return INF
        i = min(bisect_right(xs, x) - 1, grid - 1)
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = knots[i], knots[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    return phi


def _pushforward(barcode, phi):
    out = []
    for bars in barcode:
        mapped = [
            (phi(b), phi(d)) for b, d in bars if phi(b) != phi(d)
        ]
        out.append(tuple(sorted(mapped, key=lambda t: (t[0], t[1]))))
    return tuple(out)


def test_criterion_11_property_suites(triangle, triangle_records, triangle_fibers):
    pool = [ph.build_complex(m) for m in COMPLEX_POOL]

    rng = random.Random(11001)
    for _ in range(120):
        K = rng.choice(pool)
        f = random_monotone_filter(K, rng)
        phi = _piecewise_monotone_map(rng)
        reparam = ph.make_filter(K, {s: phi(f[s]) for s in K.simplices})
        expected = _pushforward(ph.barcode_of_filter(f), phi)
        assert ph.barcode_of_filter(reparam) == expected
    equivariance = 120

    rng = random.Random(11002)
    for _ in range(120):
        K = rng.choice(pool)
        f = random_monotone_filter(K, rng)
        assert ph.infinite_bar_counts(ph.barcode_of_filter(f)) == ph.betti_numbers(K)
    infinite_bars = 120

    rng = random.Random(11003)
    strata = ph.enumerate_filter_strata(triangle, "interior_only")
    stratum_cases = 0
    for st in strata:
        T = ph.barcode_of_stratum(triangle, st)
        m = len(st.blocks)
        for _ in range(10):
            values = sorted(rng.sample(range(1, 64), m))
            level = {
                s: Fraction(values[i], 64)
                for i, block in enumerate(st.blocks)
                for s in block_simplices(triangle, block)
            }
            f = ph.make_filter(triangle, level)
            assert ph.canonicalize_barcode(ph.barcode_of_filter(f)) == T
            stratum_cases += 1

    rng = random.Random(11004)
    autos = ph.automorphisms(triangle)
    for _ in range(120):
        f = random_monotone_filter(triangle, rng)
        bc = ph.barcode_of_filter(f)
        for perm in autos:
            moved = ph.make_filter(
                triangle,
                {ph.apply_permutation(perm, s): f[s] for s in triangle.simplices},
            )
            assert ph.barcode_of_filter(moved) == bc
    actions = {
        t: [ph.symmetry_action_on_fiber(fc, g) for g in autos]
        for t, fc in triangle_fibers.items()
    }
    commutations = 0
    for src, tgt in itertools.product(triangle_records, repeat=2):
        classes = ph.enumerate_morphism_classes(src.barcode_type, tgt.barcode_type)
        if not classes:
            continue
        fs = triangle_fibers[ph.format_barcode_type(src.barcode_type)]
        ft = triangle_fibers[ph.format_barcode_type(tgt.barcode_type)]
        for cls in classes:
            mm = monodromy_map(triangle, fs, ft, cls)
            for ga, gb in zip(
                actions[ph.format_barcode_type(src.barcode_type)],
                actions[ph.format_barcode_type(tgt.barcode_type)],
            ):
                assert all(
                    gb[mm.cell_map[i]] == mm.cell_map[ga[i]]
                    for i in range(len(fs.cells))
                )
                commutations += 1

    top = [
        st
        for st in strata
        if all(b.bit_count() == 1 for b in st.blocks)
    ]
    witness_hits = 0
    for rec in triangle_records:
        for i in rec.member_ids:
            assert any(stratum_closure_leq(strata[i], t) for t in top)
            witness_hits += 1

    ok = (
        equivariance >= 100
        and infinite_bars >= 100
        and stratum_cases >= 100
        and commutations >= 100
        and witness_hits == 446
    )
    _report(
        11,
        ok,
        f"equivariance {equivariance}, infinite-bar {infinite_bars}, "
        f"stratum samples {stratum_cases}, commutations {commutations}, "
        f"closure witnesses {witness_hits}",
    )
