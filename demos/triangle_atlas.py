"""Atlas of the hollow triangle: every barcode stratum with its fiber, then
the monodromy from the circle-shaped fibers into the surface-shaped ones.

Run:  python3 demos/triangle_atlas.py
"""
from collections import Counter

import phfiber as ph


def main():
    K = ph.build_complex([[0, 1], [0, 2], [1, 2]])
    records = ph.image_records(K, "interior_only")
    members = sum(len(r.member_ids) for r in records)
    print(f"hollow triangle: {len(K)} simplices, {members} interior "
          f"filter strata, {len(records)} barcode strata in the image\n")

    print(f"{'codim':>5}  {'members':>7}  {'deficit':>7}  barcode type")
    for r in records:
        print(f"{r.codim:>5}  {len(r.member_ids):>7}  "
              f"{str(r.bounded_deficit):>7}  "
              f"{ph.format_barcode_type(r.barcode_type)}")
    print()

    named = {
        "two circles": "0:(1,inf),(2,3);1:(4,inf)",
        "circle, shared birth": "0:(1,2),(1,inf);1:(3,inf)",
        "circle, shared death": "0:(1,inf),(2,3);1:(3,inf)",
        "mobius band": "0:(1,inf);1:(2,inf)",
        "hexagon": "0:(1,2),(1,inf);1:(2,inf)",
        "point": "0:(1,inf);1:(1,inf)",
    }
    fibers = {}
    print("fibers over the named barcode types:")
    for label, text in named.items():
        fc = ph.fiber_complex(K, ph.parse_barcode_type(text))
        fibers[label] = fc
        cells = dict(sorted(Counter(c.dim for c in fc.cells).items()))
        betti = ph.fiber_homology(fc)
        print(f"  {label:<22} cells by dim {cells}  betti {betti}")
    print()

    band = fibers["mobius band"]
    squares = [c for c in band.cells if c.dim == 2]
    circuits = ph.boundary_circuits(band)
    print(f"the 2-dimensional fiber has {len(squares)} two-cells, all with "
          f"gap shape {squares[0].gap_shape}, and {circuits} boundary "
          "circuit, so it is a mobius band\n")

    src = fibers["circle, shared death"]
    edges = sum(1 for c in src.cells if c.dim == 1)
    print(f"monodromy out of the shared-death circle ({edges} edges):")
    for label in ("mobius band", "hexagon"):
        cls = ph.morphism_class_between(src.barcode_type,
                                        fibers[label].barcode_type)
        mm = ph.monodromy_map(K, src, fibers[label], cls)
        print(f"  to the {label:<12} collapses {len(mm.collapsed_cells)} "
              f"cells, {len(mm.surviving_cells)} survive")

    rows = ph.check_dimension_bound(records)
    loose = [ph.format_barcode_type(r.barcode_type)
             for r in rows if not r.tight]
    print(f"\ndimension bound: tight for {len(rows) - len(loose)} of "
          f"{len(rows)} strata, slack only over {loose[0]}")


if __name__ == "__main__":
    main()
