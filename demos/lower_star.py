"""Restrict the hollow triangle to lower-star filters, where every simplex
enters with its latest vertex.  The image shrinks to two barcode strata and
the fibers shrink with it.

Run:  python3 demos/lower_star.py
"""
from collections import Counter
from fractions import Fraction

import phfiber as ph


def main():
    K = ph.build_complex([[0, 1], [0, 2], [1, 2]])
    records = ph.image_records(K, "lower_star")
    members = sum(len(r.member_ids) for r in records)
    print(f"lower-star strata: {members}, barcode strata in the "
          f"image: {len(records)}\n")

    for r in records:
        fc = ph.fiber_complex(K, r.barcode_type, mode="lower_star")
        cells = dict(sorted(Counter(c.dim for c in fc.cells).items()))
        betti = ph.fiber_homology(fc)
        print(f"  {ph.format_barcode_type(r.barcode_type):<22} "
              f"members {len(r.member_ids):>2}  cells by dim {cells}  "
              f"betti {betti}")
    print()

    values = {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(3, 4)}
    f = ph.lower_star_extension(K, values)
    print("lower-star extension of vertex values "
          f"{{0: 1/4, 1: 1/2, 2: 3/4}}:")
    for s in K.simplices:
        print(f"  f({s}) = {f[s]}")
    barcode = ph.barcode_of_filter(f)
    for p, bars in enumerate(barcode):
        shown = ", ".join(f"({b}, {d})" for b, d in bars)
        print(f"degree {p} bars: {shown}")


if __name__ == "__main__":
    main()
