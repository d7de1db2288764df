"""Walk through the smallest interesting complex: one edge and its two
vertices.  Shows the filter strata with three fibers, then why the complex
is not essential.

Run:  python3 demos/interval_walkthrough.py
"""
from collections import Counter

import phfiber as ph


def main():
    K = ph.build_complex([[0, 1]])
    strata = ph.enumerate_filter_strata(K, "interior_only")
    print(f"interval: {len(K)} simplices, {len(strata)} interior strata\n")
    for st in strata:
        T = ph.barcode_of_stratum(K, st)
        print(f"  {ph.serialize_stratum(st, K):<24} -> "
              f"{ph.format_barcode_type(T)}")
    print()

    for text in ("0:(1,inf),(2,3)", "0:(1,2),(1,inf)", "0:(1,inf)"):
        fc = ph.fiber_complex(K, ph.parse_barcode_type(text))
        cells = dict(sorted(Counter(c.dim for c in fc.cells).items()))
        betti = ph.fiber_homology(fc)
        print(f"fiber over {text:<18} cells by dim {cells}  betti {betti}")
    print()

    witness = ph.find_removable_subset(K)
    report = ph.is_removable(K, witness)
    print(f"essential: {ph.is_essential(K)}")
    print(f"removable subset {[str(s) for s in witness]}: "
          f"complement is a subcomplex ({report.is_subcomplex_complement}) "
          f"with the same homology ({report.homology_preserved})")


if __name__ == "__main__":
    main()
