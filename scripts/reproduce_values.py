#!/usr/bin/env python3
"""Reproduce the headline exact values for both built-in systems.

Prints the constructed parameter of each system to 10 and 30 digits,
the smallest normalized displacement up to level 10 with its witness,
the exact-overlap scan, and the similarity dimension of system 1.
"""

from fractions import Fraction as F

from sepkit import (
    AffineExpr,
    example_point,
    example_system,
    exact_overlap_scan,
    osc_dimension,
    wsp_min_displacement,
)
from sepkit.ifs import word_texts


def main() -> None:
    for which in (1, 2):
        sys_ = example_system(which)
        pt = example_point(which)
        a = AffineExpr.parameter()
        print(f"== system {which} (ratio 1/{sys_.ratio_denominator}, "
              f"{sys_.alphabet_size} maps) ==")
        print("  a  =", pt.eval_decimal(a, 10), " =", pt.eval_decimal(a, 30))
        scaled = AffineExpr.parameter(sys_.ratio_denominator)
        print(f"  {sys_.ratio_denominator}a =", pt.eval_decimal(scaled, 10))
        if which == 2:
            third = AffineExpr(F(15, 16), F(-16))
            print("  15/16 - 16a =", pt.eval_decimal(third, 10))
        wsp = wsp_min_displacement(sys_, pt, 10)
        witness = wsp.minimum.displacement.witness
        print("  min |displacement| up to level 10 =",
              pt.eval_decimal(wsp.minimum.abs_value, 12),
              f"witness ({witness[0]}, {witness[1]}) at level {wsp.minimum.level}")
        scan = exact_overlap_scan(sys_, 2)
        overlaps = scan.overlaps
        print("  exact overlaps to level 2:",
              list(zip(word_texts(overlaps.sigma), word_texts(overlaps.tau))) or "none")
    print("== dimension ==")
    print("  system 1: log(3)/log(7) =", osc_dimension(example_system(1), 12))


if __name__ == "__main__":
    main()
