#!/usr/bin/env python3
"""Emit the cylinder-overlap figures for both built-in systems."""

import argparse

from sepkit import example_point, render_levels


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=6)
    parser.add_argument("--out", default="figures")
    args = parser.parse_args()

    for which in (1, 2):
        pt = example_point(which)
        run = pt.refiner.run(args.levels)
        paths = render_levels(
            run.template.system, pt, run, args.levels, args.out, f"example{which}"
        )
        for path in paths:
            print(path)


if __name__ == "__main__":
    main()
