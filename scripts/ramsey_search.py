#!/usr/bin/env python3
"""Count two-colourings of F_2^m \\ {0} that avoid a subset-sum structure.

For each m up to --max-m, enumerates all total two-colourings of the
nonzero points and counts those containing no monochromatic family of d
independent vectors together with all their nonzero subset sums.  The
first m with zero avoiding colourings is the minimal dimension at which
the structure is unavoidable.

Exhaustive over 2^(2^m - 1) colourings: m = 4 means 32768 searches for
d = 3, which takes a little while; m = 5 is refused.

Example:

    python3 scripts/ramsey_search.py --d 2 --max-m 3
"""

from __future__ import annotations

import argparse
import time
from itertools import product

from subuniform import AlmostColouring, find_union_structure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=2, help="independent vectors required")
    parser.add_argument("--max-m", type=int, default=3)
    args = parser.parse_args()
    if args.d < 1:
        parser.error("--d must be at least 1")
    if args.max_m < 1:
        parser.error("--max-m must be at least 1")
    if args.max_m > 4:
        parser.error("exhaustive enumeration above m = 4 is not feasible here")

    minimal = None
    print(f"{'m':>2} {'colourings':>10} {'avoiders':>9} {'example avoider':<20}")
    for m in range(1, args.max_m + 1):
        size = 1 << m
        avoiders = 0
        example = ""
        start = time.monotonic()
        for assignment in product((0, 1), repeat=size - 1):
            colouring = AlmostColouring(m, 1, (None,) + assignment)
            if args.d > m or find_union_structure(colouring, args.d) is None:
                avoiders += 1
                if not example:
                    example = "".join(map(str, assignment))
        elapsed = time.monotonic() - start
        print(
            f"{m:>2} {1 << (size - 1):>10} {avoiders:>9}"
            f" {example:<20} ({elapsed:.2f}s)"
        )
        if avoiders == 0 and minimal is None:
            minimal = m
    if minimal is None:
        print(
            f"every m <= {args.max_m} admits a structure-free colouring"
            f" for d = {args.d}"
        )
    else:
        print(f"minimal m with no structure-free 2-colouring for d = {args.d}: {minimal}")


if __name__ == "__main__":
    main()
