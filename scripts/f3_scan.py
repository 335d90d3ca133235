#!/usr/bin/env python3
"""Sweep the ternary lower-bound scan over a range of dimensions.

For each n the scan walks every positive-dimensional subspace V of
F_3^n, computes the exact uniformity sup of the leading-one set on V,
and checks it never drops below the 1/12 squared-magnitude floor.  The
table printed here shows how close the minimum gets to the floor as n
grows; any failing subspace is listed under its row.

Example:

    python3 scripts/f3_scan.py --max-n 4
    python3 scripts/f3_scan.py --min-n 5 --max-n 6 --long-run  # about 4 s
"""

from __future__ import annotations

import argparse
import time

from subuniform import scan_leading_one_set
from subuniform.pipeline import LOWER_BOUND_SQ

MAX_N = 6  # scan_leading_one_set refuses larger n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument(
        "--long-run",
        action="store_true",
        help="allow n = 5 and 6 (every subspace of F_3^6 takes a few seconds)",
    )
    args = parser.parse_args()
    # refuse before the first row, not with a traceback halfway down the table
    if not (1 <= args.min_n <= MAX_N and 1 <= args.max_n <= MAX_N):
        parser.error(f"--min-n and --max-n must lie in 1..{MAX_N}")
    if args.max_n >= 5 and not args.long_run:
        parser.error("n = 5 and 6 need --long-run")

    print(f"{'n':>2} {'subspaces':>10} {'min sup^2':>12} {'~sup':>8}  verdict")
    for n in range(args.min_n, args.max_n + 1):
        start = time.monotonic()
        report = scan_leading_one_set(n, long_run=args.long_run)
        elapsed = time.monotonic() - start
        min_sq = report.min_sup_sq()
        sup = float(min_sq) ** 0.5
        verdict = "all passed" if report.all_passed else "FLOOR VIOLATED"
        print(
            f"{n:>2} {report.total_subspaces:>10} {str(min_sq):>12}"
            f" {sup:>8.5f}  {verdict} ({elapsed:.2f}s)"
        )
        for space in report.failures:
            basis = ",".join(row.digits() for row in space.basis)
            print(f"     failing subspace: span{{{basis}}}")
    floor = LOWER_BOUND_SQ
    print(f"floor: sup^2 >= {floor}, i.e. sup >= {float(floor) ** 0.5:.5f}")


if __name__ == "__main__":
    main()
