#!/usr/bin/env python3
"""Run the uniform-subspace pipeline on a random set and narrate the run.

Generates a seed-reproducible random subset of F_2^n, runs the full
regularity / bucket-colouring / subset-sum search, and prints each
escalation attempt.  On success it prints the pipeline's own exact
verification of the found subspace and, when the space is small enough,
compares it against the exhaustive oracle.

Example:

    python3 scripts/pipeline_demo.py --n 8 --density 1/2 --seed 3 --eps 1/4
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from subuniform import (
    BudgetExceededError,
    InputError,
    PipelineParams,
    exhaustive_best_subspace,
    find_uniform_subspace,
    parse_rational,
    random_point_set,
)

ORACLE_SCAN_LIMIT = 500_000


def describe_space(space) -> str:
    basis = ",".join(row.digits() for row in space.basis)
    return f"span{{{basis}}} (dim {space.dim}, codim {space.codim})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--density", type=parse_rational, default=Fraction(1, 2))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps", type=parse_rational, default=Fraction(1, 4))
    parser.add_argument("--max-codim", type=int, default=None)
    parser.add_argument(
        "--oracle-codim",
        type=int,
        default=3,
        help="cross-check depth for the exhaustive scan (skipped when too big)",
    )
    args = parser.parse_args()
    # refuse before the first line of output, not with a traceback
    try:
        A = random_point_set(2, args.n, args.density, args.seed)
        params = PipelineParams(eps=args.eps, max_codim=args.max_codim)
    except InputError as exc:
        parser.error(str(exc))
    if args.max_codim is not None and args.max_codim > args.n:
        parser.error(f"--max-codim must lie in 0..{args.n}")
    if not 0 <= args.oracle_codim <= args.n:
        parser.error(f"--oracle-codim must lie in 0..{args.n}")

    print(
        f"set: {A.size} of {1 << args.n} points in F_2^{args.n}"
        f" (density {Fraction(A.size, 1 << args.n)}, seed {args.seed})"
    )
    print(
        f"params: eps={args.eps}, eta={params.eta}, d={params.resolved_d},"
        f" buckets={params.resolved_buckets}, slack={params.slack}"
    )

    start = time.monotonic()
    try:
        report = find_uniform_subspace(A, params)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        sys.exit(3)
    elapsed = time.monotonic() - start

    for attempt in report.attempts:
        reg = attempt.regularity
        line = (
            f"attempt at codim >= {attempt.min_codim}:"
            f" regularity {'ok' if reg.succeeded else 'failed'}"
            f" (codim {reg.space.codim}, rounds {reg.rounds},"
            f" good {reg.good_fraction})"
        )
        if reg.succeeded:
            line += (
                ", structure "
                + ("found" if attempt.structure is not None else "not found")
            )
        print(line)

    print(f"outcome: {report.outcome} ({elapsed:.2f}s)")
    if report.outcome != "success":
        return

    print(f"V = {describe_space(report.V)}")
    print(
        "structure: colour"
        f" {report.colour}, ambient xs"
        f" {[x.digits() for x in report.xs_ambient]}"
    )
    bound = Fraction(params.slack) * args.eps
    print(
        f"verified sup^2 = {report.verification.sup_sq}"
        f" (bound ({params.slack}*eps)^2 = {bound * bound}:"
        f" {'ok' if report.bound_ok else 'EXCEEDED'})"
    )

    try:
        winner, best = exhaustive_best_subspace(A, args.oracle_codim, budget=ORACLE_SCAN_LIMIT)
    except BudgetExceededError as exc:
        print(f"oracle skipped: {exc}")
        return
    print(
        f"oracle best at codim <= {args.oracle_codim}:"
        f" sup^2 = {best} on {describe_space(winner)}"
    )


if __name__ == "__main__":
    main()
