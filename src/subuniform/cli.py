"""Command line front end.

Subcommands:

    uniformity  --set F --subspace-basis "v1,v2,..." [--rep x]
    increment   --set F --eps a/b
    regularity  --set F --eps a/b --eta a/b [--min-codim k] [--max-codim K]
    pipeline    --set F --eps a/b [--eta a/b] [--d n] [--buckets B]
                [--slack C] [--min-codim k] [--max-codim K]
    oracle      --set F --max-codim k [--budget N]
    f3-verify   --n k [--long-run]
    wht         --set F
    gen-random  --p P --n N --density a/b --seed s [--out FILE]

Each command prints a JSON report to stdout.  All mathematically
meaningful fields are exact ("num/den" strings for rationals, digit
strings for vectors); floats appear only as display renderings rounded
to 6 significant digits.  Identical inputs always reproduce the exact
fields byte for byte; only the timing field varies.

Exit codes: 0 ok, 1 verification failure (including pipeline and
regularity outcomes other than success), 2 input error, 3 budget
exceeded.

Set file format ("SetFile"): first meaningful line "p=<2|3> n=<int>",
then one vector per line as n digits (coordinate 1 first).  "#" starts
a comment, blank lines are skipped, duplicate vectors are rejected.
Parse errors carry 1-based line numbers.  A set file must be UTF-8.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import product, repeat
from typing import Optional, Sequence

from . import pipeline
from .errors import BudgetExceededError, InputError
from .exact_arith import format_rational, parse_rational
from .gf_core import (
    MAX_N,
    Coset,
    GFVector,
    PointSet,
    Subspace,
    rref_basis,
)
from .increments import (
    IncrementTrace,
    PipelineParams,
    RegularityResult,
    density_increment,
    regularity_decompose,
)
from .pipeline import (
    ORACLE_BUDGET,
    F3Report,
    PipelineReport,
    exhaustive_best_subspace,
    find_uniform_subspace,
    scan_leading_one_set,
)
from .randsets import random_point_set
from .spectra import restricted_spectrum, uniformity_sup

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def parse_set_file(text: str) -> PointSet:
    """Parse the SetFile format; errors carry 1-based line numbers.

    Text in the canonical layout (the header on line 1, then one n-digit
    vector per line, with no comment, blank line or whitespace, as
    serialize_set_file writes it) is read in bulk.  Any other text, and
    any text with an error, goes through the line loop, the one place
    that handles comments, blanks and whitespace and words the errors.
    Lines end at \\n, \\r\\n and \\r, as text mode's newline translation
    ends them, and a final newline opens no line of its own.  One leading
    byte-order mark (U+FEFF) is dropped.
    """
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    points = _parse_canonical(lines)
    return _parse_lines(lines) if points is None else points


def _parse_canonical(lines: list[str]) -> Optional[PointSet]:
    """The set that canonical SetFile lines hold, or None for the line loop."""
    if not lines:
        return None
    p_field, _, n_field = lines[0].partition(" ")
    digits = n_field[2:]
    if (
        p_field not in ("p=2", "p=3")
        or n_field[:2] != "n="
        or not (digits.isascii() and digits.isdigit())
    ):
        return None
    p, n = int(p_field[2:]), int(digits)
    body = lines[1:]
    if not 1 <= n <= MAX_N[p] or set(map(len, body)) - {n}:
        return None
    # deleting the digits of F_p leaves nothing exactly when every line
    # holds only those digits; a character past ASCII leaves its bytes
    if "".join(body).encode().translate(None, b"012"[:p]):
        return None
    ranks = list(map(int, body, repeat(p)))
    points = PointSet.from_ranks(p, n, ranks)
    # a duplicate line sets its bit twice
    return points if points.size == len(ranks) else None


def _parse_lines(lines: list[str]) -> PointSet:
    """Read SetFile lines one by one, skipping comments, blanks and spaces."""
    p: Optional[int] = None
    n = 0
    seen: dict[str, int] = {}
    ranks: list[int] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if p is None:
            parts = line.split()
            if (
                len(parts) != 2
                or not parts[0].startswith("p=")
                or not parts[1].startswith("n=")
            ):
                raise InputError(f"line {lineno}: expected header 'p=<2|3> n=<int>'")
            fields = parts[0][2:], parts[1][2:]
            if not all(field.isascii() and field.isdigit() for field in fields):
                raise InputError(f"line {lineno}: malformed header {line!r}")
            p, n = int(fields[0]), int(fields[1])
            try:
                PointSet.empty(p, n)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
            continue
        if len(line) != n:
            raise InputError(
                f"line {lineno}: vector {line!r} has length {len(line)}, expected {n}"
            )
        # strip() leaves something behind exactly when a character is not
        # a digit of F_p; the digits then read in base p give the rank
        if line.strip("012"[:p]):
            raise InputError(f"line {lineno}: vector {line!r} has digits not in F_{p}")
        if line in seen:
            raise InputError(
                f"line {lineno}: duplicate vector {line!r} (first at line {seen[line]})"
            )
        seen[line] = lineno
        ranks.append(int(line, p))
    if p is None:
        raise InputError("line 1: missing header 'p=<2|3> n=<int>'")
    return PointSet.from_ranks(p, n, ranks)


def serialize_set_file(points: PointSet) -> str:
    """Canonical SetFile text: header plus members in rank order."""
    p, n = points.p, points.n
    # a rank's digit string is its high half's then its low half's;
    # product counts in base p, first digit most significant
    low, digits = p ** (n // 2), "012"[:p]
    highs = ["".join(d) for d in product(digits, repeat=n - n // 2)]
    lows = ["".join(d) for d in product(digits, repeat=n // 2)]
    lines = [f"p={p} n={n}"] + [highs[r // low] + lows[r % low] for r in points.member_ranks()]
    return "\n".join(lines) + "\n"


def _parse_vector(text: str, p: int, n: int) -> GFVector:
    digits = text.strip()
    if len(digits) != n:
        raise InputError(f"vector {text!r} has length {len(digits)}, expected {n}")
    if digits.strip("012"[:p]):
        raise InputError(f"vector {text!r} has digits not in F_{p}")
    return GFVector(p, n, tuple(int(ch) for ch in digits))


def _parse_basis(text: str, p: int, n: int) -> Subspace:
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise InputError("subspace basis must list at least one vector")
    return rref_basis([_parse_vector(part, p, n) for part in parts])


def _load_set(path: str) -> PointSet:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read set file {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read set file {path}: not UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None
    return parse_set_file(text)


def _vec_json(v: Optional[GFVector]) -> Optional[str]:
    return None if v is None else v.digits()


def _space_json(space: Optional[Subspace]) -> Optional[dict]:
    if space is None:
        return None
    return {
        "dim": space.dim,
        "codim": space.codim,
        "basis": [row.digits() for row in space.basis],
    }


def _approx(value: Fraction) -> float:
    return float(f"{value.numerator / value.denominator:.6g}")


def _uniformity_json(report) -> dict:
    return {
        "subspace": _space_json(report.coset.subspace),
        "rep": _vec_json(report.coset.rep),
        "sup_sq": format_rational(report.sup_sq),
        "witness_t": report.witness_t,
        "witness_r": _vec_json(report.witness_r),
        "density": format_rational(report.density),
    }


def _cmd_uniformity(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    space = _parse_basis(args.subspace_basis, points.p, points.n)
    rep = (
        GFVector.zero(points.p, points.n)
        if args.rep is None
        else _parse_vector(args.rep, points.p, points.n)
    )
    coset = Coset.of(space, rep)
    report = uniformity_sup(points, coset)
    exact = _uniformity_json(report)
    approx = {"sup_sq": _approx(report.sup_sq), "density": _approx(report.density)}
    return EXIT_OK, exact, approx


def _increment_json(trace: IncrementTrace) -> dict:
    return {
        "steps": [
            {
                "subspace": _space_json(step.coset.subspace),
                "rep": _vec_json(step.coset.rep),
                "density": format_rational(step.density),
                "witness_r": _vec_json(step.witness_r),
            }
            for step in trace.steps
        ],
        "step_count": trace.step_count,
        "final_codim": trace.final.subspace.codim,
        "final_density": format_rational(trace.final_density),
        "final_sup_sq": format_rational(trace.final_sup_sq),
    }


def _cmd_increment(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    eps = parse_rational(args.eps)
    trace = density_increment(points, eps)
    exact = _increment_json(trace)
    approx = {"final_density": _approx(trace.final_density)}
    return EXIT_OK, exact, approx


def _regularity_json(result: RegularityResult) -> dict:
    return {
        "succeeded": result.succeeded,
        "space": _space_json(result.space),
        "good_fraction": format_rational(result.good_fraction),
        "bad_reps": [rep.digits() for rep in result.bad_reps],
        "rounds": result.rounds,
        "energy_trace": [format_rational(e) for e in result.energy_trace],
    }


def _cmd_regularity(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    eps = parse_rational(args.eps)
    eta = parse_rational(args.eta)
    result = regularity_decompose(
        points, eps, eta, min_codim=args.min_codim, max_codim=args.max_codim
    )
    exact = _regularity_json(result)
    approx = {"good_fraction": _approx(result.good_fraction)}
    code = EXIT_OK if result.succeeded else EXIT_VERIFICATION
    return code, exact, approx


def _pipeline_json(report: PipelineReport) -> dict:
    exact: dict = {
        "outcome": report.outcome,
        "d": report.d,
        "buckets": report.buckets,
        "attempt_depths": [a.min_codim for a in report.attempts],
        "W": _space_json(report.W),
        "V": _space_json(report.V),
        "colour": report.colour,
    }
    if report.xs_quotient is not None:
        exact["xs_quotient"] = [x.digits() for x in report.xs_quotient]
        exact["xs_ambient"] = [x.digits() for x in report.xs_ambient]
    if report.verification is not None:
        exact["sup_sq"] = format_rational(report.verification.sup_sq)
        exact["witness_r"] = _vec_json(report.verification.witness_r)
        exact["bound_ok"] = report.bound_ok
    return exact


def _cmd_pipeline(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    params = PipelineParams(
        eps=parse_rational(args.eps),
        eta=parse_rational(args.eta),
        d=args.d,
        buckets=args.buckets,
        min_codim=args.min_codim,
        max_codim=args.max_codim,
        slack=args.slack,
    )
    report = find_uniform_subspace(points, params)
    exact = _pipeline_json(report)
    approx = {}
    if report.sup_sq is not None:
        approx["sup_sq"] = _approx(report.sup_sq)
    code = EXIT_OK if report.outcome == "success" else EXIT_VERIFICATION
    return code, exact, approx


def _cmd_oracle(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    winner, sup_sq = exhaustive_best_subspace(
        points, args.max_codim, budget=args.budget
    )
    exact = {
        "best_subspace": _space_json(winner),
        "sup_sq": format_rational(sup_sq),
    }
    return EXIT_OK, exact, {"sup_sq": _approx(sup_sq)}


def _f3_json(report: F3Report) -> dict:
    return {
        "n": report.n,
        "total_subspaces": report.total_subspaces,
        "all_passed": report.all_passed,
        "min_sup_sq": format_rational(report.minimum),
        # the floor the scan checked, read from its module at call time
        "lower_bound_sq": format_rational(pipeline.LOWER_BOUND_SQ),
        "failures": [_space_json(space) for space in report.failures],
    }


def _cmd_f3_verify(args: argparse.Namespace) -> tuple[int, dict, dict]:
    report = scan_leading_one_set(args.n, long_run=args.long_run)
    exact = _f3_json(report)
    approx = {"min_sup_sq": _approx(report.minimum)}
    code = EXIT_OK if report.all_passed else EXIT_VERIFICATION
    return code, exact, approx


def _cmd_wht(args: argparse.Namespace) -> tuple[int, dict, dict]:
    points = _load_set(args.set)
    spectrum = restricted_spectrum(
        points, Coset.whole_space(points.p, points.n)
    )
    exact = {
        "p": points.p,
        "n": points.n,
        "scale": spectrum.scale,
        "coefficients": list(spectrum.coefficients),
    }
    return EXIT_OK, exact, {}


def _cmd_gen_random(args: argparse.Namespace) -> tuple[int, dict, dict]:
    density = parse_rational(args.density)
    points = random_point_set(args.p, args.n, density, args.seed)
    text = serialize_set_file(points)
    exact = {
        "p": args.p,
        "n": args.n,
        "density": format_rational(density),
        "seed": args.seed,
        "size": points.size,
        "generator": "splitmix64",
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
        exact["out"] = args.out
    else:
        exact["set_file"] = text
    return EXIT_OK, exact, {"density": _approx(density)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subuniform",
        description="Exact Fourier uniformity toolkit over F_2^n and F_3^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("uniformity", help="uniformity of a set on one coset")
    sp.add_argument("--set", required=True, help="SetFile path")
    sp.add_argument(
        "--subspace-basis",
        required=True,
        help="comma-separated digit-string vectors spanning the subspace",
    )
    sp.add_argument("--rep", help="coset representative (digit string, default 0)")
    sp.set_defaults(func=_cmd_uniformity)

    sp = sub.add_parser("increment", help="density-increment walk (F_2)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", required=True, help="uniformity target, e.g. 1/4")
    sp.set_defaults(func=_cmd_increment)

    sp = sub.add_parser("regularity", help="energy-increment decomposition (F_2)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--eta", required=True, help="allowed bad-coset fraction")
    sp.add_argument("--min-codim", type=int, default=0)
    sp.add_argument("--max-codim", type=int, default=None)
    sp.set_defaults(func=_cmd_regularity)

    sp = sub.add_parser("pipeline", help="end-to-end uniform-subspace search (F_2)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--eta", default="1/8")
    sp.add_argument("--d", type=int, default=None, help="structure size")
    sp.add_argument("--buckets", type=int, default=None, help="density buckets B")
    sp.add_argument("--slack", type=int, default=4, help="verified bound C*eps")
    sp.add_argument("--min-codim", type=int, default=0)
    sp.add_argument("--max-codim", type=int, default=None)
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser("oracle", help="exhaustive best-subspace scan")
    sp.add_argument("--set", required=True)
    sp.add_argument("--max-codim", type=int, required=True)
    sp.add_argument("--budget", type=int, default=ORACLE_BUDGET)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("f3-verify", help="exhaustive F_3 lower-bound scan")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--long-run", action="store_true")
    sp.set_defaults(func=_cmd_f3_verify)

    sp = sub.add_parser("wht", help="full-space spectrum dump")
    sp.add_argument("--set", required=True)
    sp.set_defaults(func=_cmd_wht)

    sp = sub.add_parser("gen-random", help="seed-reproducible random set")
    sp.add_argument("--p", type=int, required=True, choices=(2, 3))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--density", required=True, help="inclusion probability a/b")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", help="write the SetFile here instead of embedding it")
    sp.set_defaults(func=_cmd_gen_random)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, run the subcommand, print its JSON report; return exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code, exact, approx = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report = {
        "command": args.command,
        "inputs": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "command") and value is not None
        },
        "outcome": "ok" if code == EXIT_OK else "verification_failure",
        "exact": exact,
        "approx": approx,
        "timing_s": round(time.monotonic() - start, 6),
    }
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:
        # the reader left early; the exit-time flush must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entry() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    entry()
