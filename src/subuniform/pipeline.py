"""End-to-end subspace search, exhaustive oracle, and the F_3 obstruction.

find_uniform_subspace ties the stages together for a set A over F_2^n:

1. regularity_decompose foliates the space into cosets of a subspace W
   with at most an eta fraction of bad (non-eps-uniform) cosets;
2. bucket_colouring turns the good coset densities, read from the
   per-coset counts of that same scan, into an almost-colouring of the
   quotient F_2^m with B + 1 colours;
3. find_union_structure looks for d independent quotient points whose
   nonempty subset sums are monochromatic; their lifts extend W to the
   candidate V = W + span(lifts);
4. the result is re-verified exactly: on V, every frequency outside the
   annihilator of W mixes 2^d coset values whose signs cancel to within
   2^-d + (bucket width), giving sup <= C*eps for the default
   parameters d = ceil(log2(1/eps)) + 1 and B = ceil(1/eps).

The quotient must be roomy enough for step 3 (a size-d structure needs
m >= d, and small quotients rarely contain one), but how roomy cannot
be computed in advance.  The search therefore escalates: it starts at
codimension max(min_codim, d) and, whenever the structure search fails,
re-runs the foliation strictly deeper until max_codim is exhausted.
Failures remain first-class outcomes: "ramsey_failure" when no depth
within budget admits a structure, "codim_exhausted" when the regularity
stage itself runs out of room.

exhaustive_best_subspace is the independent ground-truth oracle: it
scans every subspace of codimension <= max_codim (Gaussian-binomial
counts, budget-guarded) and returns the minimizer of sup_sq.

Over F_3 no analogous search can succeed: leading_one_set builds the
set whose members have first nonzero coordinate 1, and
scan_leading_one_set certifies, for every positive-dimensional subspace
V, a nontrivial coefficient of squared magnitude >= 1/12.  Writing the
coefficient at the first pivot frequency as a + b*w, its imaginary part
is pinned by the exact identity 3*b = -|V|, which the scan checks
together with the structural inclusions behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceededError, InputError
from .exact_arith import Eisenstein
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_rep_ranks,
    _packed,
    _rref_bases_raw,
    _span_ranks,
    enumerate_subspaces,
    extend_span,
    gaussian_binomial,
    lift_from_quotient,
)
from .increments import PipelineParams, RegularityResult, regularity_decompose
from .ramsey import AlmostColouring, UnionStructure, bucket_colouring, find_union_structure
from .spectra import (
    UniformityReport,
    _dft3_pairs,
    packed_max_coef_sq,
    restricted_spectrum,
    uniformity_sup,
)

ORACLE_BUDGET = 10**7


@dataclass(frozen=True)
class PipelineAttempt:
    """Diagnostics for one escalation step of the pipeline."""

    min_codim: int
    regularity: RegularityResult
    colouring: Optional[AlmostColouring]
    structure: Optional[UnionStructure]


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of find_uniform_subspace.

    outcome is one of "success", "ramsey_failure", "codim_exhausted".
    On success V = W + span(lifted xs) comes with the exact verified
    sup_sq and whether it meets the slack bound (C*eps)^2.  Attempts
    keep per-stage diagnostics for every escalation step.
    """

    outcome: str
    params: PipelineParams
    d: int
    buckets: int
    attempts: tuple[PipelineAttempt, ...]
    V: Optional[Subspace] = None
    verification: Optional[UniformityReport] = None
    bound_ok: Optional[bool] = None
    W: Optional[Subspace] = None
    xs_quotient: Optional[tuple[GFVector, ...]] = None
    xs_ambient: Optional[tuple[GFVector, ...]] = None
    colour: Optional[int] = None

    @property
    def sup_sq(self) -> Optional[Fraction]:
        return None if self.verification is None else self.verification.sup_sq


def find_uniform_subspace(points: PointSet, params: PipelineParams) -> PipelineReport:
    """Search for a subspace V on which the set is C*eps-uniform (p = 2)."""
    if points.p != 2:
        raise InputError("find_uniform_subspace is defined over F_2 only")
    n = points.n
    d = params.resolved_d
    buckets = params.resolved_buckets
    max_codim = n if params.max_codim is None else params.max_codim
    if not params.min_codim <= max_codim <= n:
        raise InputError(
            f"need min_codim <= max_codim <= n, got "
            f"{params.min_codim}, {max_codim}, {n}"
        )
    attempts: list[PipelineAttempt] = []
    depth = max(params.min_codim, d)
    while depth <= max_codim:
        reg = regularity_decompose(
            points, params.eps, params.eta, min_codim=depth, max_codim=max_codim
        )
        if not reg.succeeded:
            attempts.append(PipelineAttempt(depth, reg, None, None))
            return PipelineReport(
                outcome="codim_exhausted",
                params=params,
                d=d,
                buckets=buckets,
                attempts=tuple(attempts),
                W=reg.space,
            )
        space = reg.space
        bad = {rep.rank for rep in reg.bad_reps}
        good = [q for q, rep in enumerate(_coset_rep_ranks(space)) if rep not in bad]
        colouring = bucket_colouring(reg.coset_counts, space, buckets, good)
        structure = find_union_structure(colouring, d)
        attempts.append(PipelineAttempt(depth, reg, colouring, structure))
        if structure is None:
            depth = space.codim + 1
            continue
        lifts = tuple(
            lift_from_quotient(space, x.rank) for x in structure.xs
        )
        candidate = extend_span(space, lifts)
        verification = uniformity_sup(
            points, Coset(candidate, GFVector.zero(2, n))
        )
        bound = Fraction(params.slack) * params.eps
        return PipelineReport(
            outcome="success",
            params=params,
            d=d,
            buckets=buckets,
            attempts=tuple(attempts),
            V=candidate,
            verification=verification,
            bound_ok=verification.sup_sq <= bound * bound,
            W=space,
            xs_quotient=structure.xs,
            xs_ambient=lifts,
            colour=structure.colour,
        )
    # attempts can be empty when the required depth already exceeds
    # max_codim; that is a codimension-budget problem, not a failed search
    return PipelineReport(
        outcome="ramsey_failure" if attempts else "codim_exhausted",
        params=params,
        d=d,
        buckets=buckets,
        attempts=tuple(attempts),
        W=attempts[-1].regularity.space if attempts else None,
    )


def subspace_scan_count(p: int, n: int, max_codim: int) -> int:
    """Number of subspaces of codimension 0..max_codim in F_p^n."""
    return sum(gaussian_binomial(p, n, n - c) for c in range(max_codim + 1))


def exhaustive_best_subspace(
    points: PointSet, max_codim: int, budget: int = ORACLE_BUDGET
) -> tuple[Subspace, Fraction]:
    """Ground-truth oracle: the subspace minimizing uniformity sup_sq.

    Scans every subspace of codimension 0..max_codim in the canonical
    enumeration order and evaluates the set's uniformity on it (coset of
    the zero vector).  Ties prefer smaller codimension, then earlier
    enumeration order.  Raises BudgetExceededError when the scan would
    evaluate more than `budget` subspaces.
    """
    p, n = points.p, points.n
    if not 0 <= max_codim <= n:
        raise InputError(f"max_codim {max_codim} out of range 0..{n}")
    total = subspace_scan_count(p, n, max_codim)
    if total > budget:
        raise BudgetExceededError(
            f"scan of {total} subspaces exceeds budget {budget}"
        )
    mem = points.membership_table()
    best_num = best_rows = None
    best_den = 1
    for codim in range(max_codim + 1):
        k = n - codim
        scale_sq = p ** (2 * k)
        for _, rows in _rref_bases_raw(p, n, k):
            pts = _span_ranks(p, n, rows)
            if p == 2:
                packed = _packed(mem, pts)
                max_sq, _ = packed_max_coef_sq(packed, packed.bit_count(), k)
            else:
                transformed = _dft3_pairs([(mem[v], 0) for v in pts])
                max_sq = max(
                    (a * a - a * b + b * b for a, b in transformed[1:]), default=0
                )
            if best_num is None or max_sq * best_den < best_num * scale_sq:
                best_num = max_sq
                best_den = scale_sq
                best_rows = rows
            if best_num == 0:
                break
        if best_num == 0:
            break
    assert best_rows is not None
    winner = Subspace(
        p, n, tuple(GFVector.from_rank(p, n, r) for r in best_rows)
    )
    return winner, Fraction(best_num, best_den)


def leading_one_set(n: int) -> PointSet:
    """{x in F_3^n : the first nonzero coordinate of x is 1}.

    Contains (3^n - 1)/2 points: exactly one of x, -x for each nonzero x.
    """
    if not 1 <= n <= 5:
        raise InputError(f"leading_one_set supports 1 <= n <= 5, got {n}")
    bits = 0
    for rank in range(1, 3**n):
        v = GFVector.from_rank(3, n, rank)
        first = next(c for c in v.coords if c)
        if first == 1:
            bits |= 1 << rank
    return PointSet(3, n, bits)


@dataclass(frozen=True)
class F3SubspaceRecord:
    """Checks for one positive-dimensional subspace V of F_3^n.

    sup_passed:      sup_sq >= 1/12 on V;
    witness_identity_holds: the coefficient a + b*w at the first pivot
                     frequency satisfies 3*b = -|V|;
    inclusions_hold: {x in V : x_j = 1} lies inside the set and
                     {x in V : x_j = 2} misses it (j = first pivot);
    equidistribution_holds: |{x in V : x_j = 1}| = |V| / 3.
    """

    space: Subspace
    sup_sq: Fraction
    witness_r: Optional[GFVector]
    sup_passed: bool
    witness_identity_holds: bool
    inclusions_hold: bool
    equidistribution_holds: bool

    @property
    def passed(self) -> bool:
        return (
            self.sup_passed
            and self.witness_identity_holds
            and self.inclusions_hold
            and self.equidistribution_holds
        )


@dataclass(frozen=True)
class F3Report:
    """Exhaustive scan result over all positive-dimensional subspaces."""

    n: int
    records: tuple[F3SubspaceRecord, ...]
    all_passed: bool

    @property
    def total_subspaces(self) -> int:
        return len(self.records)

    def min_sup_sq(self) -> Fraction:
        return min(r.sup_sq for r in self.records)


LOWER_BOUND_SQ = Fraction(1, 12)


def scan_leading_one_set(n: int, long_run: bool = False) -> F3Report:
    """Certify the 1/12 lower bound on every subspace of F_3^n.

    Enumerates every subspace V with dim V >= 1 and records, per
    subspace, the exact uniformity sup_sq together with the structural
    identities that force it: with j the first pivot coordinate of V,
    the slice {x in V : x_j = 1} lies inside the set, the slice
    {x in V : x_j = 2} misses it entirely, each slice holds |V|/3
    points, and the coefficient at frequency e_j is a + b*w with
    3*b = -|V|, so its squared magnitude is already >= 1/12.

    n = 5 enumerates 2,663 subspaces and sits behind long_run.
    """
    if not 1 <= n <= 5:
        raise InputError(f"scan supports 1 <= n <= 5, got {n}")
    if n == 5 and not long_run:
        raise InputError("n = 5 scans every subspace of F_3^5; pass long_run=True")
    points = leading_one_set(n)
    records: list[F3SubspaceRecord] = []
    for k in range(1, n + 1):
        for space in enumerate_subspaces(3, n, k):
            spectrum = restricted_spectrum(points, Coset(space, GFVector.zero(3, n)))
            report = spectrum.uniformity()
            j = space.pivots[0]
            t_index = spectrum.class_index(GFVector.unit(3, n, j))
            coef = spectrum.coefficients[t_index]
            assert isinstance(coef, Eisenstein)
            identity = 3 * coef.b == -space.size
            weight = 3 ** (n - j)  # the rank weight of coordinate j
            ones = twos = member_ones = member_twos = 0
            for rank in space.point_ranks():
                digit = rank // weight % 3
                if digit == 1:
                    ones += 1
                    member_ones += points.contains_rank(rank)
                elif digit == 2:
                    twos += 1
                    member_twos += points.contains_rank(rank)
            inclusions = member_ones == ones and member_twos == 0
            equidistribution = 3 * ones == space.size and ones == twos
            records.append(
                F3SubspaceRecord(
                    space=space,
                    sup_sq=report.sup_sq,
                    witness_r=report.witness_r,
                    sup_passed=report.sup_sq >= LOWER_BOUND_SQ,
                    witness_identity_holds=identity,
                    inclusions_hold=inclusions,
                    equidistribution_holds=equidistribution,
                )
            )
    return F3Report(
        n=n,
        records=tuple(records),
        all_passed=all(r.passed for r in records),
    )
