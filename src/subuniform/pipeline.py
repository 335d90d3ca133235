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
scans every subspace V of codimension <= max_codim (Gaussian-binomial
counts, budget-guarded) and returns the minimizer of sup_sq.  It
transforms the set once over the whole space and reads each V through
its annihilator W (dim W = codim V): by Poisson summation the sum of
the full transform over a coset r + W is |W| times V's coefficient at
the character r induces on V.  Over F_2 the walk comes in blocks that
share a pivot profile, and _f2_survivors rules out whole blocks by list
gathers before the per-subspace loop.

Over F_3 no analogous search can succeed: leading_one_set builds the
set whose members have first nonzero coordinate 1, and
scan_leading_one_set certifies, for every positive-dimensional subspace
V, a nontrivial coefficient of squared magnitude >= 1/12.  Writing the
coefficient at the first pivot frequency as a + b*w, its imaginary part
is pinned by the exact identity 3*b = -|V|, which the scan checks
together with the structural inclusions behind it.  The scan streams
over the canonical walk with one transform per subspace and keeps only
the count, the exact minimum and the failing subspaces.  Both F_3 loops,
the oracle's and the scan's, add vectors as trit planes (see gf_core).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import isqrt
from operator import xor
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError, InputError
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_rep_ranks,
    _rref_blocks,
    _rref_walk,
    _trit_add,
    _trit_planes,
    _trit_ranks,
    _trit_span,
    _trit_table,
    extend_span,
    gaussian_binomial,
    lift_from_quotient,
    perp,
    rref_basis,
)
from .increments import PipelineParams, RegularityResult, regularity_decompose
from .ramsey import AlmostColouring, UnionStructure, bucket_colouring, find_union_structure
from .spectra import (
    UniformityReport,
    _dft3_pairs,
    uniformity_sup,
    wht2,
)

ORACLE_BUDGET = 10**7
# The F_2 oracle cuts its blocks so that their span lists hold at most
# _SPAN_CELLS ranks, about 0.5 MB of list slots.
_SPAN_CELLS = 1 << 16


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


def _f2_survivors(
    F: list[int],
    order: Sequence[int],
    best: int,
    rows: list[list[int]],
) -> Iterator[tuple[int, ...]]:
    """W's span for each subspace of a block that no single r rules out.

    rows[f][j] is annihilator row f (there is at least one) of the
    block's j-th subspace, and all its subspaces share one pivot
    profile.  The span lists are built once by XOR maps, in the span
    order of gf_core._span_ranks.  Then, for r in `order`, S(r) is
    summed for every kept subspace by list gathers of the shifted
    table x -> F(r + x), and a subspace is dropped when S(r)^2 >= best
    unless r lies in its W.  A round whose gathers would be fewer than
    one table's 2^n entries costs more than it can save, so the rounds
    stop there and the survivors' spans are yielded, in walk order.
    """
    spans = [[0] * len(rows[0])]
    for row in reversed(rows):
        spans += [list(map(xor, span, row)) for span in spans]
    # w_f has no entry right of its free column f, which is its lowest
    # set bit; r's bits there pick the one span point that can equal r
    lows = [row[0] & -row[0] for row in rows]
    limit = isqrt(best - 1) + 1  # S^2 >= best exactly when |S| >= limit
    keys = range(len(F))
    for r in order:
        if len(spans[0]) * len(spans) < len(F):
            break
        fr = [F[r ^ x] for x in keys]
        first = fr[0]
        sums = [first + fr[x] for x in spans[1]]
        for one, two in zip(spans[2::2], spans[3::2]):
            sums = [s + fr[x] + fr[y] for s, x, y in zip(sums, one, two)]
        at = 0
        for low in lows:
            at = 2 * at + (r & low > 0)
        keep = [-limit < s < limit or x == r for s, x in zip(sums, spans[at])]
        if not all(keep):
            spans = [list(compress(span, keep)) for span in spans]
    return zip(*spans)


def exhaustive_best_subspace(
    points: PointSet, max_codim: int, budget: int = ORACLE_BUDGET
) -> tuple[Subspace, Fraction]:
    """Ground-truth oracle: the subspace minimizing uniformity sup_sq.

    Scans every subspace V of codimension 0..max_codim in the canonical
    enumeration order and scores the set's uniformity on it (coset of
    the zero vector) through its annihilator W: with F the full
    transform, computed once, and S(r) the sum of F(r + s) over s in W,
    sup_sq(V) = max over r outside W of |S(r)|^2 / p^(2n).  Every score
    has that denominator, so all comparisons are on integers.  Ties
    prefer smaller codimension, then earlier enumeration order, so V is
    abandoned at the first r with |S(r)|^2 >= the best so far (r is
    tried by descending |F(r)|^2), and the scan stops at the first V
    with sup_sq = 0.  Raises BudgetExceededError when the scan would
    evaluate more than `budget` subspaces.

    For p = 2 the walk comes in blocks (gf_core._rref_blocks), and
    _f2_survivors first rules out whole blocks by list rounds against
    the best at the block's start.  That is exact because best only
    falls: an r outside W with |S(r)|^2 >= best proves that V cannot
    win, as ties go to the earlier subspace.  The survivors then go
    through the per-subspace loop above, in walk order.
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
    if p == 2:
        F = wht2(mem)
        keys = range(2**n)

        def coset_sq(r: int, span: Sequence[int]) -> int:
            s = 0
            for x in span:
                s += F[r ^ x]
            return s * s

    else:
        # r and W's span are trit planes; every r + x is read by its rank
        F3 = _dft3_pairs([(m, 0) for m in mem])
        T = _trit_table(n)
        keys = [_trit_planes(r) for r in range(3**n)]

        def coset_sq(r: tuple[int, int], span: Sequence[tuple[int, int]]) -> int:
            a = b = 0
            for lo, hi in _trit_add([r], span):
                fa, fb = F3[T[lo] + 2 * T[hi]]
                a += fa
                b += fb
            return a * a - a * b + b * b

    order = sorted(keys[1:], key=lambda r: coset_sq(r, [keys[0]]), reverse=True)

    def candidates(c: int) -> Iterator[Sequence]:
        """W's span for each codim-c subspace still in the running."""
        if p == 3:
            for rows in _rref_walk(3, n, n - c, annihilator=True):
                yield _trit_span([keys[w] for w in rows])
            return
        if c == 0:
            yield (0,)  # W = {0}: V is the whole space
            return
        most = max(1, _SPAN_CELLS >> c)
        for start, tails in _rref_blocks(2, n, n - c, annihilator=True, most=most):
            rows = [[s + t for t in tail] for s, tail in zip(start, tails)]
            # best is read here, as the block starts
            yield from _f2_survivors(F, order, best, rows)

    best = p ** (2 * n) + 1  # above every |S|^2, since |S| <= p^n
    best_span: Sequence = [keys[0]]
    for span in chain.from_iterable(map(candidates, range(max_codim + 1))):
        for r in order:
            if r not in span and coset_sq(r, span) >= best:
                break  # V cannot win: ties go to the earlier subspace
        else:
            best = max((coset_sq(r, span) for r in order if r not in span), default=0)
            best_span = span
            if best == 0:
                break
    ranks = best_span if p == 2 else _trit_ranks(n, best_span)
    winner = perp(rref_basis([GFVector.from_rank(p, n, r) for r in ranks]))
    return winner, Fraction(best, p ** (2 * n))


def leading_one_set(n: int) -> PointSet:
    """{x in F_3^n : the first nonzero coordinate of x is 1}.

    Contains (3^n - 1)/2 points: exactly one of x, -x for each nonzero x.
    """
    if not 1 <= n <= 6:
        raise InputError(f"leading_one_set supports 1 <= n <= 6, got {n}")
    bits = 0
    for rank in range(1, 3**n):
        v = GFVector.from_rank(3, n, rank)
        first = next(c for c in v.coords if c)
        if first == 1:
            bits |= 1 << rank
    return PointSet(3, n, bits)


@dataclass(frozen=True)
class F3Report:
    """Exhaustive scan result over all positive-dimensional subspaces.

    failures holds, in enumeration order, every subspace that misses
    one of the scan's checks; all_passed holds exactly when it is empty.
    """

    n: int
    total_subspaces: int
    minimum: Fraction
    failures: tuple[Subspace, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def min_sup_sq(self) -> Fraction:
        return self.minimum


LOWER_BOUND_SQ = Fraction(1, 12)


def scan_leading_one_set(n: int, long_run: bool = False) -> F3Report:
    """Certify the LOWER_BOUND_SQ = 1/12 floor on every subspace of F_3^n.

    Walks every subspace V with dim V >= 1 in the canonical enumeration
    order, reads V's membership table through its trit-plane span, and
    transforms it once.  With j the first pivot coordinate of V, V
    fails when any of these does not hold:

    * sup_sq >= LOWER_BOUND_SQ;
    * the coefficient at frequency e_j is a + b*w with 3*b = -|V|,
      which alone forces a squared magnitude >= 1/12;
    * the slice {x in V : x_j = 1} lies inside the set and the slice
      {x in V : x_j = 2} misses it (coordinate j is one bit of each plane);
    * each slice holds |V|/3 points.

    Only failing subspaces are kept; the report carries the count and
    the exact minimum sup_sq.  n = 5 (2,663 subspaces) and n = 6 (56,631)
    sit behind long_run; n >= 7 is refused.
    """
    if not 1 <= n <= 6:
        raise InputError(f"scan supports 1 <= n <= 6, got {n}")
    if n >= 5 and not long_run:
        raise InputError(
            f"n = {n} scans every subspace of F_3^{n}; pass long_run=True"
        )
    mem = leading_one_set(n).membership_table()
    floor = LOWER_BOUND_SQ
    minimum = Fraction(1)  # no coefficient exceeds |V| in magnitude
    total = 0
    failures: list[Subspace] = []
    for k in range(1, n + 1):
        size = 3**k
        for rows in _rref_walk(3, n, k):
            planes = [_trit_planes(r) for r in rows]
            span = _trit_span(planes)
            table = [mem[r] for r in _trit_ranks(n, span)]
            coefs = _dft3_pairs([(m, 0) for m in table])
            # sup_sq is best / size^2; fractions compare by cross-multiplying
            best = max(a * a - a * b + b * b for a, b in coefs[1:])
            if best * minimum.denominator < minimum.numerator * size * size:
                minimum = Fraction(best, size * size)
            # e_j is 1 on V's first row and 0 on the others: index 3^(k-1)
            identity = 3 * coefs[size // 3][1] == -size
            # the first row's leading trit is its pivot, coordinate j
            bit = 1 << (planes[0][0] | planes[0][1]).bit_length() - 1
            ones = [m for (x_lo, _), m in zip(span, table) if x_lo & bit]
            twos = [m for (_, x_hi), m in zip(span, table) if x_hi & bit]
            total += 1
            if (
                best * floor.denominator < floor.numerator * size * size
                or not identity
                or not (all(ones) and not any(twos))
                or not 3 * len(ones) == 3 * len(twos) == size
            ):
                failures.append(
                    Subspace(3, n, tuple(GFVector.from_rank(3, n, r) for r in rows))
                )
    return F3Report(n, total, minimum, tuple(failures))
