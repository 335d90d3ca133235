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
counts, budget-guarded) and returns the minimizer of sup_sq.  Its
scores come from _scores_below, which transforms the set once over the
whole space and reads each V through its annihilator W (dim W = codim
V): by Poisson summation the sum of the full transform over a coset
r + W is |W| times V's coefficient at the character r induces on V.
Over both fields the walk comes in blocks that share a pivot profile,
and _f2_survivors or _f3_survivors rules out whole blocks by list
gathers before the per-subspace loop.

Over F_3 no analogous search can succeed: leading_one_set builds the
set whose members have first nonzero coordinate 1, and
scan_leading_one_set certifies, for every positive-dimensional subspace
V, a nontrivial coefficient of squared magnitude >= 1/12.  It reads
sup_sq through _scores_below, as the oracle does, and reads V's points
for the identity 3*b = -|V| on the coefficient a + b*w at the first
pivot frequency and the slice inclusions behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress
from math import ceil, isqrt
from operator import xor
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, InputError
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_rep_ranks,
    _rref_blocks,
    _trit_add,
    _trit_block_spans,
    _trit_keys,
    _trit_ranks,
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
# The oracle and the ternary scan cut their blocks so that their span
# lists hold at most _SPAN_CELLS ranks, about 0.5 MB of list slots.
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


def _f3_survivors(
    n: int,
    parts: tuple[list[int], list[int]],
    order: Sequence[int],
    best: int,
    rows: list[list[int]],
) -> Iterator[list[tuple[int, int]]]:
    """W's span for each subspace of a block of F_3^n that no r rules out.

    The F_3 twin of _f2_survivors, with the same rows.  With
    parts = (A, B) the transform at rank x is A[x] + B[x] w.  The span
    lists are ranks, from gf_core._trit_block_spans.  For r in `order`,
    one trit-plane add of r to every point gives the shifted table
    x -> rank(r + x); the a- and b-parts of S(r) are summed for every
    kept subspace by list gathers through it, and a subspace is dropped
    when |S(r)|^2 = a^2 - ab + b^2 >= best unless r lies in its W.  The
    rounds stop when kept * 3^c < 3^n, as over F_2, and the survivors'
    spans are yielded as trit planes, in walk order.
    """
    keys = _trit_keys(n)
    spans = _trit_block_spans(n, rows)
    # w_f's lowest nonzero digit is a 1 at its free column f, the lowest
    # set bit of its lo plane; r's digits there pick the one span point
    # that can equal r
    lows = [lo & -lo for lo, _ in (keys[row[0]] for row in rows)]
    FA, FB = parts
    for r in order:
        if len(spans[0]) * len(spans) < len(keys):
            break
        shifted = _trit_ranks(n, _trit_add([keys[r]], keys))
        fa = [FA[x] for x in shifted]
        fb = [FB[x] for x in shifted]
        a0, b0 = fa[0], fb[0]
        sa = [a0 + fa[x] + fa[y] for x, y in zip(spans[1], spans[2])]
        sb = [b0 + fb[x] + fb[y] for x, y in zip(spans[1], spans[2])]
        for one, two in zip(spans[3::2], spans[4::2]):
            sa = [s + fa[x] + fa[y] for s, x, y in zip(sa, one, two)]
            sb = [s + fb[x] + fb[y] for s, x, y in zip(sb, one, two)]
        rl, rh = keys[r]
        at = 0
        for low in lows:
            at = 3 * at + (rl & low > 0) + 2 * (rh & low > 0)
        keep = [
            a * a - a * b + b * b < best or x == r
            for a, b, x in zip(sa, sb, spans[at])
        ]
        if not all(keep):
            for i, span in enumerate(spans):
                spans[i] = list(compress(span, keep))
    return ([keys[x] for x in span] for span in zip(*spans))


def _scores_below(
    points: PointSet, max_codim: int, threshold: Callable[[], int]
) -> Iterator[tuple[Sequence[int], int]]:
    """(W's span as ranks, score) for each V that scores below threshold().

    Walks the subspaces V of codimension 0..max_codim in the canonical
    order, in blocks (gf_core._rref_blocks), and reads the set on each
    through its annihilator W: with F the full transform, computed once,
    and S(r) the sum of F(r + s) over s in W, V's score is the integer
    p^(2n) * sup_sq(V) = max over r outside W of |S(r)|^2.  r is tried
    by descending |F(r)|^2, and V is dropped at the first r with
    |S(r)|^2 >= threshold(): first by _f2_survivors or _f3_survivors,
    which rule out whole blocks by list gathers against the threshold at
    the block's start, then in the per-subspace loop.  That is exact
    because no caller ever raises its threshold.
    """
    p, n = points.p, points.n
    mem = points.membership_table()
    if p == 2:
        F = wht2(mem)
        keys = range(2**n)
        sq = [f * f for f in F]

        def coset_sq(r: int, span: Sequence[int]) -> int:
            s = 0
            for x in span:
                s += F[r ^ x]
            return s * s

        screen = partial(_f2_survivors, F)
    else:
        # r and W's span are trit planes; every r + x is read by its rank
        F3 = _dft3_pairs([(m, 0) for m in mem])
        T = _trit_table(n)
        keys = _trit_keys(n)
        parts = [a for a, _ in F3], [b for _, b in F3]
        screen = partial(_f3_survivors, n, parts)
        sq = [a * a - a * b + b * b for a, b in F3]

        def coset_sq(r: tuple[int, int], span: Sequence[tuple[int, int]]) -> int:
            a = b = 0
            for lo, hi in _trit_add([r], span):
                fa, fb = F3[T[lo] + 2 * T[hi]]
                a += fa
                b += fb
            return a * a - a * b + b * b

    order = sorted(range(1, p**n), key=sq.__getitem__, reverse=True)

    def candidates(c: int) -> Iterator[Sequence]:
        """W's span for each codim-c subspace still in the running."""
        if c == 0:
            yield [keys[0]]  # W = {0}: V is the whole space
            return
        most = max(1, _SPAN_CELLS // p**c)
        for rows in _rref_blocks(p, n, n - c, annihilator=True, most=most):
            yield from screen(order, threshold(), rows)

    # the per-subspace loop reads r as the span does: a rank, or trit planes
    tried = order if p == 2 else [keys[r] for r in order]
    for span in chain.from_iterable(map(candidates, range(max_codim + 1))):
        bound = threshold()
        for r in tried:
            if r not in span and coset_sq(r, span) >= bound:
                break
        else:
            score = max((coset_sq(r, span) for r in tried if r not in span), default=0)
            yield span if p == 2 else _trit_ranks(n, span), score


def exhaustive_best_subspace(
    points: PointSet, max_codim: int, budget: int = ORACLE_BUDGET
) -> tuple[Subspace, Fraction]:
    """Ground-truth oracle: the subspace minimizing uniformity sup_sq.

    Scores every subspace of codimension 0..max_codim by _scores_below
    against the best so far.  Ties prefer smaller codimension, then
    earlier enumeration order, and the scan stops at the first V with
    sup_sq = 0.  Raises BudgetExceededError when the scan would evaluate
    more than `budget` subspaces, InputError when budget < 0.
    """
    p, n = points.p, points.n
    if not 0 <= max_codim <= n:
        raise InputError(f"max_codim {max_codim} out of range 0..{n}")
    if budget < 0:
        raise InputError(f"budget must be at least 0, got {budget}")
    total = subspace_scan_count(p, n, max_codim)
    if total > budget:
        raise BudgetExceededError(
            f"scan of {total} subspaces exceeds budget {budget}"
        )
    best = p ** (2 * n) + 1  # above every |S|^2, since |S| <= p^n
    # the whole space comes first and scores below that, so best_span is set
    for best_span, best in _scores_below(points, max_codim, lambda: best):
        if best == 0:
            break
    winner = perp(rref_basis([GFVector.from_rank(p, n, r) for r in best_span]))
    return winner, Fraction(best, p ** (2 * n))


# leading_one_set and scan_leading_one_set refuse larger n
MAX_TERNARY_N = 6


def leading_one_set(n: int) -> PointSet:
    """{x in F_3^n : the first nonzero coordinate of x is 1}.

    Contains (3^n - 1)/2 points: exactly one of x, -x for each nonzero x.
    """
    if not 1 <= n <= MAX_TERNARY_N:
        raise InputError(f"leading_one_set supports 1 <= n <= {MAX_TERNARY_N}, got {n}")
    # the leading digit is 1 exactly for the ranks in [3^k, 2 * 3^k)
    ranks = chain.from_iterable(range(3**k, 2 * 3**k) for k in range(n))
    return PointSet.from_ranks(3, n, ranks)


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


LOWER_BOUND_SQ = Fraction(1, 12)


def scan_leading_one_set(n: int, long_run: bool = False) -> F3Report:
    """Certify the LOWER_BOUND_SQ = 1/12 floor on every subspace of F_3^n.

    Covers every subspace V with dim V >= 1.  sup_sq comes from the
    oracle's _scores_below over codimension 0..n-1, against the
    threshold max(best, ceil(9^n * LOWER_BOUND_SQ)), which never rises:
    it yields the exact minimum and every V below the floor.  The other
    checks read V's points, in the canonical enumeration order, by the
    blocks of gf_core._rref_blocks spanned by _trit_block_spans.  With j
    the first pivot coordinate of V, shared by its block, V fails when
    any of these does not hold:

    * sup_sq >= LOWER_BOUND_SQ (V is matched by its RREF basis ranks);
    * the coefficient at frequency e_j is a + b*w with 3*b = -|V|,
      which alone forces a squared magnitude >= 1/12 (b counts the
      members at x_j = 2 less those at x_j = 1);
    * the slice {x in V : x_j = 1} lies inside the set and the slice
      {x in V : x_j = 2} misses it (coordinate j is one bit of each plane);
    * each slice holds |V|/3 points.

    The report keeps the count, the exact minimum and the failures.
    n = 5 (2,663 subspaces) and n = 6 (56,631) sit behind long_run.
    """
    if not 1 <= n <= MAX_TERNARY_N:
        raise InputError(f"scan supports 1 <= n <= {MAX_TERNARY_N}, got {n}")
    if n >= 5 and not long_run:
        raise InputError(
            f"n = {n} scans every subspace of F_3^{n}; pass long_run=True"
        )
    A = leading_one_set(n)
    # scores are integers: below 9^n * LOWER_BOUND_SQ means below its ceiling
    floor = ceil(9**n * LOWER_BOUND_SQ)
    best = 9**n + 1  # above every score
    below = set()
    for span, score in _scores_below(A, n - 1, lambda: max(best, floor)):
        best = min(best, score)
        if score < floor:
            V = perp(rref_basis([GFVector.from_rank(3, n, r) for r in span]))
            below.add(tuple(v.rank for v in V.basis))
    mem = A.membership_table()
    keys = _trit_keys(n)
    total = 0
    failures: list[Subspace] = []
    for k in range(1, n + 1):
        size = 3**k
        for rows in _rref_blocks(3, n, k, most=max(1, _SPAN_CELLS // size)):
            # the first row's leading trit is its pivot, coordinate j, and
            # the block shares its pivots
            lo, hi = keys[rows[0][0]]
            bit = 1 << (lo | hi).bit_length() - 1
            for basis, span in zip(zip(*rows), zip(*_trit_block_spans(n, rows))):
                ones = [mem[x] for x in span if keys[x][0] & bit]
                twos = [mem[x] for x in span if keys[x][1] & bit]
                total += 1
                if (
                    basis in below
                    or 3 * (sum(twos) - sum(ones)) != -size
                    or not (all(ones) and not any(twos))
                    or not 3 * len(ones) == 3 * len(twos) == size
                ):
                    vectors = (GFVector.from_rank(3, n, r) for r in basis)
                    failures.append(Subspace(3, n, tuple(vectors)))
    return F3Report(n, total, Fraction(best, 9**n), tuple(failures))
