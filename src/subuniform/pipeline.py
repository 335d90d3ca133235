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
V): by Poisson summation the coset sum S(r) of the full transform over
r + W is |W| times V's coefficient at the character r induces on V.
Both fields share one coset-sum engine, _CosetSums, with field hooks
for the per-subspace sums, the packing, the order and the values a
squared coefficient can take.  The walk (gf_core._rref_blocks) hands
out blocks that share a pivot profile, each as its free columns and its
annihilators' span lists, and four filters drop, in this order, the
subspaces that score at least the best so far:

1. a caller's visit, which sees every subspace of the block;
2. the Parseval round (_CosetSums.parseval): one gather of S(0) = |W| m,
   m = |A cap V|, and V is out when |W|^2 times the least value its
   largest nontrivial squared coefficient can take, given that the
   squares sum to |V| m - m^2 over the |V| - 1 nontrivial characters,
   reaches the best; the gather is skipped when no m could get there;
3. _CosetSums.screen, list gathers (_gather) through shifted tables
   x -> F(r + x), each built for the round that reads it: two r per
   table over F_2, and over F_3 both parts of F(x) = a + b*w of one r,
   one of each pair r, -r;
4. _CosetSums.tries, which scores each survivor by its own coset sums
   over all of the order.

Over F_3 no analogous search can succeed: leading_one_set builds the
set whose members have first nonzero coordinate 1, and
scan_leading_one_set certifies, for every positive-dimensional subspace
V, a nontrivial coefficient of squared magnitude >= 1/12.  It is one
walk: _scores_below gives sup_sq, and on each block one gather gives
S(e_j), j the first pivot, which is |W| times V's coefficient a + b*w
at e_j.  V passes when 3*b = -|V|, which puts the slice x_j = 1 inside
the set and the slice x_j = 2 outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress
from math import ceil, isqrt
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, InputError
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_rep_ranks,
    _rref_blocks,
    _trit_halves,
    extend_span,
    gaussian_binomial,
    lift_from_quotient,
    perp,
    rref_basis,
)
from .increments import PipelineParams, RegularityResult, regularity_decompose
from .ramsey import UnionStructure, bucket_colouring, find_union_structure
from .spectra import (
    UniformityReport,
    _dft3_pairs,
    uniformity_sup,
    wht2,
)

ORACLE_BUDGET = 10**7


@dataclass(frozen=True)
class PipelineAttempt:
    """Diagnostics for one escalation step of the pipeline."""

    min_codim: int
    regularity: RegularityResult
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
            attempts.append(PipelineAttempt(depth, reg, None))
            return PipelineReport(
                outcome="codim_exhausted",
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
        attempts.append(PipelineAttempt(depth, reg, structure))
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
        d=d,
        buckets=buckets,
        attempts=tuple(attempts),
        W=attempts[-1].regularity.space if attempts else None,
    )


def subspace_scan_count(p: int, n: int, max_codim: int) -> int:
    """Number of subspaces of codimension 0..max_codim in F_p^n."""
    return sum(gaussian_binomial(p, n, n - c) for c in range(max_codim + 1))


def _gather(table: list[int], spans: list[list[int]]) -> list[int]:
    """The sum of table over each span of a block; span point 0 is 0."""
    lone = 1 - len(spans) % 2  # 2^c points: one after 0 before the pairs
    sums = [table[0] + table[x] for x in spans[1]] if lone else [table[0]] * len(spans[0])
    for one, two in zip(spans[1 + lone :: 2], spans[2 + lone :: 2]):
        sums = [s + table[x] + table[y] for s, x, y in zip(sums, one, two)]
    return sums


def _kept(spans: list[list[int]], keep: list[bool]) -> list[list[int]]:
    """A block's span lists cut down to the subspaces that keep marks."""
    return spans if all(keep) else [list(compress(span, keep)) for span in spans]


def _mean_sq(v: int, m: int) -> int:
    """ceil((v m - m^2) / (v - 1)): the v - 1 nontrivial squared magnitudes on
    a V of v points holding m members sum to v m - m^2, so the largest is
    at least this."""
    return -((m * m - v * m) // (v - 1))


def _least2(q: int, m: int) -> int:
    """The least t^2 >= q with t = m mod 2: each F_2 coefficient on V is m minus an even number."""
    t = isqrt(q - 1) + 1 if q else 0
    return (t + (t - m) % 2) ** 2


def _least3(q: int, m: int) -> int:
    """The least u >= q with u = m^2 mod 3: a^2 - ab + b^2 = (a + b)^2 = m^2 mod 3 over F_3."""
    return q + (m * m - q) % 3


Sums = tuple[list[int], list[int]]  # the a- and b-parts of one S per subspace
Visit = Callable[[list[int], list[list[int]], Callable[[int], Sums]], list[bool]]


class _CosetSums:
    """Coset sums S(r) = sum over s in W of F(r + s) of one transform F.

    F is wht2's over F_2 and _dft3_pairs' over F_3.  base holds F one
    int per point with a bias B, the largest |F| (over F_3, |a| or |b|),
    added to every part: F(x) + B, or (a + B) 2^K + (b + B) for F(x) =
    a + b w, K the bit length of 2 B p^max_codim, so a sum of m <=
    p^max_codim entries keeps each part in [0, 2 B m] and never carries.
    `order` lists r by descending norm: every r over F_2; over F_3 the r
    whose leading digit is 1, as for a 0/1 set S(-r) is the conjugate of
    S(r) and -r lies in W when r does.

    screen serves both fields, which differ in hooks set in __init__:
    a subspace's own sums over all of order (tries: by XOR, or by digit
    halves), what one int of a screen round holds (keep), the r a round
    takes (step), the order, and, for the Parseval round (parseval), the
    values a squared coefficient can take (least) and the bit offset of
    the part of base that S(0) is read from (real: 0, or the a-part's
    shift over F_3).  Each screen round, and each read, builds the one
    table its gather reads, and no table is kept.  Over F_3, r + x comes
    from gf_core's digit halves (_trit_halves).  read reads F_3 sums
    only.
    """

    def __init__(self, p: int, n: int, F: Sequence, max_codim: int) -> None:
        self.p, self.n, self.size = p, n, p**n
        self.bias = bias = max(map(abs, F if p == 2 else chain.from_iterable(F)))
        self.shift = (2 * bias * p**max_codim).bit_length()
        self.mask = (1 << self.shift) - 1
        if p == 2:
            self.order = sorted(range(1, self.size), key=[f * f for f in F].__getitem__, reverse=True)
            self.base = [f + bias for f in F]
            self.keep, self.tries, self.step = self._keep2, self._tries2, 2
            self.least, self.real = _least2, 0
        else:
            norms = [a * a - a * b + b * b for a, b in F]
            self.order = sorted(_leading_ones(n), key=norms.__getitem__, reverse=True)
            self.base = [((a + bias) << self.shift) + b + bias for a, b in F]
            self.keep, self.tries, self.step = self._keep3, self._tries3, 1
            self.least, self.real = _least3, self.shift

    def _tries2(self, span: Sequence[int], bound: int) -> Optional[int]:
        """max S(r)^2 over r outside W, or None at the first one >= bound; by XOR."""
        base, top, s0 = self.base, 0, -len(span) * self.bias
        for r in self.order:
            if r in span:
                continue
            s = s0
            for x in span:
                s += base[r ^ x]
            s *= s
            if s >= bound:
                return None
            if s > top:
                top = s
        return top

    def _tries3(self, span: Sequence[int], bound: int) -> Optional[int]:
        """_tries2 over F_3, with r + x by digit halves and |S(r)|^2 = a^2 - ab + b^2."""
        base, n, cut, top = self.base, self.n, 3 ** (self.n // 2), 0
        shift, mask, off = self.shift, self.mask, len(span) * self.bias
        parts = [divmod(x, cut) for x in span]
        for r in self.order:
            if r in span:
                continue
            H, L = _trit_halves(n, r)
            s = 0
            for u, v in parts:
                s += base[H[u] + L[v]]
            a, b = (s >> shift) - off, (s & mask) - off
            sq = a * a - a * b + b * b
            if sq >= bound:
                return None
            if sq > top:
                top = sq
        return top

    def table(self, r: int) -> list[int]:
        """The shifted table x -> base[r + x] of r."""
        (H, L), base = _trit_halves(self.n, r), self.base
        return [base[h + l] for h in H for l in L]

    def _keep2(self, i: int, best: int, spans: list[list[int]], at: Callable[[int], int]) -> list[bool]:
        """The F_2 round at order[i]: one gather sums S(r0) and S(r1).

        r0 = order[i] and r1 the next r (the last r pairs with itself);
        entry x of the block's table is (F(r0 + x) + B) 2^K + F(r1 + x) +
        B, so a sum over W holds S + B |W| in [0, 2^K) per half, and S^2
        < best exactly when that lies strictly between bottom and top.
        """
        r0, r1 = self.order[i], self.order[min(i + 1, len(self.order) - 1)]
        base, shift = self.base, self.shift
        table = [(base[r0 ^ x] << shift) + base[r1 ^ x] for x in range(self.size)]
        limit = isqrt(best - 1) + 1
        mid, mask = len(spans) * self.bias, self.mask
        bottom, top = mid - limit, mid + limit
        floor, ceiling = bottom + 1 << shift, top << shift
        return [
            (floor <= s < ceiling or x == r0) and (bottom < s & mask < top or y == r1)
            for s, x, y in zip(_gather(table, spans), spans[at(r0)], spans[at(r1)])
        ]

    def _keep3(self, i: int, best: int, spans: list[list[int]], at: Callable[[int], int]) -> list[bool]:
        """The F_3 round at order[i]: one gather of r's table sums both parts of S(r)."""
        r = self.order[i]
        A, B = self.read(r, spans)
        return [a * a - a * b + b * b < best or x == r for a, b, x in zip(A, B, spans[at(r)])]

    def floor(self, v: int, m: int) -> int:
        """The least value |c|^2 can take at V's largest nontrivial coefficient c.

        V has v points and holds m members; its trivial coefficient is m
        and the squared magnitudes of all v sum to v m (Parseval), so the
        largest nontrivial one is at least _mean_sq(v, m), and at least
        the next value >= that it can take (least: _least2, _least3).
        """
        return self.least(_mean_sq(v, m), m)

    def top_floor(self, v: int) -> int:
        """At least floor(v, m) for every m: _mean_sq(v, m) peaks at m = v // 2,
        and least grows with its q and reads m mod p alone."""
        q = _mean_sq(v, v // 2)
        return max(self.least(q, m) for m in range(self.p))

    def parseval(self, best: int, spans: list[list[int]]) -> list[list[int]]:
        """The block's span lists without each subspace that Parseval rules out.

        One gather of the unshifted base over the spans gives S(0) = |W|
        m, m the members in V (over F_3 as its a-part), and V is dropped
        when |W|^2 floor(|V|, m) >= best: its score is at least that.
        The gather is skipped when the block has one-point V or no
        subspace left, and when |W|^2 top_floor(|V|) < best, so that no
        V could be dropped.
        """
        w = len(spans)  # |W|
        v, cut = self.size // w, w * w
        if v == 1 or not spans[0] or cut * self.top_floor(v) < best:
            return spans
        sums, real, off = _gather(self.base, spans), self.real, w * self.bias
        drop = {s: cut * self.floor(v, ((s >> real) - off) // w) >= best for s in set(sums)}
        return _kept(spans, [not drop[s] for s in sums])

    def screen(
        self, best: int, free: list[int], spans: list[list[int]]
    ) -> Iterator[tuple[int, ...]]:
        """W's span for each subspace of a block that no screen round rules out.

        free holds the free columns of the block's pivot profile and
        spans the rank lists of the block's W (gf_core._rref_blocks), for
        the subspaces still in the running.  A round takes the next r of
        order, two over F_2 and one over F_3, and sums S(r) for every
        kept subspace by one gather (keep); a subspace is dropped when
        the norm of S(r) is >= best, unless r lies in its W.  A round
        whose gathers would be fewer than the p^n entries of the table it
        builds costs more than it can save, so the rounds stop there or
        at the end of order, and the survivors' spans are yielded in walk
        order.
        """
        p, n, c = self.p, self.n, len(free)
        # annihilator row f's digits at the free columns are those of e_f,
        # for the whole block; r's digits there pick the one span point
        # that can equal r: point sum_f r_f p^(c-1-f)
        weights = [(p ** (n - col), p ** (c - 1 - f)) for f, col in enumerate(free)]

        def at(r: int) -> int:
            return sum(r // w % p * step for w, step in weights)

        for i in range(0, len(self.order), self.step):
            if len(spans[0]) * len(spans) < self.size:
                break
            spans = _kept(spans, self.keep(i, best, spans, at))
        return zip(*spans)

    def read(self, r: int, spans: list[list[int]]) -> Sums:
        """The a- and b-parts of S(r) on every span of a block, by one gather; F_3 only."""
        sums, mask, off = _gather(self.table(r), spans), self.mask, len(spans) * self.bias
        return [(s >> self.shift) - off for s in sums], [(s & mask) - off for s in sums]


def _scores_below(
    points: PointSet, max_codim: int, threshold: Callable[[], int], visit: Optional[Visit] = None
) -> Iterator[tuple[Sequence[int], int]]:
    """(W's span as ranks, score) for each V that scores below threshold().

    Walks the subspaces V of codimension 0..max_codim in the canonical
    order, in blocks (gf_core._rref_blocks), and reads the set on each
    through its annihilator W: with F the full transform, computed once,
    and S(r) the sum of F(r + s) over s in W, V's score is the integer
    p^(2n) * sup_sq(V) = max over r outside W of |S(r)|^2.  r is tried
    by descending |F(r)|^2, and V is dropped at the first r with
    |S(r)|^2 >= threshold().  Against the threshold at the block's
    start, visit (below) sees the whole block, then the Parseval round
    (_CosetSums.parseval) drops each V whose S(0) = |W| |A cap V| alone
    forces a score that high, then _CosetSums.screen rules out subspaces
    by list gathers of S(r), r by r, and last _CosetSums.tries sums S(r)
    per subspace over all of the order against threshold() itself.
    That is exact because no caller ever raises its threshold: with a
    fixed threshold the walk yields every V that scores below it, in
    walk order, with its exact score.  The walk ends at a block that
    starts with threshold() at 0, which no score is below.

    visit(free, spans, at), over F_3 only, with at(r) giving the
    block's (a, b) lists of S(r), sees each block first and returns
    which subspaces stay in the running; it may drop only ones that
    score at least threshold().
    """
    p, n = points.p, points.n
    # the table and the transform are temporaries: the engine keeps base alone
    mem = points.membership_table
    sums = _CosetSums(p, n, wht2(mem()) if p == 2 else _dft3_pairs([(m, 0) for m in mem()]), max_codim)

    def candidates() -> Iterator[Sequence[int]]:
        """W's span for each subspace still in the running, codim 0 first."""
        for c in range(max_codim + 1):
            for free, spans in _rref_blocks(p, n, n - c):
                bound = threshold()
                if bound == 0:
                    return  # no score is below 0
                if visit is not None:
                    spans = _kept(spans, visit(free, spans, partial(sums.read, spans=spans)))
                # the survivors replace the block's lists, which can then go
                yield from sums.screen(bound, free, sums.parseval(bound, spans))

    for span in candidates():
        score = sums.tries(span, threshold())
        if score is not None:
            yield span, score


def _annihilated(p: int, n: int, ranks: Sequence[int]) -> Subspace:
    """V, the subspace of F_p^n that the span of the given ranks annihilates."""
    return perp(rref_basis([GFVector.from_rank(p, n, r) for r in ranks]))


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
    return _annihilated(p, n, best_span), Fraction(best, p ** (2 * n))


# leading_one_set and scan_leading_one_set refuse larger n
MAX_TERNARY_N = 7


def leading_one_set(n: int) -> PointSet:
    """{x in F_3^n : the first nonzero coordinate of x is 1}.

    Contains (3^n - 1)/2 points: exactly one of x, -x for each nonzero x.
    """
    if not 1 <= n <= MAX_TERNARY_N:
        raise InputError(f"leading_one_set supports 1 <= n <= {MAX_TERNARY_N}, got {n}")
    return PointSet.from_ranks(3, n, _leading_ones(n))


def _leading_ones(n: int) -> Iterator[int]:
    # the leading digit is 1 exactly for the ranks in [3^k, 2 * 3^k)
    return chain.from_iterable(range(3**k, 2 * 3**k) for k in range(n))


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

    Covers every subspace V with dim V >= 1, in one walk: the oracle's
    _scores_below over codimension 0..n-1, against the threshold
    max(best, ceil(9^n * LOWER_BOUND_SQ)), which never rises, so it
    yields the exact minimum and every V below the floor.  Its visit
    reads, on each block, S(e_j) for every V, with j the block's first
    pivot (the first column that is not free), and V fails when either
    of these does not hold:

    * sup_sq >= LOWER_BOUND_SQ;
    * the coefficient at frequency e_j is a + b*w with 3*b = -|V|,
      which alone forces a squared magnitude >= 1/12.  With N_t the
      members at x_j = t, b = N_2 - N_1, and each slice {x in V : x_j =
      t} holds |V|/3 points, as e_j, j a pivot, lies in no W; so the
      identity holds exactly when the slice x_j = 1 lies inside the set
      and the slice x_j = 2 misses it.  As S(e_j) = |W| (a + b*w) and
      |V| |W| = 3^n, it reads as: the b-part of S(e_j) is -3^(n-1).

    A V whose |S(e_j)|^2 already reaches the threshold scores at least
    that, so the visit drops it before the block screen; on the
    leading-one set that is every V but the whole space.  Failures come
    in the canonical enumeration order: dim V ascending, then walk
    order.  The report keeps the count, the exact minimum and the
    failures.  n = 5 (2,663 subspaces), n = 6 (56,631) and n = 7
    (2,052,655) sit behind long_run.
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
    total = 0
    failures: dict[tuple, Subspace] = {}

    def fail(V: Subspace) -> None:
        # the walk order within a dimension is that of pivots, then basis ranks
        failures[V.dim, V.pivots, tuple(v.rank for v in V.basis)] = V

    def visit(free, spans, at) -> list[bool]:
        nonlocal total
        total += len(spans[0])
        j = next(col for col in range(1, n + 1) if col not in free)
        bound = max(best, floor)
        keep = []
        for i, (a, b) in enumerate(zip(*at(3 ** (n - j)))):
            if b != -(3 ** (n - 1)):
                fail(_annihilated(3, n, [span[i] for span in spans]))
            keep.append(a * a - a * b + b * b < bound)
        return keep

    for span, score in _scores_below(A, n - 1, lambda: max(best, floor), visit):
        best = min(best, score)
        if score < floor:
            fail(_annihilated(3, n, span))
    ordered = tuple(failures[key] for key in sorted(failures))
    return F3Report(n, total, Fraction(best, 9**n), ordered)
