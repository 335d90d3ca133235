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
gathers before the per-subspace loop.  Over F_3 every sum is rank
arithmetic on one packed list (_F3Sums): entry x holds both parts of
F(x) = a + b*w, so one gather sums both, through shifted tables
x -> F(r + x) that are built once per r and shared by every block.

Over F_3 no analogous search can succeed: leading_one_set builds the
set whose members have first nonzero coordinate 1, and
scan_leading_one_set certifies, for every positive-dimensional subspace
V, a nontrivial coefficient of squared magnitude >= 1/12.  It is one
walk: _f3_scores_below gives sup_sq, and on each block the same spans give
S(0) and S(e_j), j the first pivot, which are |W| times |A n V| and
V's coefficient a + b*w at e_j.  From those follow the identity
3*b = -|V| and the slice counts behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, islice
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
    _free_columns,
    _rref_blocks,
    _trit_block_spans,
    _trit_shifts,
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
# The F_3 block screen runs at most this many rounds, and the walk keeps
# one shifted table of 3^n entries per round; past n = 6 the tables are
# held to _SPAN_CELLS entries in all, so fewer rounds run.
_F3_ROUNDS = 32
# Past those rounds a subspace tries r by its own sums for as long as
# they cost less than one fold of W into the whole table; timed at
# n = 9, a fold costs about as much as _FOLD_SUMS * 3^n / (|W| + 10) sums.
_FOLD_SUMS = 2


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


def _f3_pack(F3: Sequence[tuple[int, int]], most: int) -> tuple[list[int], int, int]:
    """(packed, K, B): the transform as one int per point, for sums of <= most.

    Entry x is (a + B) 2^K + (b + B) for F(x) = a + b w, where B is the
    largest |a| or |b| and K the bit length of 2 B most.  A sum s of m
    entries, m <= most, keeps each half in [0, 2 B m], below 2^K, so it
    never carries from the low half into the high one, and it unpacks as
    a = (s >> K) - m B and b = (s & (2^K - 1)) - m B.
    """
    bias = max(max(abs(a), abs(b)) for a, b in F3)
    shift = (2 * bias * most).bit_length()
    return [((a + bias) << shift) + b + bias for a, b in F3], shift, bias


def _shifted_table(n: int, packed: list[int], r: int) -> list[int]:
    """x -> packed[r + x] for every rank x of F_3^n."""
    return [packed[y] for y in _trit_shifts(n, r)]


Sums = tuple[list[int], list[int]]  # the a- and b-parts of one S per subspace
# visit(rows, spans, at) of _f3_scores_below, at(r) -> (S(0), S(r))
Visit = Callable[[list[list[int]], list[list[int]], Callable[[int], tuple[Sums, Sums]]], list[bool]]


class _F3Sums:
    """Coset sums S(r) of one set's transform over F_3^n, read by rank.

    The transform is computed once and packed (_f3_pack), so one gather
    sums both parts of S(r) = sum over s in W of F(r + s): a sum over
    r + W reads the shifted table x -> F(r + x) at W's span ranks.  The
    table of order[i], the i-th r by descending |F(r)|^2, is built on
    first use and kept for the whole walk, shared by every block, for i
    below `rounds`, so the tables never cover all of order.  Past those,
    a subspace's sums add r + x by halves (adder).  The table of the one
    r that the scan's visit reads on every block (its e_j) is kept by r.
    """

    def __init__(self, points: PointSet, max_codim: int) -> None:
        n = points.n
        F3 = _dft3_pairs([(m, 0) for m in points.membership_table()])
        sq = [a * a - a * b + b * b for a, b in F3]
        self.n = n
        self.order = sorted(range(1, 3**n), key=sq.__getitem__, reverse=True)
        self.packed, self.shift, self.bias = _f3_pack(F3, 3**max_codim)
        self.rounds = max(1, min(_F3_ROUNDS, len(self.order) - 1, _SPAN_CELLS // 3**n))
        self.tables: list[list[int]] = []
        self.paired: dict[int, list[int]] = {}
        # r + x = highs[r_h][x_h] + lows[r_l][x_l], x_l the low n // 2
        # digits of x and x_h the rest; 3^n list slots each when full
        self.cut = 3 ** (n // 2)
        self.highs: dict[int, list[int]] = {}
        self.lows: dict[int, list[int]] = {}

    def table(self, i: int) -> list[int]:
        """The shifted table of order[i], for i < rounds."""
        while len(self.tables) <= i:
            r = self.order[len(self.tables)]
            self.tables.append(_shifted_table(self.n, self.packed, r))
        return self.tables[i]

    def adder(self, r: int) -> tuple[list[int], list[int]]:
        """(H, L) with r + x = H[x // cut] + L[x % cut] for every rank x."""
        high, low = divmod(r, self.cut)
        if high not in self.highs:
            half = self.n - self.n // 2
            self.highs[high] = [y * self.cut for y in _trit_shifts(half, high)]
        if low not in self.lows:
            self.lows[low] = _trit_shifts(self.n // 2, low)
        return self.highs[high], self.lows[low]

    def gather(self, table: list[int], spans: list[list[int]]) -> list[int]:
        """The sum of table over each span of a block."""
        sums = [table[0]] * len(spans[0])  # span point 0 is 0
        for one, two in zip(spans[1::2], spans[2::2]):
            sums = [s + table[x] + table[y] for s, x, y in zip(sums, one, two)]
        return sums

    def unpack(self, sums: list[int], count: int) -> Sums:
        """The a- and b-parts of packed sums of `count` entries each."""
        mask = (1 << self.shift) - 1
        off = count * self.bias
        return [(s >> self.shift) - off for s in sums], [(s & mask) - off for s in sums]

    def pair(self, r: int, spans: list[list[int]]) -> tuple[Sums, Sums]:
        """S(0) and S(r), unpacked, on every span of a block, by one gather."""
        # a packed sum has 2K bits, so packed[x] sits clear above packed[r + x]
        width = 2 * self.shift
        if r not in self.paired:
            shifted = _shifted_table(self.n, self.packed, r)
            self.paired[r] = [(x << width) + y for x, y in zip(self.packed, shifted)]
        both = self.gather(self.paired[r], spans)
        low = (1 << width) - 1
        zero = self.unpack([s >> width for s in both], len(spans))
        return zero, self.unpack([s & low for s in both], len(spans))

    def below(self, span: Sequence[int], bound: int) -> Optional[int]:
        """V's score if it is below bound, else None; W's span as ranks.

        The score is max over r outside W of |S(r)|^2, and r is tried by
        order until one reaches bound: order[:rounds] through the shared
        tables, then the next ones by summing packed[r + x] over the span,
        r + x added by halves (adder), for as long as those sums cost less
        in all than one fold of the whole table (score).  A V that no
        tried r rules out is scored by that fold, or by the sums alone
        when they tried every r.
        """
        mask = (1 << self.shift) - 1
        off = len(span) * self.bias
        top = 0
        for i in range(self.rounds):
            if self.order[i] in span:
                continue
            table = self.table(i)
            s = 0
            for x in span:
                s += table[x]
            a, b = (s >> self.shift) - off, (s & mask) - off
            sq = a * a - a * b + b * b
            if sq >= bound:
                return None
            top = max(top, sq)
        last = min(len(self.order), self.rounds + _FOLD_SUMS * 3**self.n // (len(span) + 10))
        inside = set(span)
        packed, cut = self.packed, self.cut
        highs, lows = [x // cut for x in span], [x % cut for x in span]
        for r in islice(self.order, self.rounds, last):
            if r in inside:
                continue
            H, L = self.adder(r)
            s = 0
            for u, v in zip(highs, lows):
                s += packed[H[u] + L[v]]
            a, b = (s >> self.shift) - off, (s & mask) - off
            sq = a * a - a * b + b * b
            if sq >= bound:
                return None
            top = max(top, sq)
        if last < len(self.order):
            top = self.score(span)
        return top if top < bound else None

    def score(self, span: Sequence[int]) -> int:
        """max over r outside W of |S(r)|^2, W's span given as ranks.

        The sums over all cosets come at once, folding W's generators
        (span points 1, 3, 9, ...) into the table: G(r) + G(r + w) +
        G(r + 2 w), each shift read through _trit_shifts.
        """
        sums = self.packed
        w = 1
        while w < len(span):
            shift = _trit_shifts(self.n, span[w])
            once = [sums[y] for y in shift]
            sums = [x + y + once[z] for x, y, z in zip(sums, once, shift)]
            w *= 3
        inside = set(span)
        A, B = self.unpack(sums, len(span))
        norms = (a * a - a * b + b * b for r, a, b in zip(range(len(A)), A, B) if r not in inside)
        return max(norms, default=0)


def _f3_survivors(
    sums: _F3Sums,
    best: int,
    rows: list[list[int]],
    spans: list[list[int]],
) -> Iterator[tuple[int, ...]]:
    """W's span for each subspace of a block of F_3^n that no r rules out.

    The F_3 twin of _f2_survivors.  rows are the block's annihilator
    rows and spans their rank lists (gf_core._trit_block_spans), for the
    subspaces still in the running.  Round i takes r = order[i] and sums
    S(r) for every kept subspace by one gather through the shared table
    of order[i], both parts at once; a subspace is dropped when
    |S(r)|^2 = a^2 - ab + b^2 >= best unless r lies in its W.  The
    rounds stop when kept * 3^c < 3^n, as over F_2, or after
    sums.rounds rounds, and the survivors' spans are yielded as rank
    tuples, in walk order.
    """
    n = sums.n
    c = len(rows)
    # r's digits at the free columns pick the one span point that can
    # equal r: point sum_f r_f 3^(c-1-f)
    free = _free_columns(n, rows)
    digit_weights = [(3 ** (n - col), 3 ** (c - 1 - f)) for f, col in enumerate(free)]
    for i in range(sums.rounds):
        if len(spans[0]) * len(spans) < 3**n:
            break
        r = sums.order[i]
        at = sum(r // w % 3 * step for w, step in digit_weights)
        A, B = sums.unpack(sums.gather(sums.table(i), spans), len(spans))
        keep = [a * a - a * b + b * b < best or x == r for a, b, x in zip(A, B, spans[at])]
        if not all(keep):
            spans = [list(compress(span, keep)) for span in spans]
    return zip(*spans)


def _scores_below(
    points: PointSet,
    max_codim: int,
    threshold: Callable[[], int],
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

    Over F_3 every sum is read by rank from one packed transform
    (_F3Sums, _f3_scores_below).
    """
    if points.p == 3:
        yield from _f3_scores_below(points, max_codim, threshold)
        return
    n = points.n
    F = wht2(points.membership_table())
    sq = [f * f for f in F]
    order = sorted(range(1, 2**n), key=sq.__getitem__, reverse=True)

    def candidates(c: int) -> Iterator[Sequence[int]]:
        """W's span for each codim-c subspace still in the running."""
        if c == 0:
            yield [0]  # W = {0}: V is the whole space
            return
        most = max(1, _SPAN_CELLS // 2**c)
        for rows in _rref_blocks(2, n, n - c, annihilator=True, most=most):
            yield from _f2_survivors(F, order, threshold(), rows)

    def coset_sq(r: int, span: Sequence[int]) -> int:
        s = 0
        for x in span:
            s += F[r ^ x]
        return s * s

    for span in chain.from_iterable(map(candidates, range(max_codim + 1))):
        bound = threshold()
        for r in order:
            if r not in span and coset_sq(r, span) >= bound:
                break
        else:
            score = max((coset_sq(r, span) for r in order if r not in span), default=0)
            yield span, score


def _f3_scores_below(
    points: PointSet,
    max_codim: int,
    threshold: Callable[[], int],
    visit: Optional[Visit] = None,
) -> Iterator[tuple[Sequence[int], int]]:
    """_scores_below over F_3, and a visit of each block before its screen.

    A subspace that the screen leaves is scored by _F3Sums.below.
    visit(rows, spans, at), with at(r) giving the block's (a, b) lists
    of S(0) and S(r), returns which subspaces stay in the running; it
    may drop only ones that score at least threshold().
    """
    n = points.n
    sums = _F3Sums(points, max_codim)

    def candidates(c: int) -> Iterator[Sequence[int]]:
        """W's span for each codim-c subspace still in the running."""
        most = max(1, _SPAN_CELLS // 3**c)
        for rows in _rref_blocks(3, n, n - c, annihilator=True, most=most):
            spans = _trit_block_spans(n, rows) if rows else [[0]]  # W = {0} at c = 0
            if visit is not None:
                keep = visit(rows, spans, partial(sums.pair, spans=spans))
                if not all(keep):
                    spans = [list(compress(span, keep)) for span in spans]
            yield from _f3_survivors(sums, threshold(), rows, spans)

    for span in chain.from_iterable(map(candidates, range(max_codim + 1))):
        score = sums.below(span, threshold())
        if score is not None:
            yield span, score


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
MAX_TERNARY_N = 7


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


def _f3_checks(n: int, c: int, zero: Sums, unit: Sums) -> list[tuple[bool, bool]]:
    """The ternary scan's checks on each V of a codim-c block.

    zero and unit are the (a, b) lists of S(0) and S(e_j), j the block's
    first pivot.  As S(r) is |W| times V's coefficient sum over x in A
    and V of w^(-r.x), S(0) / |W| is m = |A n V| and S(e_j) / |W| is
    a + b w with a the members at x_j = 0 less those at x_j = 1 and b
    those at x_j = 2 less those at x_j = 1.  So (m - a - b) / 3 members
    lie at x_j = 1 and (m - a + 2b) / 3 at x_j = 2.  A pivot's unit
    vector lies in no W, so each slice {x in V : x_j = t} holds |V| / 3
    points.  Per V the result is (3b = -|V|, the x_j = 1 slice inside A
    and the x_j = 2 slice outside it).
    """
    scale, size = 3**c, 3 ** (n - c)  # |W| and |V|
    checks = []
    for m, a, b in zip(zero[0], unit[0], unit[1]):
        m, a, b = m // scale, a // scale, b // scale
        ones, twos = (m - a - b) // 3, (m - a + 2 * b) // 3
        checks.append((3 * b == -size, ones == size // 3 and twos == 0))
    return checks


def _annihilated(n: int, ranks: Sequence[int]) -> Subspace:
    """V, the subspace of F_3^n that the span of the given ranks annihilates."""
    return perp(rref_basis([GFVector.from_rank(3, n, r) for r in ranks]))


def scan_leading_one_set(n: int, long_run: bool = False) -> F3Report:
    """Certify the LOWER_BOUND_SQ = 1/12 floor on every subspace of F_3^n.

    Covers every subspace V with dim V >= 1, in one walk: the oracle's
    _f3_scores_below over codimension 0..n-1, against the threshold
    max(best, ceil(9^n * LOWER_BOUND_SQ)), which never rises, so it
    yields the exact minimum and every V below the floor.  Its visit
    reads, on each block, S(0) and S(e_j) for every V, with j the
    block's first pivot (the first column free in none of its rows),
    and V fails when any of these does not hold (_f3_checks):

    * sup_sq >= LOWER_BOUND_SQ;
    * the coefficient at frequency e_j is a + b*w with 3*b = -|V|,
      which alone forces a squared magnitude >= 1/12;
    * the slice {x in V : x_j = 1} lies inside the set and the slice
      {x in V : x_j = 2} misses it (each slice holds |V|/3 points, as
      e_j, j a pivot, lies in no W).

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

    def visit(rows, spans, at) -> list[bool]:
        nonlocal total
        total += len(spans[0])
        free = _free_columns(n, rows)
        j = next(col for col in range(1, n + 1) if col not in free)
        zero, unit = at(3 ** (n - j))
        bound = max(best, floor)
        keep = []
        for i, (passed, a, b) in enumerate(zip(_f3_checks(n, len(rows), zero, unit), *unit)):
            if not all(passed):
                fail(_annihilated(n, [span[i] for span in spans]))
            keep.append(a * a - a * b + b * b < bound)
        return keep

    for span, score in _f3_scores_below(A, n - 1, lambda: max(best, floor), visit):
        best = min(best, score)
        if score < floor:
            fail(_annihilated(n, span))
    ordered = tuple(failures[key] for key in sorted(failures))
    return F3Report(n, total, Fraction(best, 9**n), ordered)
