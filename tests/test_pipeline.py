"""End-to-end subspace search, the exhaustive oracle, and the F_3 scans.

The oracle cross-check re-runs the scan through the readable
`uniformity_sup` route (per-coset transform) rather than the oracle's
sums of the full transform over annihilators, so the two code paths
validate each other.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

import pytest

from subuniform import (
    BudgetExceededError,
    Coset,
    GFVector,
    InputError,
    PipelineParams,
    PointSet,
    Subspace,
    bucket_colouring,
    canonical_rep,
    coset_reps,
    enumerate_subspaces,
    exhaustive_best_subspace,
    extend_span,
    find_uniform_subspace,
    gaussian_binomial,
    leading_one_set,
    perp,
    random_point_set,
    restricted_spectrum,
    rref_basis,
    scan_leading_one_set,
    subspace_scan_count,
    uniformity_sup,
)
from subuniform import gf_core, pipeline
from subuniform.pipeline import LOWER_BOUND_SQ
from subuniform.spectra import _dft3_pairs, wht2

from conftest import (
    OMEGA_PAIRS,
    add_rank,
    block_spans,
    check_union_structure,
    full_set,
    pair_add,
    quotient_index,
    rand_below,
    random_int_table,
    raw_coset_counts,
    random_subset,
    random_subspace,
    random_vector,
    ref_leading_one_set,
    span_ranks,
    value_at,
    words,
)


def half_space(n: int) -> PointSet:
    top = 1 << (n - 1)
    return PointSet.from_ranks(2, n, [r for r in range(1 << n) if r & top])


# ---------------------------------------------------------------------------
# pipeline: frozen instances


def test_pipeline_trivial_sets_succeed_on_the_whole_space():
    for A, colour in ((PointSet.empty(2, 6), 0), (full_set(2, 6), 4)):
        report = find_uniform_subspace(A, PipelineParams(eps=Fraction(1, 4)))
        assert report.outcome == "success"
        assert report.V == Subspace.full(2, 6)
        assert report.sup_sq == 0
        assert report.bound_ok
        assert report.colour == colour
        assert [a.min_codim for a in report.attempts] == [3]


def test_pipeline_half_space_frozen_run():
    A = half_space(8)
    report = find_uniform_subspace(A, PipelineParams(eps=Fraction(1, 4)))
    assert report.outcome == "success"
    assert (report.d, report.buckets) == (3, 4)
    # the first attempt at depth 3 cannot host a 3-dimensional structure
    # inside a 2-dimensional colour class, so the search deepens once
    assert [a.min_codim for a in report.attempts] == [3, 4]
    assert report.attempts[0].structure is None
    assert report.V.codim == 1
    zero = GFVector.zero(2, report.V.n)
    assert all(canonical_rep(row, report.V) == zero for row in report.W.basis)
    assert report.sup_sq == 0
    assert report.bound_ok
    # A avoids V entirely: the structure lives in the empty bucket
    assert report.colour == 0
    assert all(not A.bits >> v.rank & 1 for v in report.V.basis)


def test_pipeline_ramsey_failure_is_labelled():
    A = random_point_set(2, 4, Fraction(1, 2), seed=7)
    report = find_uniform_subspace(A, PipelineParams(eps=Fraction(1, 4)))
    assert report.outcome == "ramsey_failure"
    assert [a.min_codim for a in report.attempts] == [3, 4]
    assert report.attempts[-1].regularity.succeeded
    assert report.attempts[-1].structure is None
    assert report.V is None and report.verification is None


def test_pipeline_codim_exhausted_mid_run():
    # half-space with one point knocked out cannot be regularized within
    # codimension 3 at eps = 1/64
    A = PointSet.from_ranks(2, 6, [r for r in range(64) if r & 32 and r != 33])
    report = find_uniform_subspace(
        A, PipelineParams(eps=Fraction(1, 64), eta=Fraction(0), d=2, max_codim=3)
    )
    assert report.outcome == "codim_exhausted"
    assert not report.attempts[-1].regularity.succeeded


def test_pipeline_codim_exhausted_before_first_attempt():
    # eps = 1/64 forces d = 7, deeper than the allowed codimension
    A = PointSet.from_ranks(2, 6, [0])
    report = find_uniform_subspace(A, PipelineParams(eps=Fraction(1, 64), max_codim=4))
    assert report.outcome == "codim_exhausted"
    assert report.attempts == ()
    assert report.d == 7


def test_pipeline_validation():
    with pytest.raises(InputError):
        find_uniform_subspace(full_set(3, 2), PipelineParams(eps=Fraction(1, 4)))
    with pytest.raises(InputError):
        find_uniform_subspace(
            full_set(2, 4), PipelineParams(eps=Fraction(1, 4), min_codim=9)
        )


def test_pipeline_colours_only_the_good_cosets(monkeypatch):
    # the colouring the pipeline itself builds, not one rebuilt from its
    # report: each succeeded scan colours exactly its good cosets
    calls = []

    def spy(counts, space, buckets, good):
        calls.append((space, list(good)))
        return bucket_colouring(counts, space, buckets, good)

    monkeypatch.setattr(pipeline, "bucket_colouring", spy)
    some_bad = False
    for seed, eta in ((0, Fraction(1, 8)), (7, Fraction(1, 4)), (8, Fraction(1, 4))):
        calls.clear()
        A = random_point_set(2, 7, Fraction(1, 2), seed)
        report = find_uniform_subspace(A, PipelineParams(eps=Fraction(1, 4), eta=eta))
        scans = [a.regularity for a in report.attempts if a.regularity.succeeded]
        assert len(calls) == len(scans)
        for (space, good), reg in zip(calls, scans):
            assert space == reg.space
            bad = {quotient_index(space, rep) for rep in reg.bad_reps}
            assert good == [q for q in range(2**space.codim) if q not in bad]
            some_bad |= bool(bad)
    assert some_bad


@pytest.mark.parametrize("seed", [81, 82, 83, 84, 85, 86])
def test_pipeline_reports_are_internally_consistent(seed):
    A = random_point_set(2, 7, Fraction(1, 2), seed=seed)
    params = PipelineParams(eps=Fraction(1, 4))
    report = find_uniform_subspace(A, params)
    assert (report.d, report.buckets) == (params.resolved_d, params.resolved_buckets)
    assert report.outcome in ("success", "ramsey_failure", "codim_exhausted")
    depths = [a.min_codim for a in report.attempts]
    assert depths == sorted(depths)
    # each colouring, rebuilt from its attempt's scan, gives every good
    # coset of its W the colour floor(B * count / |W|) and leaves the bad
    # cosets uncoloured
    for attempt in report.attempts:
        if not attempt.regularity.succeeded:
            continue
        W = attempt.regularity.space
        bad = {quotient_index(W, rep) for rep in attempt.regularity.bad_reps}
        good = [q for q in range(2**W.codim) if q not in bad]
        colouring = bucket_colouring(attempt.regularity.coset_counts, W, report.buckets, good)
        expect = tuple(
            None if q in bad else report.buckets * count // W.size
            for q, count in enumerate(raw_coset_counts(A, W))
        )
        assert colouring.colours == expect
    if report.outcome != "success":
        assert report.V is None
        return
    last = report.attempts[-1]
    # the found V extends the regularity subspace by d independent lifts
    zero = GFVector.zero(2, report.V.n)
    assert all(canonical_rep(row, report.V) == zero for row in report.W.basis)
    assert report.V.dim == report.W.dim + report.d
    assert report.V == extend_span(report.W, list(report.xs_ambient))
    # quotient points and their ambient lifts agree
    for q, a in zip(report.xs_quotient, report.xs_ambient):
        assert quotient_index(report.W, a) == q.rank
    # the last attempt is the successful one, so colouring is its own
    assert check_union_structure(colouring, last.structure)
    assert last.structure.colour == report.colour
    # verification is reproducible and the slack bound is evaluated exactly
    fresh = uniformity_sup(A, Coset.of(report.V, GFVector.zero(2, 7)))
    assert fresh.sup_sq == report.sup_sq
    bound = Fraction(params.slack) * params.eps
    assert report.bound_ok == (report.sup_sq <= bound * bound)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_oracle_frozen_example_prefers_avoiding_subspace():
    # A = {x : x_1 = 1} in F_2^2: the hyperplane {x : x_1 = 0} misses A
    # entirely and is exactly 0-uniform
    A = PointSet.from_ranks(2, 2, [2, 3])
    winner, sup = exhaustive_best_subspace(A, 1)
    assert [row.digits() for row in winner.basis] == ["01"]
    assert sup == 0


def test_oracle_early_exit_on_whole_space():
    winner, sup = exhaustive_best_subspace(PointSet.empty(2, 5), 2)
    assert winner == Subspace.full(2, 5)
    assert sup == 0


@lru_cache(maxsize=None)
def _records(points: PointSet, max_codim: int):
    """Same scan through the per-coset transform route (once per input).

    Each (V, sup_sq) whose sup_sq is below every earlier one, in walk
    order; the last is the oracle's answer, and the scan stops at 0.
    """
    p, n = points.p, points.n
    zero = GFVector.zero(p, n)
    out = []
    for codim in range(max_codim + 1):
        for space in enumerate_subspaces(p, n, n - codim):
            sup = uniformity_sup(points, Coset.of(space, zero)).sup_sq
            if not out or sup < out[-1][1]:
                out.append((space, sup))
                if sup == 0:
                    return tuple(out)
    return tuple(out)


def _quadratic_set(n: int) -> PointSet:
    """{x : x1 x2 + x3 x4 + ... = 1}: bent, so every |F(r)|, r != 0, is equal."""
    coords = [GFVector.from_rank(2, n, r).coords for r in range(1 << n)]
    return PointSet.from_ranks(2, n, [
        r for r, x in enumerate(coords) if sum(x[i] * x[i + 1] for i in range(0, n, 2)) % 2
    ])


def _oracle_inputs(kind: str, p: int, n: int, seed: int) -> list[PointSet]:
    stream = words(seed)
    if kind == "random":
        return [random_subset(stream, p, n, Fraction(1, 2)) for _ in range(3)]
    if kind == "quadratic":
        A = _quadratic_set(n)
        return [A, PointSet(p, n, A.bits ^ ((1 << p**n) - 1))]
    # unions of cosets of random codim-2 and codim-3 subspaces
    sets = []
    for codim in (2, 3):
        U = random_subspace(stream, p, n, n - codim)
        reps = coset_reps(U)[: 1 + rand_below(stream, p**codim - 1)]
        sets.append(PointSet.from_ranks(p, n, [r for rep in reps for r in Coset(U, rep).point_ranks()]))
    return sets


# quadratic sets and coset unions reach their minimum, mostly 0, on many
# subspaces at once, so they pin the tie-break: smaller codimension
# first, then the earlier subspace
ORACLE_CASES = [
    pytest.param("random", 2, 5, 2, 91, id="2-5-2-91"),
    pytest.param("random", 3, 3, 1, 92, id="3-3-1-92"),
    *[("quadratic", 2, n, c, 0) for n in (4, 6) for c in range(4)],
    *[("planted", 2, 6, c, 97) for c in (1, 2, 3)],
    ("random", 3, 4, 2, 98),
    ("planted", 3, 4, 1, 99),
    ("planted", 3, 4, 2, 99),
    ("random", 3, 5, 2, 103),
    ("planted", 3, 5, 2, 104),
]


@pytest.mark.parametrize("kind,p,n,max_codim,seed", ORACLE_CASES)
def test_oracle_matches_transform_route(kind, p, n, max_codim, seed):
    for A in _oracle_inputs(kind, p, n, seed):
        winner, sup = exhaustive_best_subspace(A, max_codim)
        ref_space, ref_sup = _records(A, max_codim)[-1]
        assert sup == ref_sup
        assert winner == ref_space


def _patch_caps(monkeypatch, p, n, max_codim, most, span_cells):
    """Cap the oracle's codim-c blocks at min(most, span_cells // p^c) subspaces.

    _SPAN_CELLS alone sizes the blocks, so span_cells stays in force and
    the oracle's walk runs each codim c under min(span_cells, most p^c)
    cells.  Checks that the caps reach the walk: at each codim up to
    max_codim where a block of the default walk holds more subspaces
    than the cap, the patched walk yields more blocks.
    """
    walk = pipeline._rref_blocks

    def capped(p, n, k):
        with monkeypatch.context() as patch:
            patch.setattr(gf_core, "_SPAN_CELLS", min(span_cells, most * p ** (n - k)))
            # the walk reads _SPAN_CELLS as it starts, so it runs in full here
            return iter(list(walk(p, n, k)))

    def sizes():
        blocks = [pipeline._rref_blocks(p, n, n - c) for c in range(max_codim + 1)]
        return [[len(block_spans(p, lists)[0]) for _, lists in b] for b in blocks]

    whole = sizes()
    monkeypatch.setattr(gf_core, "_SPAN_CELLS", span_cells)
    monkeypatch.setattr(pipeline, "_rref_blocks", capped)
    for c, (before, after) in enumerate(zip(whole, sizes())):
        assert sum(after) == sum(before)
        if max(before) > max(1, min(most, span_cells // p**c)):
            assert len(after) > len(before), c


# a cap of 4 gives many heads, so many blocks, per profile; a cap of 1
# gives one-subspace blocks, which skip the list rounds altogether;
# 128 span cells cap the blocks at 128 / p^codim subspaces each, and a
# cap of 4096 leaves the cells alone
@pytest.mark.parametrize(
    "most,span_cells",
    [(4, gf_core._SPAN_CELLS), (1, gf_core._SPAN_CELLS), (4096, 128)],
)
@pytest.mark.parametrize("kind,p,n,max_codim,seed", ORACLE_CASES)
def test_oracle_matches_transform_route_in_small_blocks(
    monkeypatch, most, span_cells, kind, p, n, max_codim, seed
):
    _patch_caps(monkeypatch, p, n, max_codim, most, span_cells)
    test_oracle_matches_transform_route(kind, p, n, max_codim, seed)


def test_oracle_through_profiles_of_several_blocks(monkeypatch):
    # codim 3 in F_2^8 has profiles of up to 15 slots, so up to 4 blocks
    # of 8,192 subspaces each, checked against one-subspace blocks (1
    # span cell), the per-subspace loop alone; codim 2 in F_3^7 has
    # profiles of up to 10 slots, so up to 9 blocks of 6,561, checked
    # against blocks of 243 (3^7 span cells), as one-subspace blocks
    # there take seconds
    for p, n, codim, seed, cells in ((2, 8, 3, 101, 1), (3, 7, 2, 105, 3**7)):
        A = random_subset(words(seed), p, n, Fraction(1, 2))
        winner, sup = exhaustive_best_subspace(A, codim)
        with monkeypatch.context() as patch:
            patch.setattr(gf_core, "_SPAN_CELLS", cells)
            assert exhaustive_best_subspace(A, codim) == (winner, sup)
        assert uniformity_sup(A, Coset.of(winner, GFVector.zero(p, n))).sup_sq == sup


def test_oracle_winner_annihilates_the_top_frequency():
    # the set is a union of cosets of U, so its transform lives on U's
    # annihilator and the winner's W holds the top frequency: the list
    # rounds meet an r inside W on the winner's own block
    for A in _oracle_inputs("planted", 2, 6, 97):
        F = wht2(A.membership_table())
        top = max(range(1, 64), key=lambda r: F[r] * F[r])
        winner, sup = exhaustive_best_subspace(A, 3)
        assert sup == 0
        assert top in span_ranks(perp(winner))


def _engine(A, max_codim):
    """The coset-sum engine of A's transform, as the oracle builds it."""
    mem = A.membership_table()
    F = wht2(mem) if A.p == 2 else _dft3_pairs([(m, 0) for m in mem])
    return pipeline._CosetSums(A.p, A.n, F, max_codim)


def _f2_screen(F, order, best, block):
    """The survivors of the engine's F_2 screen of one block, run over order."""
    free, spans = block
    sums = pipeline._CosetSums(2, (len(F) - 1).bit_length(), F, len(free))
    sums.order = order
    return list(sums.screen(best, free, spans))


def _first_block(p, n, c):
    """The walk's first codim-c block as (free, span lists), and W's span for each of its subspaces."""
    free, lists = next(gf_core._rref_blocks(p, n, n - c))
    block = free, block_spans(p, lists)
    spans = list(zip(*block[1]))
    # each span is that of its rows by _span_ranks, row f at point p^(c-1-f)
    assert spans == [
        tuple(gf_core._span_ranks(p, n, tuple(span[p ** (c - 1 - f)] for f in range(c))))
        for span in spans
    ]
    return block, spans


def test_f2_block_filter_keeps_r_in_w_and_drops_ties():
    n = 6
    A = random_subset(words(102), 2, n, Fraction(1, 2))
    F = wht2(A.membership_table())
    order = sorted(range(1, 1 << n), key=lambda r: F[r] * F[r], reverse=True)
    # the first codim-2 profile, pivots 1..4: 8 slots, one block
    block, spans = _first_block(2, n, 2)
    assert len(spans) == 256

    def sq(span, r):
        return sum(F[r ^ x] for x in span) ** 2

    sups = [max(sq(span, r) for r in order if r not in span) for span in spans]

    def survivors(best):
        return _f2_screen(F, order, best, block)

    # above every sup only an r inside W could rule a subspace out; the
    # sum over such a coset is the one over W itself and does not count
    assert any(r in span and sq(span, r) > max(sups) for span in spans for r in order)
    assert survivors(max(sups) + 1) == spans
    # a subspace whose sup is reached at the first r ties with best there
    tied = [
        j for j, span in enumerate(spans)
        if order[0] not in span and sq(span, order[0]) == sups[j]
    ]
    assert tied
    best = sups[tied[0]]
    kept = survivors(best)
    assert spans[tied[0]] not in kept
    assert all(span in kept for span, sup in zip(spans, sups) if sup < best)
    assert kept == [span for span in spans if span in kept]  # walk order


def _f2_screen_reference(F, order, best, spans):
    """(survivors, whether the last pair ran): the F_2 screen one r at a time.

    The rounds take r in pairs and stop, as the screen does, before a
    pair whose gathers would cover fewer than len(F) span points.
    """
    kept, reached = spans, False
    for i in range(0, len(order), 2):
        if len(kept) * len(spans[0]) < len(F):
            break
        reached = i + 2 >= len(order)
        for r in order[i : i + 2]:
            kept = [span for span in kept if r in span or sum(F[r ^ x] for x in span) ** 2 < best]
    return kept, reached


@pytest.mark.parametrize("kind", ["random", "full", "subspace", "extreme"])
def test_f2_packed_screen_reads_both_frequencies(kind):
    # one gather sums S(r0) and S(r1); each half drops a subspace at
    # S(r)^2 >= best unless r lies in its W, read at r's own span point.
    # Each r runs with a partner q before and after it, against every
    # S(r)^2 of the block as best.  The full set and a set equal to one
    # V put S = 2^n on W's own cosets; the extreme table, |F| = 2^n
    # everywhere, takes both halves to their bounds, 0 and 2^(n+1) |W|,
    # and a sum just inside (best above every S^2) or at (best = S^2)
    # each end of a half's range sits on a multiple of 2^K.  A two-entry
    # order is one round, and 256 subspaces always run it.
    n = 6
    block, spans = _first_block(2, n, 2)
    if kind == "extreme":
        e = min(set(range(1 << n)) - set(spans[0]))
        low = set(spans[0]) | {e ^ w for w in spans[0]}  # W_0 and one more coset
        F = [-(1 << n) if x in low else 1 << n for x in range(1 << n)]
    else:
        # V, the subspace that the block's last W annihilates
        V = [x for x in range(1 << n) if not any(bin(x & w).count("1") % 2 for w in spans[-1])]
        A = {
            "random": random_subset(words(102), 2, n, Fraction(1, 2)),
            "full": full_set(2, n),
            "subspace": PointSet.from_ranks(2, n, V),
        }[kind]
        F = wht2(A.membership_table())
    sums = {r: [sum(F[r ^ x] for x in span) for span in spans] for r in range(1, 1 << n)}
    quiet = min(sums, key=lambda r: max(map(abs, sums[r])))
    above = max(s * s for row in sums.values() for s in row) + 1  # keeps every subspace
    events = set()
    for q in (spans[0][1], quiet):
        for r in range(1, 1 << n):
            for best in {s * s for s in sums[r]} - {0} | {above}:
                for order in ([q, r], [r, q]):
                    got = _f2_screen(F, order, best, block)
                    assert got == [
                        span for j, span in enumerate(spans)
                        if all(x in span or sums[x][j] ** 2 < best for x in order)
                    ], (q, r, best)
                    for j, span in enumerate(spans):
                        first = order[0] in span or sums[order[0]][j] ** 2 < best
                        if first and r == order[1] and sums[r][j] ** 2 >= best:
                            events.add((r in span, (sums[r][j] > 0) - (sums[r][j] < 0)))
    # ties at the second frequency of both signs, and a second r in W
    # that the first r leaves and only the exception keeps
    if kind == "random":
        assert {(False, 1), (False, -1), (True, 1)} <= events
    if kind == "extreme":
        assert (True, -1) in events


def test_f2_screen_pairs_the_last_r_with_itself():
    # an odd-length order runs out on r that pairs with itself; with the
    # rounds running to the end, the survivors are those of one r at a
    # time.  A coset r + W holds |W| frequencies with one sum, so over a
    # full order the last r never drops what an earlier one kept; the
    # three-entry orders put the top r last, where it does
    n = 4
    for seed in range(100, 104):
        A = random_subset(words(seed), 2, n, Fraction(1, 2))
        F = wht2(A.membership_table())
        order = sorted(range(1, 1 << n), key=lambda r: F[r] * F[r], reverse=True)
        block, spans = _first_block(2, n, 2)
        for best in (36, 64):
            for run in (order, order[::-1], [order[-1], order[-2], order[0]]):
                kept, reached = _f2_screen_reference(F, run, best, spans)
                assert reached, (seed, best, run)
                assert _f2_screen(F, run, best, block) == kept
                if len(run) == 3:
                    assert kept != _f2_screen_reference(F, run[:2], best, spans)[0]


def test_f3_block_filter_keeps_r_in_w_and_drops_ties():
    n = 4
    A = random_subset(words(106), 3, n, Fraction(1, 2))
    F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
    order = sorted(
        range(1, 3**n), key=lambda r: F3[r][0] ** 2 - F3[r][0] * F3[r][1] + F3[r][1] ** 2,
        reverse=True,
    )
    sums = _engine(A, 2)
    # one r of each pair r, -r: the one with leading digit 1
    lead = {r for k in range(n) for r in range(3**k, 2 * 3**k)}
    assert sums.order == [r for r in order if r in lead]
    # the first codim-2 profile, pivots 1 and 2: 4 slots, one block
    block, spans = _first_block(3, n, 2)
    assert len(spans) == 81

    def sq(span, r):
        a = sum(F3[add_rank(3, n, r, x)][0] for x in span)
        b = sum(F3[add_rank(3, n, r, x)][1] for x in span)
        return a * a - a * b + b * b

    sups = [max(sq(span, r) for r in order if r not in span) for span in spans]

    def survivors(best):
        return list(sums.screen(best, *block))

    # above every sup only an r inside W could rule a subspace out; the
    # sum over such a coset is the one over W itself and does not count
    assert any(r in span and sq(span, r) > max(sups) for span in spans for r in order)
    assert survivors(max(sups) + 1) == spans
    # a subspace whose sup is reached at the first r ties with best there
    tied = [
        j for j, span in enumerate(spans)
        if order[0] not in span and sq(span, order[0]) == sups[j]
    ]
    assert tied
    best = sups[tied[0]]
    kept = survivors(best)
    assert spans[tied[0]] not in kept
    assert all(span in kept for span, sup in zip(spans, sups) if sup < best)
    assert kept == [span for span in spans if span in kept]  # walk order


def test_f3_order_holds_one_r_of_each_pair():
    # for a 0/1 set F(-x) is the conjugate of F(x) and W = -W, so S(-r)
    # is the conjugate of S(r), with the same squared magnitude, and -r
    # lies in W exactly when r does: order keeps one r of each pair
    n = 4
    A = random_subset(words(141), 3, n, Fraction(1, 2))
    F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
    sums = _engine(A, 2)
    assert len(sums.order) == (3**n - 1) // 2
    held = set(sums.order)
    assert all((r in held) != (add_rank(3, n, r, r) in held) for r in range(1, 3**n))
    norms = [a * a - a * b + b * b for a, b in map(F3.__getitem__, sums.order)]
    assert norms == sorted(norms, reverse=True)
    for c in (1, 2):
        for _, spans in gf_core._rref_blocks(3, n, n - c):
            for span in zip(*spans):
                for r in range(1, 3**n):
                    minus = add_rank(3, n, r, r)
                    assert (r in span) == (minus in span)
                    a, b = (sum(F3[add_rank(3, n, r, x)][i] for x in span) for i in (0, 1))
                    u, v = (sum(F3[add_rank(3, n, minus, x)][i] for x in span) for i in (0, 1))
                    # the conjugate of a + b w is (a - b) - b w
                    assert (u, v) == (a - b, -b)
                    assert u * u - u * v + v * v == a * a - a * b + b * b


def test_f3_packed_sums_at_the_packing_extremes():
    # W = the span of the last c unit vectors, whose cosets r + W are the
    # rank ranges [r, r + 3^c); the one-point set {e_1} puts F = w on
    # every point of 2 e_1 + W, the largest low half a sum can reach
    n = 6
    sets = {
        "empty": PointSet.empty(3, n),
        "full": full_set(3, n),
        "point": PointSet.from_ranks(3, n, [3 ** (n - 1)]),
    }
    for name, A in sets.items():
        F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
        for max_codim in range(n + 1):
            sums = _engine(A, max_codim)
            size = 3**max_codim
            assert sums.shift == (2 * sums.bias * size).bit_length()
            spans = [[x] for x in range(size)]
            for r in range(0, 3**n, size):
                (a,), (b,) = sums.read(r, spans)
                assert (a, b) == (
                    sum(F3[r + x][0] for x in range(size)),
                    sum(F3[r + x][1] for x in range(size)),
                ), (name, max_codim, r)
        if name == "point":
            # B = 1, and 2 e_1 + W for W of dim n - 1 reaches 2 B 3^(n-1)
            top = _engine(A, n - 1)
            assert top.bias == 1
            table = top.table(2 * 3 ** (n - 1))
            low = pipeline._gather(table, [[x] for x in range(3 ** (n - 1))])[0]
            assert low & ((1 << top.shift) - 1) == 2 * 3 ** (n - 1)


@pytest.mark.parametrize("above", [32, 1])
def test_f3_below_scores_every_subspace(above):
    # with a bound above every score, or above the subspace's own score
    # by as little as one, tries returns that exact score from its sums
    # by digit halves; at its own score as the bound it is out
    n = 4
    A = random_subset(words(140), 3, n, Fraction(1, 2))
    F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
    sums = _engine(A, 2)
    for c in (1, 2):
        for _, spans in gf_core._rref_blocks(3, n, n - c):
            for span in zip(*spans):
                norms = []
                for r in range(1, 3**n):
                    if r not in span:
                        a = sum(F3[add_rank(3, n, r, x)][0] for x in span)
                        b = sum(F3[add_rank(3, n, r, x)][1] for x in span)
                        norms.append(a * a - a * b + b * b)
                assert sums.tries(span, 9**n + 1) == max(norms), span
                assert sums.tries(span, max(norms) + above) == max(norms), span
                assert sums.tries(span, max(norms)) is None


def test_f2_below_scores_every_subspace():
    # the F_2 twin: the sums by XOR try every r; at its own score as the
    # bound, tries rules the subspace out
    n = 5
    A = random_subset(words(142), 2, n, Fraction(1, 2))
    F = wht2(A.membership_table())
    sums = _engine(A, 3)
    for c in (1, 2, 3):
        for _, rows in gf_core._rref_blocks(2, n, n - c):
            for span in zip(*gf_core._spans2(rows)):
                sq = [sum(F[r ^ x] for x in span) ** 2 for r in range(1, 2**n) if r not in span]
                assert sums.tries(span, 4**n + 1) == max(sq), span
                assert sums.tries(span, max(sq)) is None


def test_f3_tables_are_built_for_reads_alone(monkeypatch):
    # every shifted table is built by a read, a screen round's or the
    # scan's visit, for its one gather: tries sums each r by digit
    # halves and builds none, whatever the screen left it
    counts = {"table": 0, "read": 0}

    def counted(name):
        method = getattr(pipeline._CosetSums, name)

        def wrapper(sums, *args, **kwargs):
            counts[name] += 1
            return method(sums, *args, **kwargs)

        monkeypatch.setattr(pipeline._CosetSums, name, wrapper)

    counted("table")
    counted("read")
    runs = [
        partial(exhaustive_best_subspace, random_subset(words(seed), 3, n, Fraction(1, 2)), 2)
        for n in (5, 7)
        for seed in (120, 121)
    ]
    runs.append(partial(scan_leading_one_set, 5, long_run=True))
    for run in runs:
        counts.update(table=0, read=0)
        run()
        assert 0 < counts["table"] == counts["read"], counts


@pytest.mark.parametrize("n", [2, 3])
def test_f3_checks_read_each_check(n):
    # every block of F_3^n, with j its first pivot: the one gather of
    # S(e_j) gives |W| (N_0 - N_1) and |W| (N_2 - N_1), N_t the members
    # in V's slice x_j = t, counted here point by point; its b-part is
    # -3^(n-1) exactly when the x_j = 1 slice lies inside the set and
    # the x_j = 2 slice misses it, so the scan's one check is both
    stream = words(130 + n)
    lead = leading_one_set(n)
    sets = [
        lead,
        PointSet(3, n, lead.bits | 1 << 2 * 3 ** (n - 1)),
        random_subset(stream, 3, n, Fraction(1, 2)),
    ]
    seen = set()
    for A in sets:
        sums = _engine(A, n)
        for c in range(n):
            for free, spans in gf_core._rref_blocks(3, n, n - c):
                j = next(col for col in range(1, n + 1) if col not in free)
                for i, (a, b) in enumerate(zip(*sums.read(3 ** (n - j), spans))):
                    V = pipeline._annihilated(3, n, [span[i] for span in spans])
                    assert V.pivots[0] == j
                    pts = [GFVector.from_rank(3, n, r) for r in span_ranks(V)]
                    N = [[A.bits >> v.rank & 1 for v in pts if v.coords[j - 1] == t] for t in range(3)]
                    # e_j lies in no W, so the slices are equal
                    assert 3 * len(N[1]) == 3 * len(N[2]) == V.size
                    assert (a, b) == (3**c * (sum(N[0]) - sum(N[1])), 3**c * (sum(N[2]) - sum(N[1])))
                    expected = (b == -(3 ** (n - 1)), all(N[1]) and not any(N[2]))
                    seen.add(expected)
    # the two checks stand or fall together (3b = -|V| forces both slices)
    assert seen == {(True, True), (False, False)}


# 4096 span cells leave every profile whole, 1 cell gives one-subspace blocks
@pytest.mark.parametrize("span_cells", [4096, 1])
@pytest.mark.parametrize("p,n,seed", [(2, 6, 97), (3, 4, 99)])
def test_scores_below_yields_the_record_setters(monkeypatch, span_cells, p, n, seed):
    # planted coset unions with 1/16 of the points flipped set 4 or 5
    # records each; against the oracle's running best the walk yields
    # exactly those, each with its exact score, on blocks or one by one;
    # like the oracle it stops at 0, which no score is below
    monkeypatch.setattr(gf_core, "_SPAN_CELLS", span_cells)
    for A in _noisy_planted(p, n, seed):
        expected = _records(A, 3)
        assert len(expected) >= 4
        assert _record_walk(A, 3, stop_at_zero=True) == expected


def _noisy_planted(p: int, n: int, seed: int) -> list[PointSet]:
    """The planted coset unions of _oracle_inputs with 1/16 of the points flipped."""
    stream = words(seed)
    return [
        PointSet(p, n, planted.bits ^ random_subset(stream, p, n, Fraction(1, 16)).bits)
        for planted in _oracle_inputs("planted", p, n, seed)
    ]


def _record_walk(A: PointSet, max_codim: int, stop_at_zero: bool) -> tuple:
    """(V, sup_sq) for each V that _scores_below yields against the running best."""
    p, n = A.p, A.n
    best, got = p ** (2 * n) + 1, []
    for span, best in pipeline._scores_below(A, max_codim, lambda: best):
        got.append((pipeline._annihilated(p, n, span), Fraction(best, p ** (2 * n))))
        if best == 0 and stop_at_zero:
            break
    return tuple(got)


def test_scores_below_walks_on_past_a_zero_record():
    # a caller that keeps walking after a 0 record gets the same records:
    # the walk itself stops there, with no screen against a bound of 0
    for A in _noisy_planted(2, 6, 97):
        expected = _records(A, 3)
        assert _record_walk(A, 3, stop_at_zero=False) == expected
    assert any(_records(A, 3)[-1][1] == 0 for A in _noisy_planted(2, 6, 97))


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
def test_scores_below_yields_nothing_at_threshold_zero(p, n):
    # no score is below 0, so the walk yields nothing, whatever the set
    for seed in (105, 106):
        A = random_subset(words(seed), p, n, Fraction(1, 2))
        assert list(pipeline._scores_below(A, 3, lambda: 0)) == []
    assert list(pipeline._scores_below(PointSet.empty(p, n), n, lambda: 0)) == []


# ---------------------------------------------------------------------------
# the Parseval round and the walk's contract


def _least_ref(p: int, v: int, m: int) -> int:
    """The least |c|^2 at or above the mean nontrivial one on a V of v points holding m members.

    Searched upward: over F_2 among t^2 with t = m mod 2, over F_3 among
    the integers = m^2 mod 3.
    """
    mean = Fraction(v * m - m * m, v - 1)
    if p == 2:
        t = m % 2
        while t * t < mean:
            t += 2
        return t * t
    u = 0
    while u < mean or (u - m * m) % 3:
        u += 1
    return u


@lru_cache(maxsize=None)
def _scored_walk(A: PointSet, max_codim: int) -> tuple:
    """(V, score) in walk order, the score p^(2n) sup_sq from the per-coset transform route."""
    p, n = A.p, A.n
    zero = GFVector.zero(p, n)
    return tuple(
        (V, int(uniformity_sup(A, Coset.of(V, zero)).sup_sq * p ** (2 * n)))
        for c in range(max_codim + 1)
        for V in enumerate_subspaces(p, n, n - c)
    )


@pytest.mark.parametrize("p,n", [*((2, n) for n in range(1, 7)), *((3, n) for n in range(1, 5))])
def test_parseval_round_drops_exactly_what_the_floor_reaches(p, n):
    # on every block, against every positive score of the block and one
    # above them all as best (the walk ends at a best of 0): the
    # survivors are those whose floor |W|^2 least(m) stays below best,
    # with m counted on V's own points and least searched upward, and
    # every dropped V scores at least best
    stream = words(160 + 10 * p + n)
    sets = [random_subset(stream, p, n, d) for d in (Fraction(1, 2), Fraction(1, 8))]
    dropped = 0
    for A in sets:
        sums = _engine(A, n)
        scores = dict(_scored_walk(A, n))
        for c in range(n + 1):
            w, v = p**c, p ** (n - c)
            for _, lists in gf_core._rref_blocks(p, n, n - c):
                block = list(zip(*block_spans(p, lists)))
                spaces = [pipeline._annihilated(p, n, span) for span in block]
                true = [scores[V] for V in spaces]
                floors = [
                    0 if v == 1 else w * w * _least_ref(p, v, sum(A.bits >> x & 1 for x in span_ranks(V)))
                    for V in spaces
                ]
                for best in {*true, max(true) + 1} - {0}:
                    kept = list(zip(*sums.parseval(best, c, lists)))
                    assert kept == [span for span, f in zip(block, floors) if f < best], (c, best)
                    out = [s for span, s in zip(block, true) if span not in kept]
                    assert all(s >= best for s in out)
                    dropped += len(out)
    assert dropped or n == 1


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (3, 4)])
def test_parseval_round_is_tight_on_a_flat_v(p, n):
    # a one-point set meets each V in one point or none; a 2-dim V over
    # F_2, or a line over F_3, through the point has m = 1, every
    # coefficient of magnitude 1 and score |W|^2, which its floor
    # (q = 1, least 1) reaches: it is dropped at best = its score and
    # kept one above; a V that misses the point has floor 0
    c = n - (2 if p == 2 else 1)
    x = p ** n - 1
    A = PointSet.from_ranks(p, n, [x])
    sums, w = _engine(A, c), p**c
    scores = dict(_scored_walk(A, c))
    through = 0
    for _, lists in gf_core._rref_blocks(p, n, n - c):
        block = list(zip(*block_spans(p, lists)))
        meets = [x in span_ranks(pipeline._annihilated(p, n, span)) for span in block]
        for span, hit in zip(block, meets):
            assert scores[pipeline._annihilated(p, n, span)] == (w * w if hit else 0)
        assert list(zip(*sums.parseval(w * w + 1, c, lists))) == block
        assert list(zip(*sums.parseval(w * w, c, lists))) == [s for s, hit in zip(block, meets) if not hit]
        through += sum(meets)
    assert through


def test_parseval_floors_and_skip_bound():
    # floor(v, m) is the searched least for every m, and the skip bound
    # is at least every floor, for every |V| up to 2^12 and 3^7
    for p, top in ((2, 12), (3, 7)):
        sums = _engine(PointSet.empty(p, 2), 2)
        for k in range(1, top + 1):
            v = p**k
            bound = sums.top_floor(v)
            for m in range(v + 1):
                floor = sums.floor(v, m)
                assert floor <= bound, (p, v, m)
                if k <= 8:
                    assert floor == _least_ref(p, v, m), (p, v, m)


@pytest.mark.parametrize("c", range(1, 7))
def test_row_sums_match_the_gather_over_the_spans(c):
    # the round's F_2 sums come from the rows, four points per point of
    # the leading rows' span; on random rows and tables, in blocks of 0,
    # 1 and more subspaces, each equals the gather over the block's spans
    # and the plain sum over each span
    n = 8
    stream = words(190 + c)
    for count in (0, 1, 2, 37):
        for _ in range(3):
            rows = [[rand_below(stream, 1 << n) for _ in range(count)] for _ in range(c)]
            table = random_int_table(stream, 1 << n, 1000)
            spans = gf_core._spans2(rows)
            sums = pipeline._row_sums(table, rows)
            assert sums == pipeline._gather(table, spans), (count, rows)
            assert sums == [sum(table[x] for x in span) for span in zip(*spans)]
    # the whole space's block has no rows and one W, {0}
    assert pipeline._row_sums(table, []) == [table[0]]


@pytest.mark.parametrize("c", range(1, 7))
def test_spans_of_kept_rows_are_the_kept_spans(c):
    # _spans2 works entry by entry, so the round may cut a block's rows
    # and build the spans of the survivors alone
    n = 8
    stream = words(200 + c)
    for count in (1, 2, 37):
        rows = [[rand_below(stream, 1 << n) for _ in range(count)] for _ in range(c)]
        masks = [[True] * count, [False] * count]
        masks += [[bool(rand_below(stream, 2)) for _ in range(count)] for _ in range(4)]
        for keep in masks:
            assert gf_core._spans2(pipeline._kept(rows, keep)) == pipeline._kept(gf_core._spans2(rows), keep)


@pytest.mark.parametrize("p,n,c", [(2, 8, 3), (3, 5, 2)])
def test_parseval_round_exits_when_nothing_survives(monkeypatch, p, n, c):
    # at a best of 1 every V whose floor is positive is out, and on a
    # random set no codim-c V is empty or full: the round returns the
    # empty block with no cut and no span lists built
    A = random_subset(words(210 + p), p, n, Fraction(1, 2))
    sums = _engine(A, c)
    monkeypatch.setattr(pipeline, "_kept", lambda lists, keep: pytest.fail("cut"))
    monkeypatch.setattr(sums, "spans", lambda block: pytest.fail("spanned"))
    blocks = 0
    for _, lists in gf_core._rref_blocks(p, n, n - c):
        assert sums.parseval(1, c, lists) == [[]]
        blocks += 1
    assert blocks > 1


@pytest.mark.parametrize("p,n", [(2, 14), (3, 8)])
def test_parseval_round_gathers_nothing_at_codim_one(monkeypatch, p, n):
    # at codim 1 no floor can reach the best, so the round skips its
    # sums: the walk makes no more gathers or row sums than with the
    # round gone (a gather on every block there made F_2^16 codim 1 ten
    # times slower)
    A = random_subset(words(170 + p), p, n, Fraction(1, 2))
    gather, row_sums = pipeline._gather, pipeline._row_sums

    def counted() -> tuple:
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_gather", lambda t, s: calls.append(t) or gather(t, s))
            patch.setattr(pipeline, "_row_sums", lambda t, s: calls.append(t) or row_sums(t, s))
            result = exhaustive_best_subspace(A, 1)
        return result, len(calls)

    result, calls = counted()
    monkeypatch.setattr(pipeline._CosetSums, "parseval", lambda self, best, c, block: block_spans(p, block))
    without = counted()
    assert result == without[0]
    assert calls <= without[1]


@pytest.mark.parametrize("span_cells", [gf_core._SPAN_CELLS, 1])
@pytest.mark.parametrize("p,n,max_codim,seed", [(2, 6, 3, 180), (3, 4, 2, 181)])
def test_scores_below_yields_every_subspace_below_a_fixed_threshold(
    monkeypatch, span_cells, p, n, max_codim, seed
):
    # with a threshold that never moves, the walk yields exactly the V of
    # codim <= max_codim that score below it, in walk order, each with
    # its exact score: whatever visit, the Parseval round, the screen
    # and tries drop scores at least the threshold.  Over F_3 the walk
    # runs also with a visit that drops V at |S(e_j)|^2 >= threshold
    monkeypatch.setattr(gf_core, "_SPAN_CELLS", span_cells)
    stream = words(seed)
    parseval, dropped = pipeline._CosetSums.parseval, []

    def counted(sums, best, c, block):
        kept = parseval(sums, best, c, block)
        dropped.append(len(block_spans(p, block)[0]) - len(kept[0]))
        return kept

    monkeypatch.setattr(pipeline._CosetSums, "parseval", counted)
    for density in (Fraction(1, 2), Fraction(1, 8)):
        A = random_subset(stream, p, n, density)
        walk = _scored_walk(A, max_codim)
        scores = sorted({score for _, score in walk})
        for T in {scores[0] + 1, scores[len(scores) // 4], scores[len(scores) // 2], scores[-1], scores[-1] + 1}:
            expected = [(V, score) for V, score in walk if score < T]

            def visit(free, spans, at):
                j = next(col for col in range(1, n + 1) if col not in free)
                return [a * a - a * b + b * b < T for a, b in zip(*at(3 ** (n - j)))]

            for seen in (None, visit) if p == 3 else (None,):
                got = [
                    (pipeline._annihilated(p, n, span), score)
                    for span, score in pipeline._scores_below(A, max_codim, lambda: T, seen)
                ]
                assert got == expected, (density, T, seen)
    assert sum(dropped)


def test_oracle_budget_accounting():
    assert subspace_scan_count(2, 5, 2) == 1 + 31 + 155
    assert subspace_scan_count(3, 3, 1) == 1 + 13
    assert subspace_scan_count(2, 8, 3) == sum(
        gaussian_binomial(2, 8, 8 - c) for c in range(4)
    )
    A = PointSet.empty(2, 5)
    exhaustive_best_subspace(A, 2, budget=187)  # exactly enough
    with pytest.raises(BudgetExceededError):
        exhaustive_best_subspace(A, 2, budget=186)
    with pytest.raises(InputError):
        exhaustive_best_subspace(A, 9)


def test_oracle_finds_exact_zero_on_coset_unions():
    stream = words(93)
    for n, codim in ((6, 2), (7, 3)):
        U = random_subspace(stream, 2, n, n - codim)
        # union of two cosets of U
        reps = [GFVector.from_rank(2, n, r) for r in (1, 5)]
        ranks: list[int] = []
        for rep in reps:
            ranks.extend(Coset.of(U, rep).point_ranks())
        A = PointSet.from_ranks(2, n, ranks)
        winner, sup = exhaustive_best_subspace(A, codim)
        assert sup == 0
        # independent confirmation that A is constant on the winner
        values = {A.bits >> r & 1 for r in span_ranks(winner)}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# decomposition identities linking V-cosets and W-cosets


def _signed_value(points, coset, r):
    return Fraction(*value_at(restricted_spectrum(points, coset), r))


@pytest.mark.parametrize("seed,d", [(94, 1), (95, 2), (96, 3)])
def test_decomposition_identity_and_vanishing_product(seed, d):
    n = 6
    stream = words(seed)
    for _ in range(6):
        A = random_subset(stream, 2, n, Fraction(1, 2))
        W = random_subspace(stream, 2, n, n - d - (next(stream) % 2))
        # choose xs independent modulo W
        xs: list[GFVector] = []
        V = W
        while len(xs) < d:
            x = random_vector(stream, 2, n)
            grown = extend_span(V, [x])
            if grown.dim == V.dim + 1:
                xs.append(x)
                V = grown
        assert V.dim == W.dim + d
        subset_sums = [GFVector.zero(2, n)]
        for x in xs:
            subset_sums += [s + x for s in subset_sums]
        for r_rank in range(1 << n):
            r = GFVector.from_rank(2, n, r_rank)
            lhs = _signed_value(A, Coset.of(V, GFVector.zero(2, n)), r)
            rhs = sum(
                _signed_value(A, Coset.of(W, s), r) for s in subset_sums
            ) / (1 << d)
            assert lhs == rhs
        # vanishing product: character sums over subset sums cancel for
        # frequencies separating V from W
        w_perp = perp(W)
        v_perp = perp(V)
        w_perp_pts = [GFVector.from_rank(2, n, r) for r in span_ranks(w_perp)]
        v_perp_ranks = set(span_ranks(v_perp))
        separating = [r for r in w_perp_pts if r.rank not in v_perp_ranks]
        assert len(separating) == (1 << w_perp.dim) - (1 << v_perp.dim)
        for r in separating:
            assert sum(-1 if r.dot(s) else 1 for s in subset_sums) == 0
        # phase identity: on W-cosets, frequencies in the annihilator see
        # the density up to sign
        for s in subset_sums:
            coset = Coset.of(W, s)
            dens = Fraction(
                sum(A.bits >> y & 1 for y in coset.point_ranks()), coset.subspace.size
            )
            for r in w_perp_pts:
                sign = -1 if r.dot(s) else 1
                assert _signed_value(A, coset, r) == sign * dens


# ---------------------------------------------------------------------------
# F_3 lower-bound scans

LONG_RUN = os.environ.get("SUBUNIFORM_LONG_RUN") == "1"
# the n = 7 scan takes about 20 s
F3_SIZES = (1, 2, 3, 4, 5, 6, 7) if LONG_RUN else (1, 2, 3, 4, 5, 6)


def test_leading_one_set_shape():
    assert [leading_one_set(n).size for n in range(1, 7)] == [1, 4, 13, 40, 121, 364]
    for n in (1, 2, 3):
        A = leading_one_set(n)
        assert A.size == (3**n - 1) // 2
        for rank in A.member_ranks():
            first = next(c for c in GFVector.from_rank(3, n, rank).coords if c)
            assert first == 1
        # exactly one of x, -x belongs to the set
        for rank in range(1, 3**n):
            v = GFVector.from_rank(3, n, rank)
            minus_v = GFVector(3, n, tuple(-c % 3 for c in v.coords))
            assert A.bits >> v.rank & 1 != A.bits >> minus_v.rank & 1
        assert not A.bits & 1
    with pytest.raises(InputError):
        leading_one_set(0)
    with pytest.raises(InputError):
        leading_one_set(8)


def test_leading_one_set_matches_coordinate_definition():
    for n in range(1, 7):
        assert leading_one_set(n) == ref_leading_one_set(n)


def test_f3_scan_frozen_results():
    expected = {1: (1, Fraction(1, 9)), 2: (5, Fraction(7, 81)), 3: (27, Fraction(61, 729))}
    for n, (total, min_sup) in expected.items():
        report = scan_leading_one_set(n)
        assert report.all_passed
        assert report.failures == ()
        assert report.total_subspaces == total
        assert report.minimum == min_sup
        assert min_sup >= LOWER_BOUND_SQ


def test_f3_scan_gating():
    with pytest.raises(InputError):
        scan_leading_one_set(5)
    with pytest.raises(InputError, match="long_run"):
        scan_leading_one_set(6)
    with pytest.raises(InputError):
        scan_leading_one_set(0)
    with pytest.raises(InputError):
        scan_leading_one_set(8, long_run=True)


@pytest.mark.parametrize("n", F3_SIZES)
def test_f3_scan_minimum_closed_form(n):
    # observed, not proved: min sup^2 = (9^n + 3) / (12 * 9^n), at V = F_3^n
    closed = Fraction(9**n + 3, 12 * 9**n)
    assert closed == Fraction(1, 12) + Fraction(1, 4 * 9**n)
    report = scan_leading_one_set(n, long_run=True)
    assert report.minimum == closed
    totals = {1: 1, 2: 5, 3: 27, 4: 211, 5: 2663, 6: 56631, 7: 2052655}
    assert report.total_subspaces == totals[n]
    assert report.total_subspaces == subspace_scan_count(3, n, n - 1)
    assert report.failures == ()
    whole = uniformity_sup(leading_one_set(n), Coset.whole_space(3, n))
    assert whole.sup_sq == closed
    if n == 6:
        assert closed == Fraction(44287, 531441)
    if n == 7:
        assert closed == Fraction(398581, 4782969)


def test_f3_scan_failure_path(monkeypatch):
    # a floor that some subspaces of F_3^3 miss: the scan must list
    # exactly those, in enumeration order, found here by uniformity_sup
    floor = Fraction(1, 11)
    monkeypatch.setattr(pipeline, "LOWER_BOUND_SQ", floor)
    A = leading_one_set(3)
    below = [
        V
        for k in range(1, 4)
        for V in enumerate_subspaces(3, 3, k)
        if uniformity_sup(A, Coset(V, GFVector.zero(3, 3))).sup_sq < floor
    ]
    assert 0 < len(below) < 27
    report = scan_leading_one_set(3)
    assert report.failures == tuple(below)
    assert not report.all_passed
    assert report.total_subspaces == 27
    assert report.minimum == Fraction(61, 729)


def test_f3_scan_floor_boundary(monkeypatch):
    # the scan compares integer scores with ceil(9^n * floor): a floor
    # equal to the n = 3 minimum fails nothing, and one just above it
    # fails exactly the subspaces that uniformity_sup puts below it
    A = leading_one_set(3)
    spaces = [V for k in range(1, 4) for V in enumerate_subspaces(3, 3, k)]
    sups = [uniformity_sup(A, Coset(V, GFVector.zero(3, 3))).sup_sq for V in spaces]
    low = Fraction(61, 729)
    above = low + Fraction(1, 2 * 729)  # 9^3 * above = 61.5
    assert min(sups) == low
    assert above < min(sup for sup in sups if sup > low)
    monkeypatch.setattr(pipeline, "LOWER_BOUND_SQ", low)
    assert scan_leading_one_set(3).failures == ()
    monkeypatch.setattr(pipeline, "LOWER_BOUND_SQ", above)
    report = scan_leading_one_set(3)
    below = tuple(V for V, sup in zip(spaces, sups) if sup < above)
    assert len(below) == 1
    assert report.failures == below
    assert report.minimum == low


def test_f3_scan_transforms_once(monkeypatch):
    # one transform of the whole set serves every subspace of the scan
    sizes = []

    def counted(pairs):
        sizes.append(len(pairs))
        return _dft3_pairs(pairs)

    monkeypatch.setattr(pipeline, "_dft3_pairs", counted)
    for n in (1, 3, 4):
        sizes.clear()
        scan_leading_one_set(n)
        assert sizes == [3**n]


def test_f3_witness_identity_recomputed_directly():
    # recompute the first-pivot coefficient of each n = 2 subspace with
    # independent Eisenstein arithmetic: 3b = -|V| and the two inclusions
    A = leading_one_set(2)
    for V in chain(enumerate_subspaces(3, 2, 1), enumerate_subspaces(3, 2, 2)):
        j = V.pivots[0]
        e_j = GFVector.unit(3, 2, j)
        pts = [GFVector.from_rank(3, 2, r) for r in span_ranks(V)]
        acc = (0, 0)
        for v in pts:
            if A.bits >> v.rank & 1:
                acc = pair_add(acc, OMEGA_PAIRS[(-e_j.dot(v)) % 3])
        b = acc[1]
        assert 3 * b == -V.size
        ones = {v.rank for v in pts if v.coords[j - 1] == 1}
        twos = {v.rank for v in pts if v.coords[j - 1] == 2}
        members = {v.rank for v in pts if A.bits >> v.rank & 1}
        assert ones <= members
        assert not (twos & members)
        assert len(ones) == len(twos) == V.size // 3


def test_f3_scan_flags_broken_slices_and_identity(monkeypatch):
    # with x = 200 added to the set, every V through x with first pivot
    # 1 has a member in its x_1 = 2 slice and breaks 3b = -|V|; the scan
    # must flag exactly the subspaces where one of its four checks
    # fails, each recomputed here point by point
    n = 3
    x = GFVector(3, n, (2, 0, 0))
    A = PointSet(3, n, leading_one_set(n).bits | 1 << x.rank)
    monkeypatch.setattr(pipeline, "leading_one_set", lambda m: A)
    expected, sup_ok = [], []
    for k in range(1, n + 1):
        for V in enumerate_subspaces(3, n, k):
            pts = [GFVector.from_rank(3, n, r) for r in span_ranks(V)]
            j = V.pivots[0]
            acc = (0, 0)
            for v in pts:
                if A.bits >> v.rank & 1:
                    acc = pair_add(acc, OMEGA_PAIRS[-v.coords[j - 1] % 3])
            ones = [A.bits >> v.rank & 1 for v in pts if v.coords[j - 1] == 1]
            twos = [A.bits >> v.rank & 1 for v in pts if v.coords[j - 1] == 2]
            sup = uniformity_sup(A, Coset(V, GFVector.zero(3, n))).sup_sq
            if not (
                sup >= LOWER_BOUND_SQ
                and 3 * acc[1] == -V.size
                and all(ones)
                and not any(twos)
                and 3 * len(ones) == 3 * len(twos) == V.size
            ):
                expected.append(V)
                sup_ok.append(sup >= LOWER_BOUND_SQ)
    report = scan_leading_one_set(n)
    assert report.failures == tuple(expected)
    assert x.rank in span_ranks(report.failures[0])
    assert any(sup_ok)  # some V fails only on the structural checks


# the default blocks hold whole profiles; a cap of 4 or 1 splits the
# profiles of F_3^3 into several blocks, and so do 9 span cells, which cap
# the blocks at 9 / 3^k subspaces each (81 cells would leave every
# profile whole: the largest holds 9 subspaces of 9 points)
@pytest.mark.parametrize(
    "most,span_cells",
    [(4, gf_core._SPAN_CELLS), (1, gf_core._SPAN_CELLS), (4096, 9)],
)
def test_f3_scan_across_block_boundaries(monkeypatch, most, span_cells):
    _patch_caps(monkeypatch, 3, 3, 2, most, span_cells)
    test_f3_scan_frozen_results()
    with monkeypatch.context() as patch:
        test_f3_scan_failure_path(patch)
    with monkeypatch.context() as patch:
        test_f3_scan_flags_broken_slices_and_identity(patch)
    with monkeypatch.context() as patch:
        test_f3_scan_floor_boundary(patch)


# ---------------------------------------------------------------------------
# the oracle's optimum where brute force does not reach


def _invertible(stream, p: int, n: int) -> list[tuple[int, ...]]:
    """The rows of a seeded M in GL(n, p), drawn again until they are independent."""
    while True:
        rows = [random_vector(stream, p, n) for _ in range(n)]
        if rref_basis(rows).dim == n:
            return [row.coords for row in rows]


def _image(M: list[tuple[int, ...]], x: GFVector) -> GFVector:
    """Mx, coordinate i the dot product of row i of M with x."""
    return GFVector(x.p, x.n, tuple(sum(m * c for m, c in zip(row, x.coords)) % x.p for row in M))


# F_2^8 codim 3 is the oracle-n8 size, past the transform route's reach;
# F_2^9 codim 4 takes 10-15 s, so it and F_3^6 codim 2 run on request
OPTIMUM_CASES = [
    (2, 8, 3, 141),
    (2, 8, 3, 142),
    (3, 5, 2, 143),
    (3, 5, 2, 144),
    *([(2, 9, 4, 145), (3, 6, 2, 146)] if LONG_RUN else []),
]


@pytest.mark.parametrize("p,n,max_codim,seed", OPTIMUM_CASES)
def test_oracle_optimum_is_invariant_under_gl_and_complement(p, n, max_codim, seed):
    # V -> MV, M in GL(n, p), keeps codim and sup^2, and the complement's
    # nontrivial coefficients are A's negated, so A, MA and the complement
    # share one best value; a pruning defect hangs on walk position and on
    # the order of the r, which M scrambles
    stream = words(seed)
    A = random_subset(stream, p, n, Fraction(1, 2))
    M = _invertible(stream, p, n)
    MA = PointSet.from_ranks(p, n, [_image(M, GFVector.from_rank(p, n, r)).rank for r in A.member_ranks()])
    winner, best = exhaustive_best_subspace(A, max_codim)
    assert exhaustive_best_subspace(MA, max_codim)[1] == best
    assert exhaustive_best_subspace(PointSet(p, n, A.bits ^ full_set(p, n).bits), max_codim)[1] == best
    MV = rref_basis([_image(M, v) for v in winner.basis])
    assert uniformity_sup(MA, Coset(MV, GFVector.zero(p, n))).sup_sq == best
