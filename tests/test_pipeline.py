"""End-to-end subspace search, the exhaustive oracle, and the F_3 scans.

The oracle cross-check re-runs the scan through the readable
`uniformity_sup` route (per-coset transform) rather than the oracle's
sums of the full transform over annihilators, so the two code paths
validate each other.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
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
    check_union_structure,
    coset_reps,
    enumerate_subspaces,
    exhaustive_best_subspace,
    extend_span,
    find_uniform_subspace,
    gaussian_binomial,
    leading_one_set,
    perp,
    quotient_index,
    random_point_set,
    restricted_spectrum,
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
    pair_add,
    rand_below,
    raw_coset_counts,
    random_subset,
    random_subspace,
    random_vector,
    ref_leading_one_set,
    words,
)


def half_space(n: int) -> PointSet:
    top = 1 << (n - 1)
    return PointSet.from_ranks(2, n, [r for r in range(1 << n) if r & top])


# ---------------------------------------------------------------------------
# pipeline: frozen instances


def test_pipeline_trivial_sets_succeed_on_the_whole_space():
    for A, colour in ((PointSet.empty(2, 6), 0), (PointSet.full(2, 6), 4)):
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
    assert report.V.contains_subspace(report.W)
    assert report.sup_sq == 0
    assert report.bound_ok
    # A avoids V entirely: the structure lives in the empty bucket
    assert report.colour == 0
    assert all(not A.contains(v) for v in report.V.basis)


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
        find_uniform_subspace(PointSet.full(3, 2), PipelineParams(eps=Fraction(1, 4)))
    with pytest.raises(InputError):
        find_uniform_subspace(
            PointSet.full(2, 4), PipelineParams(eps=Fraction(1, 4), min_codim=9)
        )


@pytest.mark.parametrize("seed", [81, 82, 83, 84, 85, 86])
def test_pipeline_reports_are_internally_consistent(seed):
    A = random_point_set(2, 7, Fraction(1, 2), seed=seed)
    params = PipelineParams(eps=Fraction(1, 4))
    report = find_uniform_subspace(A, params)
    assert report.outcome in ("success", "ramsey_failure", "codim_exhausted")
    depths = [a.min_codim for a in report.attempts]
    assert depths == sorted(depths)
    # each colouring gives every good coset of its W the colour
    # floor(B * count / |W|) and leaves the bad cosets uncoloured
    for attempt in report.attempts:
        if attempt.colouring is None:
            continue
        W = attempt.regularity.space
        bad = {quotient_index(W, rep) for rep in attempt.regularity.bad_reps}
        expect = tuple(
            None if q in bad else report.buckets * count // W.size
            for q, count in enumerate(raw_coset_counts(A, W))
        )
        assert attempt.colouring.colours == expect
    if report.outcome != "success":
        assert report.V is None
        return
    last = report.attempts[-1]
    # the found V extends the regularity subspace by d independent lifts
    assert report.V.contains_subspace(report.W)
    assert report.V.dim == report.W.dim + report.d
    assert report.V == extend_span(report.W, list(report.xs_ambient))
    # quotient points and their ambient lifts agree
    for q, a in zip(report.xs_quotient, report.xs_ambient):
        assert quotient_index(report.W, a) == q.rank
    assert check_union_structure(last.colouring, last.structure)
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
def _oracle_reference(points: PointSet, max_codim: int):
    """Same scan through the per-coset transform route (once per input)."""
    p, n = points.p, points.n
    zero = GFVector.zero(p, n)
    best = None
    best_space = None
    for codim in range(max_codim + 1):
        for space in enumerate_subspaces(p, n, n - codim):
            sup = uniformity_sup(points, Coset.of(space, zero)).sup_sq
            if best is None or sup < best:
                best, best_space = sup, space
                if best == 0:
                    return best_space, best
    return best_space, best


def _quadratic_set(n: int) -> PointSet:
    """{x : x1 x2 + x3 x4 + ... = 1}: bent, so every |F(r)|, r != 0, is equal."""
    return PointSet.from_ranks(2, n, [
        v.rank
        for v in Subspace.full(2, n).points()
        if sum(v.coords[i] * v.coords[i + 1] for i in range(0, n, 2)) % 2
    ])


def _oracle_inputs(kind: str, p: int, n: int, seed: int) -> list[PointSet]:
    stream = words(seed)
    if kind == "random":
        return [random_subset(stream, p, n, Fraction(1, 2)) for _ in range(3)]
    if kind == "quadratic":
        A = _quadratic_set(n)
        return [A, A.complement()]
    # unions of cosets of random codim-2 and codim-3 subspaces
    sets = []
    for codim in (2, 3):
        U = random_subspace(stream, p, n, n - codim)
        reps = coset_reps(U)[: 1 + rand_below(stream, p**codim - 1)]
        sets.append(PointSet.from_vectors([rep + v for rep in reps for v in U.points()]))
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
        ref_space, ref_sup = _oracle_reference(A, max_codim)
        assert sup == ref_sup
        assert winner == ref_space


# a tail of 4 gives many heads, so many blocks, per profile; a tail of 1
# gives one-subspace blocks, which skip the list rounds altogether;
# 128 span cells cap the blocks at 128 / p^codim subspaces each
@pytest.mark.parametrize(
    "tail_size,span_cells",
    [(4, pipeline._SPAN_CELLS), (1, pipeline._SPAN_CELLS), (gf_core._TAIL_SIZE, 128)],
)
@pytest.mark.parametrize("kind,p,n,max_codim,seed", ORACLE_CASES)
def test_oracle_matches_transform_route_in_small_blocks(
    monkeypatch, tail_size, span_cells, kind, p, n, max_codim, seed
):
    monkeypatch.setattr(gf_core, "_TAIL_SIZE", tail_size)
    monkeypatch.setattr(pipeline, "_SPAN_CELLS", span_cells)
    test_oracle_matches_transform_route(kind, p, n, max_codim, seed)


def test_oracle_through_profiles_of_several_blocks(monkeypatch):
    # codim 3 in F_2^8 has profiles of up to 15 slots, so up to 8 blocks
    # of 4096 subspaces each; codim 2 in F_3^6 has profiles of up to 8
    # slots, so up to 3 blocks of 2,187; one-subspace blocks are the
    # per-subspace loop alone and serve as the reference
    for p, n, codim, seed in ((2, 8, 3, 101), (3, 6, 2, 105)):
        A = random_subset(words(seed), p, n, Fraction(1, 2))
        monkeypatch.setattr(gf_core, "_TAIL_SIZE", 1 << 12)
        winner, sup = exhaustive_best_subspace(A, codim)
        monkeypatch.setattr(gf_core, "_TAIL_SIZE", 1)
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
        assert perp(winner).contains(GFVector.from_rank(2, 6, top))


def test_f2_block_filter_keeps_r_in_w_and_drops_ties():
    n = 6
    A = random_subset(words(102), 2, n, Fraction(1, 2))
    F = wht2(A.membership_table())
    order = sorted(range(1, 1 << n), key=lambda r: F[r] * F[r], reverse=True)
    # the first codim-2 profile, pivots 1..4: 8 slots, one block
    rows = next(gf_core._rref_blocks(2, n, n - 2, annihilator=True))
    spans = [tuple(gf_core._span_ranks(2, n, col)) for col in zip(*rows)]
    assert len(spans) == 256

    def sq(span, r):
        return sum(F[r ^ x] for x in span) ** 2

    sups = [max(sq(span, r) for r in order if r not in span) for span in spans]

    def survivors(best):
        return list(pipeline._f2_survivors(F, order, best, rows))

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


def test_f3_block_filter_keeps_r_in_w_and_drops_ties():
    n = 4
    A = random_subset(words(106), 3, n, Fraction(1, 2))
    F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
    order = sorted(
        range(1, 3**n), key=lambda r: F3[r][0] ** 2 - F3[r][0] * F3[r][1] + F3[r][1] ** 2,
        reverse=True,
    )
    sums = pipeline._F3Sums(A, 2)
    assert sums.order == order
    # the first codim-2 profile, pivots 1 and 2: 4 slots, one block
    rows = next(gf_core._rref_blocks(3, n, n - 2, annihilator=True))
    spans = [tuple(gf_core._span_ranks(3, n, col)) for col in zip(*rows)]
    assert len(spans) == 81

    def sq(span, r):
        a = sum(F3[add_rank(3, n, r, x)][0] for x in span)
        b = sum(F3[add_rank(3, n, r, x)][1] for x in span)
        return a * a - a * b + b * b

    sups = [max(sq(span, r) for r in order if r not in span) for span in spans]

    def survivors(best):
        block = gf_core._trit_block_spans(n, rows)
        return list(pipeline._f3_survivors(sums, best, rows, block))

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


def test_f3_packed_sums_at_the_packing_extremes():
    # W = the span of the last c unit vectors, whose cosets r + W are the
    # rank ranges [r, r + 3^c); the one-point set {e_1} puts F = w on
    # every point of 2 e_1 + W, the largest low half a sum can reach
    n = 6
    sets = {
        "empty": PointSet.empty(3, n),
        "full": PointSet.full(3, n),
        "point": PointSet.from_ranks(3, n, [3 ** (n - 1)]),
    }
    for name, A in sets.items():
        F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
        for max_codim in range(n + 1):
            sums = pipeline._F3Sums(A, max_codim)
            size = 3**max_codim
            assert sums.shift == (2 * sums.bias * size).bit_length()
            spans = [[x] for x in range(size)]
            for r in range(0, 3**n, size):
                table = pipeline._shifted_table(n, sums.packed, r)
                (a,), (b,) = sums.unpack(sums.gather(table, spans), size)
                assert (a, b) == (
                    sum(F3[r + x][0] for x in range(size)),
                    sum(F3[r + x][1] for x in range(size)),
                ), (name, max_codim, r)
        if name == "point":
            # B = 1, and 2 e_1 + W for W of dim n - 1 reaches 2 B 3^(n-1)
            top = pipeline._F3Sums(A, n - 1)
            assert top.bias == 1
            table = pipeline._shifted_table(n, top.packed, 2 * 3 ** (n - 1))
            low = top.gather(table, [[x] for x in range(3 ** (n - 1))])[0]
            assert low & ((1 << top.shift) - 1) == 2 * 3 ** (n - 1)


@pytest.mark.parametrize("rounds,fold_sums", [(32, 3**5), (1, 3**5), (1, 0)])
def test_f3_below_scores_every_subspace(monkeypatch, rounds, fold_sums):
    # with a bound above every score, below returns each subspace's exact
    # score: from the tables alone, from the sums by halves past one
    # table, or from the fold; at its own score as the bound it is out
    monkeypatch.setattr(pipeline, "_F3_ROUNDS", rounds)
    monkeypatch.setattr(pipeline, "_FOLD_SUMS", fold_sums)
    n = 4
    A = random_subset(words(140), 3, n, Fraction(1, 2))
    F3 = _dft3_pairs([(m, 0) for m in A.membership_table()])
    sums = pipeline._F3Sums(A, 2)
    assert sums.rounds == min(rounds, 3**n - 2)
    for c in (1, 2):
        for rows in gf_core._rref_blocks(3, n, n - c, annihilator=True):
            for span in zip(*gf_core._trit_block_spans(n, rows)):
                norms = []
                for r in range(1, 3**n):
                    if r not in span:
                        a = sum(F3[add_rank(3, n, r, x)][0] for x in span)
                        b = sum(F3[add_rank(3, n, r, x)][1] for x in span)
                        norms.append(a * a - a * b + b * b)
                assert sums.below(span, 9**n + 1) == max(norms), span
                assert sums.below(span, max(norms)) is None


def test_f3_tables_are_shared_by_the_blocks(monkeypatch):
    # at most one shifted table per screen round for the whole walk, the
    # tables of a prefix of order, each built once; with tails of 27 the
    # codim-3 walk of F_3^5 screens many blocks, which run more rounds
    # between them than there are tables
    built, gathers = [], []
    shifted, gather = pipeline._shifted_table, pipeline._F3Sums.gather
    monkeypatch.setattr(
        pipeline, "_shifted_table", lambda n, packed, r: built.append(r) or shifted(n, packed, r)
    )
    monkeypatch.setattr(
        pipeline._F3Sums, "gather", lambda self, t, s: gathers.append(t) or gather(self, t, s)
    )
    n = 5
    for tail_size, max_codim in ((gf_core._TAIL_SIZE, 2), (27, 3)):
        monkeypatch.setattr(gf_core, "_TAIL_SIZE", tail_size)
        for seed in (120, 121):
            A = random_subset(words(seed), 3, n, Fraction(1, 2))
            sums = pipeline._F3Sums(A, max_codim)
            built.clear()
            gathers.clear()
            exhaustive_best_subspace(A, max_codim)
            assert 0 < len(built) <= sums.rounds < 3**n - 1
            assert built == sums.order[: len(built)]
            if tail_size == 27:
                assert len(gathers) > len(built)


@pytest.mark.parametrize("n", [2, 3])
def test_f3_checks_read_each_check(n):
    # every block of F_3^n, with j its first pivot: each check read from
    # S(0) and S(e_j) equals its count over V's points
    stream = words(130 + n)
    lead = leading_one_set(n)
    sets = [
        lead,
        PointSet(3, n, lead.bits | 1 << 2 * 3 ** (n - 1)),
        random_subset(stream, 3, n, Fraction(1, 2)),
    ]
    seen = set()
    for A in sets:
        sums = pipeline._F3Sums(A, n)
        for c in range(n):
            for rows in gf_core._rref_blocks(3, n, n - c, annihilator=True):
                spans = gf_core._trit_block_spans(n, rows) if rows else [[0]]
                free = gf_core._free_columns(n, rows)
                j = next(col for col in range(1, n + 1) if col not in free)
                zero, unit = sums.pair(3 ** (n - j), spans)
                checks = pipeline._f3_checks(n, c, zero, unit)
                for i, got in enumerate(checks):
                    V = pipeline._annihilated(n, [span[i] for span in spans])
                    pts = list(V.points())
                    ones = [A.contains(v) for v in pts if v.coords[j - 1] == 1]
                    twos = [A.contains(v) for v in pts if v.coords[j - 1] == 2]
                    # e_j lies in no W, so the slices are equal
                    assert 3 * len(ones) == 3 * len(twos) == V.size
                    expected = (
                        3 * (sum(twos) - sum(ones)) == -V.size,
                        all(ones) and not any(twos),
                    )
                    assert got == expected, (A, V, j)
                    seen.add(expected)
    # the two checks stand or fall together (3b = -|V| forces both slices)
    assert seen == {(True, True), (False, False)}


@pytest.mark.parametrize("fold_sums", [0, 3**5])
@pytest.mark.parametrize(
    "kind,p,n,max_codim,seed", [c for c in ORACLE_CASES if getattr(c, "values", c)[1] == 3]
)
def test_f3_oracle_past_the_kept_rounds(monkeypatch, fold_sums, kind, p, n, max_codim, seed):
    # one kept round, as at n >= 10: past it every r is tried by the
    # subspace's own sums (3^5 sums outlast every order), or none is and
    # the fold scores every subspace the first r leaves
    monkeypatch.setattr(pipeline, "_F3_ROUNDS", 1)
    monkeypatch.setattr(pipeline, "_FOLD_SUMS", fold_sums)
    test_oracle_matches_transform_route(kind, p, n, max_codim, seed)


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
        pts: list[GFVector] = []
        for rep in reps:
            pts.extend(rep + v for v in U.points())
        A = PointSet.from_vectors(pts)
        winner, sup = exhaustive_best_subspace(A, codim)
        assert sup == 0
        # independent confirmation that A is constant on the winner
        values = {A.contains(v) for v in winner.points()}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# decomposition identities linking V-cosets and W-cosets


def _signed_value(points, coset, r):
    spec = restricted_spectrum(points, coset)
    return spec.signed_value_at(r)


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
        separating = [
            r for r in w_perp.points() if not v_perp.contains(r)
        ]
        assert len(separating) == (1 << w_perp.dim) - (1 << v_perp.dim)
        for r in separating:
            assert sum(-1 if r.dot(s) else 1 for s in subset_sums) == 0
        # phase identity: on W-cosets, frequencies in the annihilator see
        # the density up to sign
        for s in subset_sums:
            coset = Coset.of(W, s)
            dens = Fraction(
                sum(1 for y in coset.points() if A.contains(y)), coset.size
            )
            for r in w_perp.points():
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
        for v in A.members():
            first = next(c for c in v.coords if c)
            assert first == 1
        # exactly one of x, -x belongs to the set
        for rank in range(1, 3**n):
            v = GFVector.from_rank(3, n, rank)
            assert A.contains(v) != A.contains(-v)
        assert not A.contains_rank(0)
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
        acc = (0, 0)
        for v in V.points():
            if A.contains(v):
                acc = pair_add(acc, OMEGA_PAIRS[(-e_j.dot(v)) % 3])
        b = acc[1]
        assert 3 * b == -V.size
        ones = {v.rank for v in V.points() if v.coords[j - 1] == 1}
        twos = {v.rank for v in V.points() if v.coords[j - 1] == 2}
        members = {v.rank for v in V.points() if A.contains(v)}
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
            pts = list(V.points())
            j = V.pivots[0]
            acc = (0, 0)
            for v in pts:
                if A.contains(v):
                    acc = pair_add(acc, OMEGA_PAIRS[-v.coords[j - 1] % 3])
            ones = [A.contains(v) for v in pts if v.coords[j - 1] == 1]
            twos = [A.contains(v) for v in pts if v.coords[j - 1] == 2]
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
    assert x in report.failures[0].points()
    assert any(sup_ok)  # some V fails only on the structural checks


# the default blocks hold whole profiles; a tail of 4 or 1 splits the
# profiles of F_3^3 into several blocks, and so do 9 span cells, which cap
# the blocks at 9 / 3^k subspaces each (81 cells would leave every
# profile whole: the largest holds 9 subspaces of 9 points)
@pytest.mark.parametrize(
    "tail_size,span_cells",
    [(4, pipeline._SPAN_CELLS), (1, pipeline._SPAN_CELLS), (gf_core._TAIL_SIZE, 9)],
)
def test_f3_scan_across_block_boundaries(monkeypatch, tail_size, span_cells):
    monkeypatch.setattr(gf_core, "_TAIL_SIZE", tail_size)
    monkeypatch.setattr(pipeline, "_SPAN_CELLS", span_cells)
    test_f3_scan_frozen_results()
    with monkeypatch.context() as patch:
        test_f3_scan_failure_path(patch)
    with monkeypatch.context() as patch:
        test_f3_scan_flags_broken_slices_and_identity(patch)
    with monkeypatch.context() as patch:
        test_f3_scan_floor_boundary(patch)
