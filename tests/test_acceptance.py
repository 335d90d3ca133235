"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check re-derives its claim through an independent route
(the brute-force oracles in conftest, raw membership counts, exhaustive
enumeration) instead of trusting the library's own summary verdicts.

Set SUBUNIFORM_LONG_RUN=1 to extend the ternary scans from n <= 3 to
n = 4 (criteria 1 and 2).
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from subuniform import (
    AlmostColouring,
    Coset,
    GFVector,
    PipelineParams,
    PointSet,
    coset_reps,
    density_increment,
    enumerate_subspaces,
    exhaustive_best_subspace,
    extend_span,
    find_uniform_subspace,
    find_union_structure,
    gaussian_binomial,
    leading_one_set,
    perp,
    random_point_set,
    regularity_decompose,
    restricted_spectrum,
    scan_leading_one_set,
    uniformity_sup,
    wht2,
)
from subuniform.spectra import _dft3_pairs

from conftest import (
    OMEGA_PAIRS,
    bf_dft3,
    bf_wht2,
    check_union_structure,
    pair_add,
    rand_below,
    random_int_table,
    random_subset,
    random_subspace,
    random_vector,
    rec_wht2,
    span_ranks,
    value_at,
    words,
)

LONG_RUN = os.environ.get("SUBUNIFORM_LONG_RUN") == "1"
TERNARY_SIZES = (1, 2, 3, 4) if LONG_RUN else (1, 2, 3)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def coset_density(points: PointSet, coset: Coset) -> Fraction:
    return Fraction(sum(points.bits >> r & 1 for r in coset.point_ranks()), coset.subspace.size)


def oracle_sup_sq(points: PointSet, coset: Coset) -> Fraction:
    """Uniformity sup recomputed via the independent recursive transform."""
    table = [points.bits >> r & 1 for r in coset.point_ranks()]
    coeffs = rec_wht2(table)
    if len(coeffs) == 1:
        return Fraction(0)
    return Fraction(max(c * c for c in coeffs[1:]), coset.subspace.size**2)


def ternary_subspaces(n: int):
    for dim in range(1, n + 1):
        yield from enumerate_subspaces(3, n, dim)


def test_criterion_1_ternary_lower_bound():
    with criterion(1, "ternary lower bound"):
        expected_totals = {1: 1, 2: 5, 3: 27, 4: 211}
        bound = Fraction(1, 12)
        for n in TERNARY_SIZES:
            A = leading_one_set(n)
            zero = GFVector.zero(3, n)
            total = 0
            for dim in range(1, n + 1):
                count = 0
                for V in enumerate_subspaces(3, n, dim):
                    assert uniformity_sup(A, Coset.of(V, zero)).sup_sq >= bound
                    count += 1
                assert count == gaussian_binomial(3, n, dim)
                total += count
            assert total == expected_totals[n]
            # the packaged scan agrees with this independent sweep
            report = scan_leading_one_set(n)
            assert report.all_passed
            assert report.total_subspaces == total


def test_criterion_2_witness_identity():
    with criterion(2, "exact witness identity"):
        for n in TERNARY_SIZES:
            A = leading_one_set(n)
            members = set(A.member_ranks())
            for V in ternary_subspaces(n):
                pts = [GFVector.from_rank(3, n, r) for r in span_ranks(V)]
                # least coordinate on which V is not identically zero
                j = min(
                    i for i in range(1, n + 1) if any(v.coords[i - 1] for v in pts)
                )
                e_j = GFVector.unit(3, n, j)
                acc = (0, 0)
                for v in pts:
                    if v.rank in members:
                        acc = pair_add(acc, OMEGA_PAIRS[(-e_j.dot(v)) % 3])
                assert 3 * acc[1] == -V.size
                ones = {v.rank for v in pts if v.coords[j - 1] == 1}
                twos = {v.rank for v in pts if v.coords[j - 1] == 2}
                assert ones <= members
                assert not (twos & members)
                assert len(ones) == len(twos) == V.size // 3


def _transform_corpus():
    """Shared seeded corpus for criteria 3 and 4: 200 tables per size 4..8."""
    stream = words(303)
    for k in range(4, 9):
        for _ in range(200):
            yield k, random_int_table(stream, 1 << k)


def test_criterion_3_transform_equivalence():
    with criterion(3, "transform brute-force equivalence"):
        for bits in range(256):
            f = [bits >> i & 1 for i in range(8)]
            assert wht2(f) == bf_wht2(f)
        for k, f in _transform_corpus():
            assert wht2(f) == bf_wht2(f)
        for k in (1, 2):
            for values in product((0, 1), repeat=3**k):
                f = list(values)
                assert _dft3_pairs([(v, 0) for v in f]) == bf_dft3(f, k)
        stream = words(304)
        for k, samples in ((3, 20), (4, 10), (5, 4), (6, 2)):
            for _ in range(samples):
                f = random_int_table(stream, 3**k)
                assert _dft3_pairs([(v, 0) for v in f]) == bf_dft3(f, k)


def test_criterion_4_parseval_and_involution():
    with criterion(4, "Parseval and involution"):

        def check(f: list[int]) -> None:
            scale = len(f)
            F = wht2(f)
            assert sum(c * c for c in F) == scale * sum(v * v for v in f)
            assert wht2(F) == [scale * v for v in f]

        for bits in range(256):
            check([bits >> i & 1 for i in range(8)])
        for _k, f in _transform_corpus():
            check(f)


def test_criterion_5_density_increment():
    with criterion(5, "density increment"):
        eps = Fraction(1, 10)
        for seed in range(100):
            A = random_point_set(2, 10, Fraction(1, 2), seed=seed)
            trace = density_increment(A, eps)
            assert trace.final.subspace.codim <= 10  # ceil(1/eps)
            assert trace.steps[-1].coset == trace.final
            densities = [coset_density(A, step.coset) for step in trace.steps]
            assert densities == [step.density for step in trace.steps]
            for before, after in zip(densities, densities[1:]):
                assert after - before > eps
            assert oracle_sup_sq(A, trace.final) <= eps * eps


def test_criterion_6_regularity():
    with criterion(6, "regularity decomposition"):
        eps = Fraction(1, 4)
        eta = Fraction(1, 8)
        gain = eta * eps * eps  # 1/128
        for seed in range(20):
            A = random_point_set(2, 12, Fraction(1, 2), seed=seed)
            result = regularity_decompose(A, eps, eta, min_codim=2)
            assert result.rounds <= 128  # floor(1/(eta*eps^2))
            assert len(result.energy_trace) == result.rounds + 1
            for before, after in zip(result.energy_trace, result.energy_trace[1:]):
                assert after - before > gain
            if result.succeeded:
                W = result.space
                assert W.codim >= 2
                good = sum(
                    1
                    for rep in coset_reps(W)
                    if oracle_sup_sq(A, Coset.of(W, rep)) <= eps * eps
                )
                total = 1 << W.codim
                assert Fraction(good, total) >= Fraction(7, 8)
                assert Fraction(good, total) == result.good_fraction


def _bf_pair_structure(colours):
    """Lex-least monochromatic independent {x, y, x+y}, colours by rank."""
    size = len(colours)
    for x, y in combinations(range(1, size), 2):
        c = colours[x]
        if c is None or colours[y] != c or colours[x ^ y] != c:
            continue
        return x, y
    return None


def test_criterion_7_ramsey_search():
    with criterion(7, "subset-sum Ramsey search"):
        forced = {}
        for m in (1, 2, 3):
            all_forced = True
            for assignment in product((0, 1), repeat=(1 << m) - 1):
                colours = (None,) + assignment
                col = AlmostColouring(m, 1, colours)
                found = find_union_structure(col, 2)
                expect = _bf_pair_structure(colours)
                if expect is None:
                    assert found is None
                    all_forced = False
                else:
                    assert found is not None
                    assert check_union_structure(col, found)
                    assert (found.xs[0].rank, found.xs[1].rank) == expect
            forced[m] = all_forced
        minimal_m = min(m for m, ok in forced.items() if ok)
        assert forced == {1: False, 2: False, 3: True}
        assert minimal_m == 3
        print(
            "[acceptance] criterion 7 derived constant: every 2-colouring of"
            f" the nonzero points forces a pair structure first at m = {minimal_m}"
        )


def test_criterion_8_decomposition_identity():
    with criterion(8, "coset decomposition identity"):
        n = 6
        stream = words(808)
        for case in range(200):
            d = case % 3 + 1
            A = random_subset(stream, 2, n, Fraction(1, 2))
            W = random_subspace(stream, 2, n, n - d - next(stream) % 2)
            xs = []
            V = W
            while len(xs) < d:
                x = random_vector(stream, 2, n)
                grown = extend_span(V, [x])
                if grown.dim == V.dim + 1:
                    xs.append(x)
                    V = grown
            sums = [GFVector.zero(2, n)]
            for x in xs:
                sums += [s + x for s in sums]
            spec_v = restricted_spectrum(A, Coset.of(V, GFVector.zero(2, n)))
            spec_ws = [restricted_spectrum(A, Coset.of(W, s)) for s in sums]
            for rank in range(1 << n):
                r = GFVector.from_rank(2, n, rank)
                rhs = sum(Fraction(*value_at(spec, r)) for spec in spec_ws)
                assert Fraction(*value_at(spec_v, r)) * (1 << d) == rhs
            v_perp = set(span_ranks(perp(V)))
            for rank in span_ranks(perp(W)):
                if rank not in v_perp:
                    r = GFVector.from_rank(2, n, rank)
                    assert sum(-1 if r.dot(s) else 1 for s in sums) == 0


def test_criterion_9_pipeline_versus_oracle():
    with criterion(9, "pipeline versus exhaustive oracle"):
        eps = Fraction(1, 4)
        params = PipelineParams(eps=eps)
        bound_sq = (Fraction(params.slack) * eps) ** 2
        outcomes: Counter[str] = Counter()
        for seed in range(50):
            A = random_point_set(2, 8, Fraction(1, 2), seed=seed)
            report = find_uniform_subspace(A, params)
            outcomes[report.outcome] += 1
            if report.outcome == "success":
                sup = oracle_sup_sq(A, Coset.of(report.V, GFVector.zero(2, 8)))
                assert sup == report.sup_sq
                assert sup <= bound_sq
                assert report.bound_ok
                _, best = exhaustive_best_subspace(A, 3, budget=10**7)
                assert best <= eps * eps
            else:
                assert report.V is None
                if report.outcome == "ramsey_failure":
                    assert report.attempts
                    assert report.attempts[-1].regularity.succeeded
                    assert report.attempts[-1].structure is None
                else:
                    assert report.outcome == "codim_exhausted"
                    assert not report.attempts or not report.attempts[
                        -1
                    ].regularity.succeeded
        assert sum(outcomes.values()) == 50
        print(f"[acceptance] criterion 9 outcomes over 50 sets: {dict(outcomes)}")


def test_criterion_10_structured_input_exactness():
    with criterion(10, "structured-input exactness"):
        stream = words(1010)
        for n, c in ((5, 1), (6, 2), (7, 3), (8, 3), (9, 2), (10, 1)):
            U = random_subspace(stream, 2, n, n - c)
            reps = coset_reps(U)
            count = 1 + rand_below(stream, (1 << c) - 1)
            chosen = []
            pool = list(reps)
            for _ in range(count):
                chosen.append(pool.pop(rand_below(stream, len(pool))))
            ranks = []
            for rep in chosen:
                ranks.extend(Coset(U, rep).point_ranks())
            A = PointSet.from_ranks(2, n, ranks)
            winner, sup = exhaustive_best_subspace(A, c, budget=10**7)
            assert sup == 0
            # sup 0 on the winner means the set is constant there
            assert len({A.bits >> r & 1 for r in span_ranks(winner)}) == 1
