"""Density-increment walk, partition energy, and the regularity decomposition.

Independent checks: final cosets are re-verified with the recursive Walsh
oracle from conftest rather than the library's own transform, and energies
are recomputed from raw membership counts.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import ceil

import pytest

from subuniform import (
    Coset,
    GFVector,
    InputError,
    PipelineParams,
    PointSet,
    Subspace,
    coordinate_subspace,
    coset_reps,
    canonical_rep,
    density_increment,
    perp,
    regularity_decompose,
    restricted_spectrum,
    rref_basis,
)
from subuniform.increments import _scan_cosets

from conftest import (
    full_set,
    partition_energy,
    raw_coset_counts,
    random_subset,
    random_subspace,
    rec_wht2,
    words,
)


def half_space(n: int) -> PointSet:
    return PointSet.from_ranks(2, n, [r for r in range(1 << n) if r >> (n - 1) & 1])


def coset_density(points: PointSet, coset: Coset) -> Fraction:
    return Fraction(sum(points.bits >> r & 1 for r in coset.point_ranks()), coset.subspace.size)


def oracle_sup_sq(points: PointSet, coset: Coset) -> Fraction:
    """Uniformity sup recomputed via the independent recursive transform."""
    table = [points.bits >> r & 1 for r in coset.point_ranks()]
    coeffs = rec_wht2(table)
    if len(coeffs) == 1:
        return Fraction(0)
    worst = max(c * c for c in coeffs[1:])
    return Fraction(worst, coset.subspace.size ** 2)


# ---------------------------------------------------------------------------
# density increment


def test_increment_frozen_half_space():
    # the set {x_1 = 1} is the odd half of the witness r = 100, its
    # complement the even half; the walk keeps whichever holds the set
    for A, rep in (
        (half_space(3), (1, 0, 0)),
        (PointSet(2, 3, half_space(3).bits ^ 0xFF), (0, 0, 0)),
    ):
        trace = density_increment(A, Fraction(1, 4))
        assert trace.step_count == 1
        assert trace.steps[0].coset == Coset.whole_space(2, 3)
        assert trace.steps[0].density == Fraction(1, 2)
        assert trace.steps[0].witness_r == GFVector(2, 3, (1, 0, 0))
        assert trace.final.subspace.codim == 1
        assert trace.final.rep == GFVector(2, 3, rep)
        assert trace.final_density == 1
        assert trace.final_sup_sq == 0


def test_increment_trivial_sets():
    for A in (PointSet.empty(2, 4), full_set(2, 4)):
        trace = density_increment(A, Fraction(1, 8))
        assert trace.step_count == 0
        assert trace.final == Coset.whole_space(2, 4)
    # eps = 1 certifies anything immediately: coefficients never exceed scale
    trace = density_increment(half_space(4), Fraction(1))
    assert trace.step_count == 0


def test_increment_validation():
    with pytest.raises(InputError):
        density_increment(full_set(3, 2), Fraction(1, 4))
    with pytest.raises(InputError):
        density_increment(full_set(2, 3), Fraction(0))
    with pytest.raises(InputError):
        density_increment(full_set(2, 3), Fraction(5, 4))


@pytest.mark.parametrize(
    "n,density,eps,seed",
    [
        (6, Fraction(1, 2), Fraction(1, 4), 41),
        (7, Fraction(1, 4), Fraction(1, 8), 42),
        (8, Fraction(1, 2), Fraction(1, 8), 43),
    ],
)
def test_increment_invariants_on_random_sets(n, density, eps, seed):
    stream = words(seed)
    for _ in range(5):
        A = random_subset(stream, 2, n, density)
        trace = density_increment(A, eps)
        assert trace.step_count <= ceil(1 / eps)
        assert trace.step_count == len(trace.steps) - 1
        # densities rise by more than eps at every step; codim rises by 1
        for i, step in enumerate(trace.steps):
            assert step.coset.subspace.codim == i
            assert step.density == coset_density(A, step.coset)
            if i > 0:
                assert step.density > trace.steps[i - 1].density + eps
        assert trace.final == trace.steps[-1].coset
        assert trace.final_density == trace.steps[-1].density
        # the walk stops exactly when the coset is eps-uniform (oracle check)
        final_sup = oracle_sup_sq(A, trace.final)
        assert final_sup == trace.final_sup_sq
        assert final_sup <= eps * eps
        for step in trace.steps[:-1]:
            assert oracle_sup_sq(A, step.coset) > eps * eps


# ---------------------------------------------------------------------------
# partition energy


def test_energy_frozen_examples():
    A = half_space(3)
    assert partition_energy(A, Subspace.full(2, 3)) == Fraction(1, 4)
    assert partition_energy(A, Subspace.zero(2, 3)) == Fraction(1, 2)
    hyper = rref_basis([GFVector(2, 3, (0, 1, 0)), GFVector(2, 3, (0, 0, 1))])
    assert partition_energy(A, hyper) == Fraction(1, 2)
    assert partition_energy(PointSet.empty(2, 3), hyper) == 0
    assert partition_energy(full_set(2, 3), hyper) == 1


def test_energy_matches_direct_computation_p3():
    stream = words(51)
    A = random_subset(stream, 3, 3, Fraction(1, 2))
    space = random_subspace(stream, 3, 3, 1)
    total = Fraction(0)
    for rep in coset_reps(space):
        total += coset_density(A, Coset.of(space, rep)) ** 2
    assert partition_energy(A, space) == total / 3 ** space.codim


@pytest.mark.parametrize("seed", [52, 53])
def test_energy_monotone_under_refinement(seed):
    stream = words(seed)
    for _ in range(6):
        A = random_subset(stream, 2, 6, Fraction(1, 2))
        W = random_subspace(stream, 2, 6, 4)
        extra = GFVector.from_rank(2, 6, 1 + next(stream) % 63)
        refined = perp(rref_basis(list(perp(W).basis) + [extra]))
        assert all(canonical_rep(row, W) == GFVector.zero(2, 6) for row in refined.basis)
        assert partition_energy(A, refined) >= partition_energy(A, W)
        # mean density is preserved, so energy is bounded by the density
        alpha = Fraction(A.size, A.ambient_size)
        assert alpha ** 2 <= partition_energy(A, W) <= alpha


# ---------------------------------------------------------------------------
# batched coset scan


def recount_scan(points: PointSet, space: Subspace, eps: Fraction):
    """_scan_cosets redone one coset at a time through restricted_spectrum."""
    bad, counts = [], []
    for rep in coset_reps(space):
        spectrum = restricted_spectrum(points, Coset(space, rep))
        report = spectrum.uniformity()
        counts.append(spectrum.count)
        if report.sup_sq > eps * eps:
            bad.append((rep.rank, report.witness_t))
    return bad, tuple(counts)


@pytest.mark.parametrize("n", range(1, 9))
def test_scan_cosets_matches_per_coset_recount(n):
    stream = words(70 + n)
    bad_seen = 0
    for codim in range(n + 1):
        space = random_subspace(stream, 2, n, n - codim)
        for density in (Fraction(1, 2), Fraction(1, 8)):
            A = random_subset(stream, 2, n, density)
            for eps in (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)):
                scan = _scan_cosets(A.bits, space, eps)
                assert scan == recount_scan(A, space, eps)
                bad_seen += len(scan[0])
    assert bad_seen


def test_scan_cosets_of_points_has_no_bad_coset():
    # dim W = 0: no nontrivial character, so every coset is uniform and
    # the counts are the membership table itself
    A = random_subset(words(78), 2, 5, Fraction(1, 2))
    mem = A.membership_table()
    assert _scan_cosets(A.bits, Subspace.zero(2, 5), Fraction(1, 64)) == ([], tuple(mem))


def test_scan_witness_is_least_t_across_signs():
    # restricted to a coset in point order, [0, 1, 0, 0] has coefficients
    # [1, -1, 1, -1], where -1 at t = 1 ties +1 at t = 2, and [0, 1, 1, 1]
    # has [3, -1, -1, -1], with no positive one; t = 1 is both witnesses
    assert rec_wht2([0, 1, 0, 0]) == [1, -1, 1, -1]
    assert rec_wht2([0, 1, 1, 1]) == [3, -1, -1, -1]
    space = coordinate_subspace(2, 4, 2)
    reps = coset_reps(space)
    ranks = []
    for q, restriction in ((1, [0, 1, 0, 0]), (2, [0, 1, 1, 1])):
        points = Coset(space, reps[q]).point_ranks()
        ranks += [r for r, m in zip(points, restriction) if m]
    A = PointSet.from_ranks(2, 4, ranks)
    bad, counts = _scan_cosets(A.bits, space, Fraction(1, 8))
    assert bad == [(reps[1].rank, 1), (reps[2].rank, 1)]
    assert counts == (0, 1, 3, 0)
    assert (bad, counts) == recount_scan(A, space, Fraction(1, 8))


# ---------------------------------------------------------------------------
# regularity decomposition


def test_regularity_frozen_failure_path():
    # half-space with one point removed: the damaged coset keeps forcing
    # refinements, so a codimension cap of 2 must be exceeded
    A = PointSet.from_ranks(2, 6, [r for r in range(64) if r & 32 and r != 33])
    res = regularity_decompose(A, Fraction(1, 64), Fraction(0), max_codim=2)
    assert not res.succeeded
    assert res.space.codim == 2
    assert res.rounds == 2
    assert res.good_fraction == Fraction(3, 4)
    assert [v.digits() for v in res.bad_reps] == ["100001"]
    assert [str(e) for e in res.energy_trace] == ["961/4096", "961/2048", "481/1024"]
    # per-coset counts in quotient order; the bad coset 100001 has index 3
    assert list(res.coset_counts) == raw_coset_counts(A, res.space) == [0, 0, 16, 15]


def test_regularity_recovers_union_structure():
    # a single coset of a codim-2 subspace: refinement walks down to exactly
    # that subspace and every coset becomes 0-uniform
    U = rref_basis([GFVector.from_rank(2, 6, r) for r in (9, 18, 36, 40)])
    assert U.codim == 2
    rep = coset_reps(U)[2]
    A = PointSet.from_ranks(2, 6, Coset(U, rep).point_ranks())
    res = regularity_decompose(A, Fraction(1, 64), Fraction(0))
    assert res.succeeded
    assert res.space == U
    assert res.rounds == 2
    assert res.good_fraction == 1
    assert [str(e) for e in res.energy_trace] == ["1/16", "1/8", "1/4"]
    for rep2 in coset_reps(U):
        assert oracle_sup_sq(A, Coset.of(U, rep2)) == 0


def test_regularity_trivial_set_with_min_codim():
    res = regularity_decompose(
        PointSet.empty(2, 5), Fraction(1, 4), Fraction(1, 8), min_codim=3
    )
    assert res.succeeded
    assert res.space == coordinate_subspace(2, 5, 3)
    assert res.rounds == 0
    assert res.good_fraction == 1
    assert tuple(res.energy_trace) == (Fraction(0),)


def test_regularity_memory_bounded_on_full_space():
    # min_codim = 0 scans the whole F_2^15 as one coset, whose parity
    # mask table would hold 4^15 bits (128 MiB)
    A = random_subset(words(61), 2, 15, Fraction(1, 2))
    tracemalloc.start()
    try:
        regularity_decompose(A, Fraction(1, 4), Fraction(1, 8), min_codim=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_regularity_validation():
    A = full_set(2, 4)
    with pytest.raises(InputError):
        regularity_decompose(full_set(3, 2), Fraction(1, 4), Fraction(1, 8))
    with pytest.raises(InputError):
        regularity_decompose(A, Fraction(0), Fraction(1, 8))
    with pytest.raises(InputError):
        regularity_decompose(A, Fraction(1, 4), Fraction(1))
    with pytest.raises(InputError):
        regularity_decompose(A, Fraction(1, 4), Fraction(1, 8), min_codim=3, max_codim=2)
    with pytest.raises(InputError):
        regularity_decompose(A, Fraction(1, 4), Fraction(1, 8), max_codim=9)


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_regularity_invariants_on_random_sets(seed):
    eps = Fraction(1, 4)
    eta = Fraction(1, 8)
    stream = words(seed)
    for _ in range(3):
        A = random_subset(stream, 2, 10, Fraction(1, 2))
        res = regularity_decompose(A, eps, eta, min_codim=2)
        assert res.rounds <= 1 / (eta * eps * eps)
        assert res.space.codim >= 2
        assert len(res.energy_trace) == res.rounds + 1
        # energy increments exceed eta * eps^2 on every performed round
        for before, after in zip(res.energy_trace, res.energy_trace[1:]):
            assert after - before > eta * eps * eps
        # independent good/bad classification of the final partition
        cosets = coset_reps(res.space)
        bad = [
            rep
            for rep in cosets
            if oracle_sup_sq(A, Coset.of(res.space, rep)) > eps * eps
        ]
        assert Fraction(len(bad), len(cosets)) <= eta or not res.succeeded
        if res.succeeded:
            assert res.good_fraction == Fraction(len(cosets) - len(bad), len(cosets))
            assert {v.rank for v in res.bad_reps} == {v.rank for v in bad}
        # the final partition's counts and energy agree with a raw recount
        assert list(res.coset_counts) == raw_coset_counts(A, res.space)
        assert res.energy_trace[-1] == partition_energy(A, res.space)


def test_coordinate_subspace_shape():
    W = coordinate_subspace(2, 5, 2)
    assert W.codim == 2
    assert all(row.coords[0] == 0 and row.coords[1] == 0 for row in W.basis)
    assert coordinate_subspace(2, 4, 0) == Subspace.full(2, 4)
    assert coordinate_subspace(2, 4, 4) == Subspace.zero(2, 4)
    with pytest.raises(InputError):
        coordinate_subspace(2, 4, 5)


# ---------------------------------------------------------------------------
# pipeline parameter resolution


def test_pipeline_params_defaults():
    assert PipelineParams(eps=Fraction(1, 4)).resolved_d == 3
    assert PipelineParams(eps=Fraction(1, 4)).resolved_buckets == 4
    assert PipelineParams(eps=Fraction(1, 10)).resolved_d == 5
    assert PipelineParams(eps=Fraction(1, 10)).resolved_buckets == 10
    assert PipelineParams(eps=Fraction(1)).resolved_d == 1
    assert PipelineParams(eps=Fraction(1)).resolved_buckets == 1
    assert PipelineParams(eps=Fraction(1, 3)).resolved_d == 3
    assert PipelineParams(eps=Fraction(1, 3)).resolved_buckets == 3
    explicit = PipelineParams(eps=Fraction(1, 4), d=2, buckets=7)
    assert explicit.resolved_d == 2
    assert explicit.resolved_buckets == 7


def test_pipeline_params_validation():
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(0))
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(1, 4), eta=Fraction(1))
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(1, 4), d=0)
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(1, 4), buckets=0)
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(1, 4), min_codim=3, max_codim=2)
    with pytest.raises(InputError):
        PipelineParams(eps=Fraction(1, 4), slack=0)
