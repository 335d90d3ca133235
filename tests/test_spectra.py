"""Exact transforms and restricted spectra.

Oracles: `bf_wht2` / `bf_dft3` evaluate the defining double character sums
directly (conftest); `rec_wht2` is an independent divide-and-conquer Walsh
transform.  The restricted-spectrum tests recompute coefficients from the
definition with their own digit handling.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import (
    Coset,
    Eisenstein,
    GFVector,
    InputError,
    PointSet,
    Subspace,
    dft3,
    lift_class,
    perp,
    restricted_spectrum,
    rref_basis,
    uniformity_sup,
    wht2,
)
from subuniform.spectra import PACKED_MAX_K, packed_max_coef_sq, parity_masks

from conftest import (
    OMEGA_PAIRS,
    base_p_digits,
    bf_dft3,
    bf_wht2,
    pair_add,
    pair_mul,
    pair_norm,
    random_int_table,
    random_subset,
    random_subspace,
    random_vector,
    rec_wht2,
    words,
)

int_table = st.integers(min_value=-9, max_value=9)


def table_strategy(lengths=(2, 4, 8, 16)):
    return st.sampled_from(lengths).flatmap(
        lambda size: st.lists(int_table, min_size=size, max_size=size)
    )


# ---------------------------------------------------------------------------
# Walsh transform (p = 2)


def test_wht2_frozen_examples():
    assert wht2([0, 0, 1, 1]) == [2, 0, -2, 0]
    assert wht2([1, 0, 0, 0, 0, 0, 0, 0]) == [1] * 8
    assert wht2([1] * 8) == [8, 0, 0, 0, 0, 0, 0, 0]
    assert wht2([0, 0, 0, 0, 1, 1, 1, 1]) == [4, 0, 0, 0, -4, 0, 0, 0]
    assert wht2([7]) == [7]


def test_wht2_matches_bruteforce_exhaustive_indicators():
    for k in (1, 2, 3):
        size = 1 << k
        for mask in range(1 << size):
            table = [(mask >> i) & 1 for i in range(size)]
            assert wht2(table) == bf_wht2(table)


def test_wht2_matches_bruteforce_random_tables():
    stream = words(101)
    for k in (4, 5, 6):
        for _ in range(20):
            table = random_int_table(stream, 1 << k)
            coeffs = wht2(table)
            assert coeffs == bf_wht2(table)
            assert coeffs == rec_wht2(table)


@given(table_strategy())
def test_wht2_involution_and_parseval(table):
    size = len(table)
    coeffs = wht2(table)
    assert wht2(coeffs) == [size * f for f in table]
    assert sum(c * c for c in coeffs) == size * sum(f * f for f in table)


def test_wht2_rejects_bad_lengths():
    for bad in ([], [1, 2, 3], [0] * 6):
        with pytest.raises(InputError):
            wht2(bad)


# ---------------------------------------------------------------------------
# cube-root transform (p = 3)


def test_dft3_frozen_examples():
    assert dft3([0, 1, 0]) == [Eisenstein(1, 0), Eisenstein(-1, -1), Eisenstein(0, 1)]
    assert dft3([1, 0, 0]) == [Eisenstein(1, 0)] * 3
    assert dft3([1, 1, 1]) == [Eisenstein(3, 0), Eisenstein(0, 0), Eisenstein(0, 0)]
    assert dft3([5]) == [Eisenstein(5, 0)]


def test_dft3_matches_bruteforce_exhaustive_indicators():
    for k in (1, 2):
        size = 3**k
        for mask in range(1 << size):
            table = [(mask >> i) & 1 for i in range(size)]
            out = dft3(table)
            assert [(c.a, c.b) for c in out] == bf_dft3(table, k)


def test_dft3_matches_bruteforce_random_tables():
    stream = words(102)
    for k, reps in ((3, 12), (4, 4)):
        for _ in range(reps):
            table = random_int_table(stream, 3**k)
            out = dft3(table)
            assert [(c.a, c.b) for c in out] == bf_dft3(table, k)


def test_dft3_eisenstein_input_linearity():
    stream = words(103)
    for _ in range(10):
        re = random_int_table(stream, 9)
        im = random_int_table(stream, 9)
        mixed = [Eisenstein(a, b) for a, b in zip(re, im)]
        out = dft3(mixed)
        out_re = dft3(re)
        out_im = dft3(im)
        w = Eisenstein(0, 1)
        assert out == [a + w * b for a, b in zip(out_re, out_im)]


def test_dft3_inversion_up_to_scale_and_reflection():
    stream = words(104)
    for k in (1, 2, 3):
        size = 3**k
        table = random_int_table(stream, size)
        twice = dft3(dft3(table))
        for s in range(size):
            digits = base_p_digits(3, k, s)
            neg = sum(((-d) % 3) * 3 ** (k - 1 - i) for i, d in enumerate(digits))
            assert twice[s] == Eisenstein(size * table[neg], 0)


def test_dft3_parseval():
    stream = words(105)
    for k in (1, 2, 3):
        size = 3**k
        table = random_int_table(stream, size)
        coeffs = dft3(table)
        assert sum(c.norm() for c in coeffs) == size * sum(f * f for f in table)


def test_dft3_rejects_bad_lengths():
    for bad in ([], [1, 2], [0] * 6):
        with pytest.raises(InputError):
            dft3(bad)


# ---------------------------------------------------------------------------
# restricted spectra


def test_restricted_spectrum_frozen_f3_point():
    A = PointSet.from_ranks(3, 1, [1])
    spec = restricted_spectrum(A, Coset.whole_space(3, 1))
    assert spec.coefficients == (Eisenstein(1, 0), Eisenstein(-1, -1), Eisenstein(0, 1))
    assert spec.count == 1
    assert spec.density == Fraction(1, 3)
    assert spec.scale == 3


def test_restricted_spectrum_frozen_half_space():
    A = PointSet.from_ranks(2, 3, [4, 5, 6, 7])
    spec = restricted_spectrum(A, Coset.whole_space(2, 3))
    assert list(spec.coefficients) == [4, 0, 0, 0, -4, 0, 0, 0]
    assert spec.density == Fraction(1, 2)


def _direct_coefficients(points: PointSet, coset: Coset) -> list:
    """Definition-level recomputation with independent digit handling."""
    space = coset.subspace
    p, k = space.p, space.dim
    rows = space.basis
    out = []
    for t in range(space.size):
        td = base_p_digits(p, k, t)
        if p == 2:
            acc = 0
        else:
            acc = (0, 0)
        for c in range(space.size):
            cd = base_p_digits(p, k, c)
            pt = coset.rep
            for ci, row in zip(cd, rows):
                pt = pt + row.scale(ci)
            if not points.contains(pt):
                continue
            dot = sum(a * b for a, b in zip(td, cd)) % p
            if p == 2:
                acc += -1 if dot else 1
            else:
                acc = pair_add(acc, OMEGA_PAIRS[(-dot) % 3])
        out.append(acc)
    return out


@pytest.mark.parametrize("p,n,dim,seed", [(2, 5, 3, 201), (2, 6, 2, 202), (3, 3, 2, 203)])
def test_restricted_spectrum_matches_definition(p, n, dim, seed):
    stream = words(seed)
    for _ in range(8):
        A = random_subset(stream, p, n, Fraction(1, 2))
        space = random_subspace(stream, p, n, dim)
        coset = Coset.of(space, random_vector(stream, p, n))
        spec = restricted_spectrum(A, coset)
        direct = _direct_coefficients(A, coset)
        if p == 2:
            assert list(spec.coefficients) == direct
        else:
            assert [(c.a, c.b) for c in spec.coefficients] == direct
        # trivial coefficient counts the members on the coset
        assert spec.count == sum(1 for y in coset.points() if A.contains(y))
        if p == 2:
            assert spec.coefficients[0] == spec.count
        else:
            assert spec.coefficients[0] == Eisenstein(spec.count, 0)


@pytest.mark.parametrize("p,n,dim,seed", [(2, 5, 3, 211), (3, 3, 2, 212)])
def test_coefficient_magnitude_bound(p, n, dim, seed):
    stream = words(seed)
    for _ in range(8):
        A = random_subset(stream, p, n, Fraction(1, 3))
        space = random_subspace(stream, p, n, dim)
        coset = Coset.of(space, random_vector(stream, p, n))
        spec = restricted_spectrum(A, coset)
        bound = min(spec.count, spec.scale - spec.count)
        for t in range(1, space.size):
            if p == 2:
                assert abs(spec.coefficients[t]) <= bound
            else:
                assert spec.coefficients[t].norm() <= bound * bound


def test_spectrum_value_at_matches_direct_average():
    stream = words(220)
    # p = 2 signed values
    A = random_subset(stream, 2, 5, Fraction(1, 2))
    space = random_subspace(stream, 2, 5, 3)
    coset = Coset.of(space, random_vector(stream, 2, 5))
    spec = restricted_spectrum(A, coset)
    for _ in range(10):
        r = random_vector(stream, 2, 5)
        direct = sum(
            (1 if A.contains(y) else 0) * (-1 if r.dot(y) else 1)
            for y in coset.points()
        )
        assert spec.signed_value_at(r) == Fraction(direct, spec.scale)
    # p = 3 complex values
    B = random_subset(stream, 3, 3, Fraction(1, 2))
    space3 = random_subspace(stream, 3, 3, 2)
    coset3 = Coset.of(space3, random_vector(stream, 3, 3))
    spec3 = restricted_spectrum(B, coset3)
    for _ in range(10):
        r = random_vector(stream, 3, 3)
        acc = (0, 0)
        for y in coset3.points():
            if B.contains(y):
                acc = pair_add(acc, OMEGA_PAIRS[(-r.dot(y)) % 3])
        value, scale = spec3.complex_value_at(r)
        assert (value.a, value.b) == acc
        assert scale == spec3.scale


def test_spectrum_magnitudes_are_anchor_independent():
    stream = words(230)
    for p, n, dim in ((2, 5, 3), (3, 3, 2)):
        A = random_subset(stream, p, n, Fraction(1, 2))
        space = random_subspace(stream, p, n, dim)
        x = random_vector(stream, p, n)
        coset = Coset.of(space, x)
        spec_canon = restricted_spectrum(A, coset)
        # anchoring at x + v for v in the subspace must not change magnitudes
        shifted = Coset.of(space, x + space.basis[0])
        assert shifted == coset
        for t in range(space.size):
            assert spec_canon.magnitude_sq(t) == restricted_spectrum(
                A, shifted
            ).magnitude_sq(t)


# ---------------------------------------------------------------------------
# uniformity reports


def test_uniformity_frozen_half_space():
    A = PointSet.from_ranks(2, 3, [4, 5, 6, 7])
    report = uniformity_sup(A, Coset.whole_space(2, 3))
    assert report.sup_sq == Fraction(1, 4)
    assert report.witness_t == 4
    assert report.witness_r == GFVector(2, 3, (1, 0, 0))
    assert report.density == Fraction(1, 2)
    assert report.scale == 8


def test_uniformity_trivial_cases():
    for A in (PointSet.empty(2, 4), PointSet.full(2, 4), PointSet.empty(3, 2)):
        report = uniformity_sup(A, Coset.whole_space(A.p, A.n))
        assert report.sup_sq == 0
        assert report.witness_t is None and report.witness_r is None
    # dimension-zero coset: no nontrivial characters at all
    zero = Subspace.zero(2, 3)
    report = uniformity_sup(PointSet.from_ranks(2, 3, [3]), Coset.of(zero, GFVector(2, 3, (0, 1, 1))))
    assert report.sup_sq == 0
    assert report.density == 1


@pytest.mark.parametrize("p,n,dim,seed", [(2, 5, 3, 240), (3, 3, 2, 241)])
def test_uniformity_witness_properties(p, n, dim, seed):
    stream = words(seed)
    for _ in range(6):
        A = random_subset(stream, p, n, Fraction(1, 2))
        space = random_subspace(stream, p, n, dim)
        coset = Coset.of(space, random_vector(stream, p, n))
        report = uniformity_sup(A, coset)
        spec = restricted_spectrum(A, coset)
        # sup over t != 0 recomputed directly
        sup = max(spec.magnitude_sq(t) for t in range(1, space.size))
        assert report.sup_sq == sup
        if report.sup_sq == 0:
            continue
        t = report.witness_t
        assert spec.magnitude_sq(t) == sup
        # witness_t is the least class achieving the sup
        assert all(spec.magnitude_sq(s) < sup for s in range(1, t))
        # witness_r induces class t and is the lex-least such vector
        r = report.witness_r
        assert spec.class_index(r) == t
        candidates = [
            rank
            for rank in range(p**n)
            if spec.class_index(GFVector.from_rank(p, n, rank)) == t
        ]
        assert r.rank == min(candidates)
        # nontrivial class means r is outside the annihilator
        assert not perp(space).contains(r)


# ---------------------------------------------------------------------------
# character-class lifting and the packed fast path


def test_parity_masks_bits():
    for k in (1, 2, 3, 5):
        masks = parity_masks(k)
        assert len(masks) == 1 << k
        for t in range(1 << k):
            for i in range(1 << k):
                expect = (t & i).bit_count() & 1
                assert (masks[t] >> i) & 1 == expect


def test_packed_path_matches_transform_route():
    stream = words(250)
    # the k = 14 coset lies past PACKED_MAX_K, where the kernel unpacks
    # the restriction and takes the butterfly instead of the masks
    for n, k in [(6, 4)] * 10 + [(15, 14)]:
        A = random_subset(stream, 2, n, Fraction(1, 2))
        space = random_subspace(stream, 2, n, k)
        coset = Coset.of(space, random_vector(stream, 2, n))
        spec = restricted_spectrum(A, coset)
        packed = 0
        for i, y in enumerate(coset.points()):
            if A.contains(y):
                packed |= 1 << i
        count = packed.bit_count()
        assert count == spec.count
        if k <= PACKED_MAX_K:
            masks = parity_masks(k)
            for t in range(1 << k):
                assert count - 2 * (packed & masks[t]).bit_count() == spec.coefficients[t]
        max_sq, least_t = packed_max_coef_sq(packed, count, k)
        coef_sq = [c * c for c in spec.coefficients]
        expect = max(coef_sq[1:])
        assert max_sq == expect
        assert least_t == coef_sq.index(expect, 1)
    # with every nontrivial coefficient 0 both routes name t = 1
    for k in (4, 14):
        assert packed_max_coef_sq(0, 0, k) == (0, 1)
        assert packed_max_coef_sq((1 << (1 << k)) - 1, 1 << k, k) == (0, 1)


def test_lift_class_is_least_preimage():
    stream = words(260)
    for p, n, dim in ((2, 5, 3), (3, 3, 2)):
        for _ in range(6):
            space = random_subspace(stream, p, n, dim)
            for t in range(space.size):
                lift = lift_class(space, t)
                digits = base_p_digits(p, dim, t)
                assert tuple(lift.dot(row) for row in space.basis) == digits
                candidates = [
                    rank
                    for rank in range(p**n)
                    if tuple(
                        GFVector.from_rank(p, n, rank).dot(row)
                        for row in space.basis
                    )
                    == digits
                ]
                assert lift.rank == min(candidates)


def test_coset_points_follow_coefficient_index_order():
    # table index c corresponds to the point rep + sum c_i b_i; spot-check
    space = rref_basis([GFVector(2, 4, (1, 0, 0, 1)), GFVector(2, 4, (0, 1, 1, 0))])
    coset = Coset.of(space, GFVector(2, 4, (0, 0, 0, 0)))
    pts = list(coset.points())
    assert pts[0].is_zero
    assert pts[0b10] == space.basis[0]
    assert pts[0b01] == space.basis[1]
    assert pts[0b11] == space.basis[0] + space.basis[1]
