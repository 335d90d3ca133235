"""Exact transforms and restricted spectra.

Oracles: `bf_wht2` / `bf_dft3` evaluate the defining double character sums
directly (conftest); `rec_wht2` is an independent divide-and-conquer Walsh
transform.  The restricted-spectrum tests recompute coefficients from the
definition with their own digit handling.
"""

from __future__ import annotations

from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import (
    Coset,
    GFVector,
    InputError,
    PointSet,
    Subspace,
    lift_class,
    perp,
    restricted_spectrum,
    rref_basis,
    uniformity_sup,
    wht2,
)
from subuniform import spectra
from subuniform.spectra import _dft3_pairs, packed_max_coef_sq

from conftest import (
    OMEGA_PAIRS,
    base_p_digits,
    bf_dft3,
    bf_wht2,
    char_index,
    full_set,
    pair_add,
    pair_mul,
    pair_norm,
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

int_table = st.integers(min_value=-9, max_value=9)


def coef_sq(c: int | tuple[int, int]) -> int:
    """Squared magnitude of an unnormalized coefficient."""
    return c * c if isinstance(c, int) else pair_norm(c)


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


@pytest.mark.parametrize("k", [14, 15])
def test_wht2_on_both_sides_of_the_lane_switch(k):
    # 0/1 tables take 16-bit lanes up to k = 14 and 32-bit lanes from 15
    size = 1 << k
    for table, expect in (
        ([1] * size, [size] + [0] * (size - 1)),
        ([1, 0] * (size // 2), [size // 2] * 2 + [0] * (size - 2)),
        ([1, -1] * (size // 2), [0, size] + [0] * (size - 2)),
    ):
        coeffs = wht2(table)
        assert coeffs == expect
        assert coeffs == rec_wht2(table)


def test_wht2_negative_and_single_entries():
    for table in ([7], [-7], [0], [-1] * 8, [-9, 3, 0, -4], [-5] * 3 + [9] * 5):
        assert wht2(table) == bf_wht2(table) == rec_wht2(table)
    stream = words(102)
    table = [-1 - rand_below(stream, 1000) for _ in range(64)]
    assert wht2(table) == bf_wht2(table)


def test_wht2_rejects_tables_past_64_bit_lanes():
    # lanes must hold 2^(k+1) * max|entry|: 2^63 fits, 2^64 does not
    for table in ([1 << 61, 0], [0, -(1 << 61)], [1 << 47] + [0] * ((1 << 15) - 1)):
        assert wht2(table) == rec_wht2(table)
    for table in ([1 << 62, 0], [0, -(1 << 62)], [1 << 48] + [0] * ((1 << 15) - 1)):
        with pytest.raises(InputError):
            wht2(table)
    # lanes follow the block: blocks of 2 need only 2^2 * max|entry|
    table = [1 << 48] + [0] * ((1 << 15) - 1)
    assert wht2(table, 2)[:4] == [1 << 48, 1 << 48, 0, 0]


def blockwise(transform, table, block):
    return [c for i in range(0, len(table), block) for c in transform(table[i : i + block])]


@pytest.mark.parametrize(
    "k,b", [(0, 0), (1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (6, 1), (6, 4), (6, 6), (9, 5)]
)
def test_wht2_transforms_each_block_on_its_own(k, b):
    stream = words(103 + 10 * k + b)
    table = random_int_table(stream, 1 << k)
    coeffs = wht2(table, 1 << b)
    assert coeffs == blockwise(bf_wht2, table, 1 << b)
    assert coeffs == blockwise(rec_wht2, table, 1 << b)
    if b == k:
        assert coeffs == wht2(table)


def test_wht2_block_alone_picks_16_bit_lanes(monkeypatch):
    # a 0/1 table of 2^16 entries takes 32-bit lanes whole, but its
    # blocks of 2^14 hold at most 2^15 and fit 16-bit lanes
    codes = []

    def spy(code, *args):
        codes.append(code)
        return array(code, *args)

    monkeypatch.setattr(spectra, "array", spy)
    stream = words(104)
    table = [rand_below(stream, 2) for _ in range(1 << 16)]
    coeffs = wht2(table, 1 << 14)
    assert set(codes) == {"H"}
    assert coeffs == blockwise(rec_wht2, table, 1 << 14)
    codes.clear()
    wht2(table)
    assert codes[-1] == "I"


@pytest.mark.parametrize("k", range(11))
def test_wht2_bytes_route_matches_list_route(k):
    stream = words(110 + k)
    size = 1 << k
    tables = [
        [rand_below(stream, 2) for _ in range(size)],
        [0] * size,
        [1] * size,
        # entries past 1 need their max as the bias, and wider lanes
        [rand_below(stream, 256) for _ in range(size - 1)] + [255],
    ]
    for table in tables:
        for b in range(k + 1):
            coeffs = wht2(bytes(table), 1 << b)
            assert coeffs == wht2(table, 1 << b)
            assert coeffs == blockwise(rec_wht2, table, 1 << b)


def test_wht2_rejects_bad_blocks():
    for block in (0, -2, 3, 6, 16):
        with pytest.raises(InputError):
            wht2([0] * 8, block)


# ---------------------------------------------------------------------------
# cube-root transform (p = 3)


def real_pairs(table: list[int]) -> list[tuple[int, int]]:
    return [(v, 0) for v in table]


def test_dft3_frozen_examples():
    assert _dft3_pairs([(0, 0), (1, 0), (0, 0)]) == [(1, 0), (-1, -1), (0, 1)]
    assert _dft3_pairs([(1, 0), (0, 0), (0, 0)]) == [(1, 0)] * 3
    assert _dft3_pairs([(1, 0), (1, 0), (1, 0)]) == [(3, 0), (0, 0), (0, 0)]
    assert _dft3_pairs([(5, 0)]) == [(5, 0)]


def test_dft3_matches_bruteforce_exhaustive_indicators():
    for k in (1, 2):
        size = 3**k
        for mask in range(1 << size):
            table = [(mask >> i) & 1 for i in range(size)]
            assert _dft3_pairs(real_pairs(table)) == bf_dft3(table, k)


def test_dft3_matches_bruteforce_random_tables():
    stream = words(102)
    for k, reps in ((3, 12), (4, 4)):
        for _ in range(reps):
            table = random_int_table(stream, 3**k)
            assert _dft3_pairs(real_pairs(table)) == bf_dft3(table, k)


def test_dft3_eisenstein_input_linearity():
    stream = words(103)
    for _ in range(10):
        re = random_int_table(stream, 9)
        im = random_int_table(stream, 9)
        out = _dft3_pairs(list(zip(re, im)))
        out_re = _dft3_pairs(real_pairs(re))
        out_im = _dft3_pairs(real_pairs(im))
        w = OMEGA_PAIRS[1]
        assert out == [pair_add(a, pair_mul(w, b)) for a, b in zip(out_re, out_im)]


def test_dft3_inversion_up_to_scale_and_reflection():
    stream = words(104)
    for k in (1, 2, 3):
        size = 3**k
        table = random_int_table(stream, size)
        twice = _dft3_pairs(_dft3_pairs(real_pairs(table)))
        for s in range(size):
            digits = base_p_digits(3, k, s)
            neg = sum(((-d) % 3) * 3 ** (k - 1 - i) for i, d in enumerate(digits))
            assert twice[s] == (size * table[neg], 0)


def test_dft3_parseval():
    stream = words(105)
    for k in (1, 2, 3):
        size = 3**k
        table = random_int_table(stream, size)
        coeffs = _dft3_pairs(real_pairs(table))
        assert sum(map(pair_norm, coeffs)) == size * sum(f * f for f in table)


def test_dft3_rejects_bad_lengths():
    for bad in ([], [1, 2], [0] * 6):
        with pytest.raises(InputError):
            _dft3_pairs(real_pairs(bad))


# ---------------------------------------------------------------------------
# restricted spectra


def test_restricted_spectrum_frozen_f3_point():
    A = PointSet.from_ranks(3, 1, [1])
    spec = restricted_spectrum(A, Coset.whole_space(3, 1))
    assert spec.coefficients == ((1, 0), (-1, -1), (0, 1))
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
                for _ in range(ci):
                    pt = pt + row
            if not points.bits >> pt.rank & 1:
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
        assert list(spec.coefficients) == direct
        # trivial coefficient counts the members on the coset
        assert spec.count == sum(A.bits >> r & 1 for r in coset.point_ranks())
        if p == 2:
            assert spec.coefficients[0] == spec.count
        else:
            assert spec.coefficients[0] == (spec.count, 0)


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
                assert pair_norm(spec.coefficients[t]) <= bound * bound


def test_spectrum_value_at_matches_direct_average():
    stream = words(220)
    # p = 2 signed values
    A = random_subset(stream, 2, 5, Fraction(1, 2))
    space = random_subspace(stream, 2, 5, 3)
    coset = Coset.of(space, random_vector(stream, 2, 5))
    spec = restricted_spectrum(A, coset)
    coset_pts = [GFVector.from_rank(2, 5, y) for y in coset.point_ranks()]
    for _ in range(10):
        r = random_vector(stream, 2, 5)
        direct = sum((A.bits >> y.rank & 1) * (-1 if r.dot(y) else 1) for y in coset_pts)
        assert value_at(spec, r) == (direct, spec.scale)
    # p = 3 complex values
    B = random_subset(stream, 3, 3, Fraction(1, 2))
    space3 = random_subspace(stream, 3, 3, 2)
    coset3 = Coset.of(space3, random_vector(stream, 3, 3))
    spec3 = restricted_spectrum(B, coset3)
    for _ in range(10):
        r = random_vector(stream, 3, 3)
        acc = (0, 0)
        for y in coset3.point_ranks():
            if B.bits >> y & 1:
                acc = pair_add(acc, OMEGA_PAIRS[(-r.dot(GFVector.from_rank(3, 3, y))) % 3])
        value, scale = value_at(spec3, r)
        assert value == acc
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
        spec_shifted = restricted_spectrum(A, shifted)
        for t in range(space.size):
            assert coef_sq(spec_canon.coefficients[t]) == coef_sq(spec_shifted.coefficients[t])


# ---------------------------------------------------------------------------
# uniformity reports


def test_uniformity_frozen_half_space():
    A = PointSet.from_ranks(2, 3, [4, 5, 6, 7])
    report = uniformity_sup(A, Coset.whole_space(2, 3))
    assert report.sup_sq == Fraction(1, 4)
    assert report.witness_t == 4
    assert report.witness_r == GFVector(2, 3, (1, 0, 0))
    assert report.density == Fraction(1, 2)
    assert report.coset.size == 8


def test_uniformity_trivial_cases():
    for A in (PointSet.empty(2, 4), full_set(2, 4), PointSet.empty(3, 2)):
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
        squares = [Fraction(coef_sq(c), space.size**2) for c in spec.coefficients]
        sup = max(squares[1:])
        assert report.sup_sq == sup
        if report.sup_sq == 0:
            continue
        t = report.witness_t
        assert squares[t] == sup
        # witness_t is the least class achieving the sup
        assert all(squares[s] < sup for s in range(1, t))
        # witness_r induces class t and is the lex-least such vector
        r = report.witness_r
        assert char_index(space, r) == t
        candidates = [
            rank
            for rank in range(p**n)
            if char_index(space, GFVector.from_rank(p, n, rank)) == t
        ]
        assert r.rank == min(candidates)
        # nontrivial class means r is outside the annihilator
        assert r.rank not in span_ranks(perp(space))


@pytest.mark.parametrize("p,n,seed", [(2, 4, 242), (2, 6, 243), (3, 3, 244), (3, 4, 245)])
def test_uniformity_from_annihilator_sums_of_full_transform(p, n, seed):
    # Poisson summation: sum_{s in W} F(r + s) = |W| * coefficient of the
    # class r induces on V, for W = perp(V) and F the full transform, so
    # sup^2 on V = max over r outside W of |that sum|^2 / p^(2n)
    stream = words(seed)
    for _ in range(8):
        A = random_subset(stream, p, n, Fraction(1, 2))
        space = random_subspace(stream, p, n, rand_below(stream, n + 1))
        table = A.membership_table()
        F = bf_wht2(table) if p == 2 else bf_dft3(table, n)
        dual = [GFVector.from_rank(p, n, s) for s in span_ranks(perp(space))]
        best = 0
        for rank in range(p**n):
            r = GFVector.from_rank(p, n, rank)
            if r in dual:
                continue
            terms = [F[(r + s).rank] for s in dual]
            if p == 2:
                best = max(best, sum(terms) ** 2)
            else:
                total = (sum(a for a, _ in terms), sum(b for _, b in terms))
                best = max(best, pair_norm(total))
        expect = uniformity_sup(A, Coset(space, GFVector.zero(p, n))).sup_sq
        assert Fraction(best, p ** (2 * n)) == expect


# ---------------------------------------------------------------------------
# character-class lifting and the packed fast path


def test_packed_path_matches_transform_route():
    stream = words(250)
    # the k = 14 coset's table is too large for bf_wht2's 4^k sums
    for n, k in [(6, 4)] * 10 + [(15, 14)]:
        A = random_subset(stream, 2, n, Fraction(1, 2))
        space = random_subspace(stream, 2, n, k)
        coset = Coset.of(space, random_vector(stream, 2, n))
        table = [A.bits >> y & 1 for y in coset.point_ranks()]
        coeffs = bf_wht2(table) if k < 14 else rec_wht2(table)
        packed = sum(bit << i for i, bit in enumerate(table))
        count = packed.bit_count()
        assert restricted_spectrum(A, coset).coefficients == tuple(coeffs)
        max_sq, least_t = packed_max_coef_sq(packed, count, k)
        coef_sq = [c * c for c in coeffs]
        expect = max(coef_sq[1:])
        assert max_sq == expect
        assert least_t == coef_sq.index(expect, 1)
    # with every nontrivial coefficient 0 the witness is t = 1
    for k in (4, 14):
        assert packed_max_coef_sq(0, 0, k) == (0, 1)
        assert packed_max_coef_sq((1 << (1 << k)) - 1, 1 << k, k) == (0, 1)
    # coefficients -2 at t = 3 and +2 at t = 4 tie: the least t wins
    assert bf_wht2([0, 1, 1, 0, 0, 0, 0, 0]) == [2, 0, 0, -2, 2, 0, 0, -2]
    assert packed_max_coef_sq(0b110, 2, 3) == (4, 3)


def test_packed_kernel_matches_bruteforce_every_dimension():
    stream = words(251)
    assert packed_max_coef_sq(1, 1, 0) == (0, 0)
    for k in range(1, 16):
        size = 1 << k
        table = [rand_below(stream, 2) for _ in range(size)]
        packed = sum(bit << i for i, bit in enumerate(table))
        coef_sq = [c * c for c in (bf_wht2(table) if k <= 8 else rec_wht2(table))]
        expect = max(coef_sq[1:])
        assert packed_max_coef_sq(packed, packed.bit_count(), k) == (
            expect,
            coef_sq.index(expect, 1),
        )


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
    pts = [GFVector.from_rank(2, 4, r) for r in coset.point_ranks()]
    assert pts[0] == GFVector.zero(2, 4)
    assert pts[0b10] == space.basis[0]
    assert pts[0b01] == space.basis[1]
    assert pts[0b11] == space.basis[0] + space.basis[1]
