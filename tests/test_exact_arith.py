"""Exact rational plumbing and the (a, b) pair arithmetic of the F_3 oracles.

A pair (a, b) stands for a + b*w with w a primitive cube root of unity,
w^2 = -1 - w.  The pair helpers in conftest (`pair_mul`, `pair_add`,
`pair_norm`) carry the brute-force transform oracle `bf_dft3` and
`value_at`; the tests here hold them to the ring laws, to the bilinear
expansion with w^2 read from `OMEGA_PAIRS`, and to the squared complex
magnitude |a + b*w|^2 = (a - b/2)^2 + 3 b^2 / 4.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subuniform import InputError, format_rational, parse_rational

from conftest import OMEGA_PAIRS, pair_add, pair_mul, pair_norm

coeff = st.integers(min_value=-50, max_value=50)
eisenstein = st.tuples(coeff, coeff)

# w^0, w^1, w^2
ONE, OMEGA, OMEGA_SQ = OMEGA_PAIRS


def conj(z: tuple[int, int]) -> tuple[int, int]:
    """Complex conjugate, the ring automorphism w -> w^2: (a - b) - b w."""
    a, b = z
    return (a - b, -b)


def neg(z: tuple[int, int]) -> tuple[int, int]:
    return (-z[0], -z[1])


# ---------------------------------------------------------------------------
# frozen examples


def test_omega_squared_is_minus_one_minus_omega():
    assert pair_mul(OMEGA, OMEGA) == (-1, -1)
    assert pair_mul(OMEGA, OMEGA) == OMEGA_SQ


def test_one_plus_omega_squares_to_omega():
    z = (1, 1)
    assert pair_mul(z, z) == OMEGA


def test_cube_roots_of_unity():
    assert pair_mul(pair_mul(OMEGA, OMEGA), OMEGA) == ONE
    assert pair_mul(OMEGA, OMEGA_SQ) == ONE
    assert pair_add(pair_add(ONE, OMEGA), OMEGA_SQ) == (0, 0)


def test_unit_norms():
    for w in (ONE, OMEGA, OMEGA_SQ):
        assert pair_norm(w) == 1
        assert pair_norm(neg(w)) == 1


# ---------------------------------------------------------------------------
# ring laws


def scaled(c: int, z: tuple[int, int]) -> tuple[int, int]:
    return (c * z[0], c * z[1])


@given(eisenstein, eisenstein)
def test_multiplication_matches_closed_form(z, w):
    # (a + b w)(c + d w) = ac + (ad + bc) w + bd w^2, term by term
    (a, b), (c, d) = z, w
    expect = pair_add(
        pair_add(scaled(a * c, ONE), scaled(a * d + b * c, OMEGA)), scaled(b * d, OMEGA_SQ)
    )
    assert pair_mul(z, w) == expect


@given(eisenstein, eisenstein)
def test_multiplication_commutes(z, w):
    assert pair_mul(z, w) == pair_mul(w, z)


@given(eisenstein, eisenstein, eisenstein)
def test_associativity_and_distributivity(z, w, u):
    assert pair_mul(pair_mul(z, w), u) == pair_mul(z, pair_mul(w, u))
    assert pair_mul(z, pair_add(w, u)) == pair_add(pair_mul(z, w), pair_mul(z, u))


@given(eisenstein)
def test_norm_matches_oracle(z):
    # w = -1/2 + i sqrt(3)/2, so a + b w has real part a - b/2 and
    # squared imaginary part 3 b^2 / 4
    a, b = z
    assert pair_norm(z) == (a - Fraction(b, 2)) ** 2 + Fraction(3 * b * b, 4)
    assert pair_norm(z) >= 0


@given(eisenstein, eisenstein)
def test_norm_is_multiplicative(z, w):
    assert pair_norm(pair_mul(z, w)) == pair_norm(z) * pair_norm(w)


@given(eisenstein, eisenstein)
def test_conj_is_a_ring_homomorphism(z, w):
    assert conj(pair_add(z, w)) == pair_add(conj(z), conj(w))
    assert conj(pair_mul(z, w)) == pair_mul(conj(z), conj(w))
    assert conj(conj(z)) == z


@given(eisenstein)
def test_z_times_conj_is_norm(z):
    assert pair_mul(z, conj(z)) == (pair_norm(z), 0)


@given(st.integers(min_value=-9, max_value=9), eisenstein)
def test_integer_scaling(c, z):
    # bf_dft3 scales a root of unity by a table entry f as pair_mul((f, 0), w)
    assert pair_mul((c, 0), z) == scaled(c, z)
    assert pair_mul(z, (c, 0)) == scaled(c, z)


# ---------------------------------------------------------------------------
# rationals


@given(st.fractions(min_value=-100, max_value=100))
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_formats():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-1, 4)) == "-1/4"


def test_rational_parsing():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-2") == Fraction(-2)
    for bad in ("1/0", "abc", "", "1/2/3"):
        with pytest.raises(InputError):
            parse_rational(bad)

