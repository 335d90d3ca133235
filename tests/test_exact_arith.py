"""Eisenstein-integer and exact rational arithmetic.

The multiplication oracle used here is the closed form
(a + bw)(c + dw) = (ac - bd) + (ad + bc - bd)w, derived by substituting
w^2 = -1 - w; tests compare the implementation against it and against
ring axioms.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subuniform import Eisenstein, InputError, format_rational, parse_rational

from conftest import OMEGA_PAIRS, pair_mul, pair_norm

coeff = st.integers(min_value=-50, max_value=50)
eisenstein = st.builds(Eisenstein, coeff, coeff)

# w^0, w^1, w^2
ONE, OMEGA, OMEGA_SQ = (Eisenstein(a, b) for a, b in OMEGA_PAIRS)


def conj(z: Eisenstein) -> Eisenstein:
    """Complex conjugate, the ring automorphism w -> w^2: (a - b) - b w."""
    return Eisenstein(z.a - z.b, -z.b)


# ---------------------------------------------------------------------------
# frozen examples


def test_omega_squared_is_minus_one_minus_omega():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)
    assert OMEGA * OMEGA == OMEGA_SQ


def test_one_plus_omega_squares_to_omega():
    z = Eisenstein(1, 1)
    assert z * z == OMEGA


def test_cube_roots_of_unity():
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA * OMEGA_SQ == ONE
    assert ONE + OMEGA + OMEGA_SQ == Eisenstein(0, 0)


def test_unit_norms():
    for w in (ONE, OMEGA, OMEGA_SQ):
        assert w.norm() == 1
        assert (-w).norm() == 1


def test_str_forms():
    assert str(Eisenstein(1, 1)) == "1+1w"
    assert str(Eisenstein(0, 1)) == "0+1w"
    assert str(Eisenstein(-1, -1)) == "-1-1w"


# ---------------------------------------------------------------------------
# ring laws against the closed-form oracle


@given(eisenstein, eisenstein)
def test_multiplication_matches_closed_form(z, w):
    expect = pair_mul((z.a, z.b), (w.a, w.b))
    prod = z * w
    assert (prod.a, prod.b) == expect


@given(eisenstein, eisenstein)
def test_multiplication_commutes(z, w):
    assert z * w == w * z


@given(eisenstein, eisenstein, eisenstein)
def test_associativity_and_distributivity(z, w, u):
    assert (z * w) * u == z * (w * u)
    assert z * (w + u) == z * w + z * u


@given(eisenstein)
def test_norm_matches_oracle(z):
    assert z.norm() == pair_norm((z.a, z.b))
    assert z.norm() >= 0


@given(eisenstein, eisenstein)
def test_norm_is_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(eisenstein, eisenstein)
def test_conj_is_a_ring_homomorphism(z, w):
    assert conj(z + w) == conj(z) + conj(w)
    assert conj(z * w) == conj(z) * conj(w)
    assert conj(conj(z)) == z


@given(eisenstein)
def test_z_times_conj_is_norm(z):
    assert z * conj(z) == Eisenstein(z.norm(), 0)


@given(st.integers(min_value=-9, max_value=9), eisenstein)
def test_integer_scaling(c, z):
    assert c * z == Eisenstein(c * z.a, c * z.b)
    assert c * z == Eisenstein(c, 0) * z


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

