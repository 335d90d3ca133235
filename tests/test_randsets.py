"""Seed-reproducible sampling.

The generator is pinned against the published splitmix64 reference
outputs for seed 0, so any reimplementation from the documented
algorithm reproduces the same sets.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from subuniform import InputError, random_point_set, splitmix64

from conftest import ref_member_ranks, ref_random_point_set

SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_splitmix64_matches_published_vectors():
    stream = splitmix64(0)
    assert [next(stream) for _ in range(5)] == SEED0_REFERENCE


def test_splitmix64_streams_are_deterministic_and_seed_sensitive():
    a = splitmix64(12345)
    b = splitmix64(12345)
    c = splitmix64(12346)
    first_a = [next(a) for _ in range(10)]
    assert first_a == [next(b) for _ in range(10)]
    assert first_a != [next(c) for _ in range(10)]
    assert all(0 <= w < 1 << 64 for w in first_a)


def test_random_point_set_membership_rule():
    # membership: the r-th stream word u satisfies u * den < num * 2^64
    density = Fraction(1, 3)
    points = random_point_set(2, 6, density, seed=9)
    stream = splitmix64(9)
    expect = [r for r in range(64) if next(stream) * 3 < 1 << 64]
    assert list(points.member_ranks()) == expect


def test_random_point_set_extremes_and_validation():
    assert random_point_set(2, 5, Fraction(0), seed=1).size == 0
    assert random_point_set(2, 5, Fraction(1), seed=1).size == 32
    assert random_point_set(3, 2, Fraction(1, 2), seed=7) == random_point_set(
        3, 2, Fraction(1, 2), seed=7
    )
    with pytest.raises(InputError):
        random_point_set(2, 5, Fraction(3, 2), seed=1)
    with pytest.raises(InputError):
        random_point_set(2, 5, Fraction(-1, 2), seed=1)
    with pytest.raises(InputError):
        random_point_set(5, 2, Fraction(1, 2), seed=1)


CODEC_DENSITIES = [Fraction(k, 6) for k in (0, 2, 3, 4, 6)]
CODEC_SPACES = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)]


@pytest.mark.parametrize("p,n", CODEC_SPACES)
def test_random_point_set_matches_per_bit_reference(p, n):
    for density in CODEC_DENSITIES:
        for seed in range(5):
            points = random_point_set(p, n, density, seed)
            assert points == ref_random_point_set(p, n, density, seed)
            assert list(points.member_ranks()) == ref_member_ranks(points)
            table = points.membership_table()
            assert table == [points.bits >> r & 1 for r in range(p**n)]


def test_random_point_set_scales_to_two_to_the_twenty():
    # the per-bit mask build and bit-peel decode took 50-80 s at this size
    start = time.perf_counter()
    points = random_point_set(2, 20, Fraction(1, 2), seed=1)
    assert sum(1 for _ in points.member_ranks()) == points.size
    assert time.perf_counter() - start < 20
