"""Seed-reproducible random point sets.

The generator is splitmix64, fixed here so the same seed reproduces the
same set in any implementation:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output z XOR (z >> 31)

A set of density a/b over F_p^n draws one output u_i per rank
i = 0..p^n-1 in order and includes rank i iff u_i * b < a * 2^64
(an exact integer comparison, never a float).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterator

from .errors import InputError
from .gf_core import PointSet, _check_space

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int) -> Iterator[int]:
    """Infinite stream of 64-bit outputs from the given seed."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def random_point_set(p: int, n: int, density: Fraction, seed: int) -> PointSet:
    """Deterministic pseudo-random subset of F_p^n of expected density a/b."""
    _check_space(p, n)
    if not 0 <= density <= 1:
        raise InputError(f"density must lie in [0, 1], got {density}")
    threshold_num = density.numerator << 64
    den = density.denominator
    keep = (u * den < threshold_num for u in splitmix64(seed))
    return PointSet.from_ranks(p, n, compress(range(p**n), keep))
