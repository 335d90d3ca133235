"""Character sums on subspace cosets: transforms and uniformity reports.

For a subset A of F_p^n and a coset x + V with dim V = k, the restricted
spectrum of A on the coset is the table, indexed by characters t in
F_p^k relative to V's RREF basis,

    coefficient(t) = sum over v in V of 1_A(x + v) * e_p(-t . coords(v))

where coords(v) are v's coefficients in that basis and e_p(m) is the
p-th root of unity exp(2*pi*i*m/p): a sign (-1)^m for p = 2, a power of
w = exp(2*pi*i/3) for p = 3.  Coefficients stay unnormalized integers
(or Eisenstein integers); the normalizing scale |V| is carried
alongside so every derived quantity is an exact rational.

Character indices follow the rank convention: t = (t_1..t_k) has index
sum(t_i p^(k-i)), so the numeric index order is the lexicographic order
on character tuples.

The uniformity of A on the coset is the largest squared magnitude
|coefficient(t)/scale|^2 over t != 0.  Its witness is reported both as
the character index and as the lexicographically least ambient
frequency r inducing t on V (r restricted to V acts as r.v = t.coords(v));
that lift never lies in the annihilator of V.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError
from .exact_arith import Eisenstein, magnitude_sq, omega_pow
from .gf_core import Coset, GFVector, PointSet, Subspace, _unpacked, canonical_rep, perp


def wht2(table: Sequence[int]) -> list[int]:
    """Walsh transform F(t) = sum_x f(x) (-1)^(t.x) on F_2^k.

    Unnormalized in-place butterfly; applying it twice multiplies the
    input by 2^k.  Table length must be a power of two (index = rank).
    """
    out = list(table)
    m = len(out)
    if m == 0 or m & (m - 1):
        raise InputError(f"table length {m} is not a power of two")
    h = 1
    while h < m:
        for start in range(0, m, 2 * h):
            for j in range(start, start + h):
                x = out[j]
                y = out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out


def dft3(table: Sequence[int | Eisenstein]) -> list[Eisenstein]:
    """Character transform F(t) = sum_c f(c) w^(-t.c) on F_3^k.

    Radix-3 butterfly passes, one per digit; no twiddle factors arise
    because the group is a product of cyclic factors of order 3.
    """
    pairs = _dft3_pairs(
        [(v.a, v.b) if isinstance(v, Eisenstein) else (v, 0) for v in table]
    )
    return [Eisenstein(a, b) for a, b in pairs]


def _dft3_pairs(vals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    m = len(vals)
    q = m
    if q == 0:
        raise InputError("table length 0 is not a power of three")
    while q > 1:
        if q % 3:
            raise InputError(f"table length {m} is not a power of three")
        q //= 3
    out = list(vals)
    h = 1
    while h < m:
        for start in range(0, m, 3 * h):
            for j in range(start, start + h):
                a0, b0 = out[j]
                a1, b1 = out[j + h]
                a2, b2 = out[j + 2 * h]
                # w * (a, b) = (-b, a - b), w^2 * (a, b) = (b - a, -a)
                out[j] = (a0 + a1 + a2, b0 + b1 + b2)
                out[j + h] = (a0 + b1 - a1 - b2, b0 - a1 + a2 - b2)
                out[j + 2 * h] = (a0 - b1 + b2 - a2, b0 + a1 - b1 - a2)
        h *= 3
    return out


@dataclass(frozen=True)
class Spectrum:
    """Restricted spectrum of a set on one coset.

    coefficients[t] is the unnormalized character sum at index t; scale
    is the coset size p^k.  The anchor (canonical representative) is
    kept so signed/complex values at ambient frequencies can be
    reconstructed: the coset transform at ambient r equals
    e_p(-r.anchor) * coefficients[class_index(r)] / scale.
    """

    p: int
    k: int
    coefficients: tuple
    scale: int
    basis: Subspace
    anchor: GFVector

    @property
    def count(self) -> int:
        """|A intersect coset| = coefficient at t = 0."""
        c0 = self.coefficients[0]
        return c0.a if isinstance(c0, Eisenstein) else c0

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.scale)

    def class_index(self, r: GFVector) -> int:
        """Index of the character that r induces on the subspace."""
        idx = 0
        for row in self.basis.basis:
            idx = idx * self.p + r.dot(row)
        return idx

    def magnitude_sq(self, t: int) -> Fraction:
        return magnitude_sq(self.coefficients[t], self.scale)

    def signed_value_at(self, r: GFVector) -> Fraction:
        """Exact coset transform value at ambient frequency r (p = 2)."""
        if self.p != 2:
            raise InputError("signed_value_at is defined for p = 2 only")
        sign = -1 if r.dot(self.anchor) else 1
        return Fraction(sign * self.coefficients[self.class_index(r)], self.scale)

    def complex_value_at(self, r: GFVector) -> tuple[Eisenstein, int]:
        """Exact coset transform value at ambient r as (numerator, scale), p = 3."""
        if self.p != 3:
            raise InputError("complex_value_at is defined for p = 3 only")
        phase = omega_pow(-r.dot(self.anchor))
        return phase * self.coefficients[self.class_index(r)], self.scale

    def uniformity(self) -> UniformityReport:
        """Largest nontrivial squared coefficient magnitude and its witness."""
        if self.p == 2:
            squares = [c * c for c in self.coefficients]
        else:
            squares = [c.norm() for c in self.coefficients]
        best = max(squares[1:], default=0)
        best_t = squares.index(best, 1) if best else None
        return UniformityReport(
            coset=Coset(self.basis, self.anchor),
            sup_sq=Fraction(best, self.scale * self.scale),
            witness_t=best_t,
            witness_r=None if best_t is None else lift_class(self.basis, best_t),
            density=self.density,
        )


def restricted_spectrum(points: PointSet, coset: Coset) -> Spectrum:
    """Restricted spectrum of `points` on `coset` (exact, unnormalized)."""
    space = coset.subspace
    if (points.p, points.n) != (space.p, space.n):
        raise InputError("point set and coset live in different ambient spaces")
    mem = points.membership_table()
    table = [mem[r] for r in coset.point_ranks()]
    return Spectrum(
        p=points.p,
        k=space.dim,
        coefficients=tuple(wht2(table) if points.p == 2 else dft3(table)),
        scale=space.size,
        basis=space,
        anchor=coset.rep,
    )


@dataclass(frozen=True)
class UniformityReport:
    """Largest nontrivial squared coefficient magnitude on one coset.

    witness_t is the least character index attaining the maximum;
    witness_r its lex-least ambient lift (never in the annihilator of
    V).  Both are None exactly when sup_sq is 0: when dim V = 0 (no
    nontrivial characters; sup_sq is 0 by convention) and when every
    nontrivial coefficient vanishes, e.g. for the empty or the full set.
    """

    coset: Coset
    sup_sq: Fraction
    witness_t: Optional[int]
    witness_r: Optional[GFVector]
    density: Fraction

    @property
    def scale(self) -> int:
        return self.coset.size


def lift_class(space: Subspace, t_index: int) -> GFVector:
    """Lex-least ambient r whose action on the subspace is character t.

    Placing digit t_i at pivot column i solves r.basis_i = t_i; the
    lex-least solution is the canonical representative of that solution
    modulo the annihilator.
    """
    p, n = space.p, space.n
    k = space.dim
    if not 0 <= t_index < p**k:
        raise InputError(f"character index {t_index} out of range for dim {k}")
    coords = [0] * n
    for col in reversed(space.pivots):
        coords[col - 1] = t_index % p
        t_index //= p
    return canonical_rep(GFVector(p, n, tuple(coords)), perp(space))


def uniformity_sup(points: PointSet, coset: Coset) -> UniformityReport:
    """Uniformity of `points` on `coset`: max |coefficient/scale|^2 over t != 0."""
    return restricted_spectrum(points, coset).uniformity()


# Packed fast path for p = 2 scans.  A coset restriction is packed into
# an integer (bit i = membership of the i-th coset point in index
# order); coefficients follow from popcounts against fixed parity
# masks.  Used by the hot loops in increments and pipeline; equality
# with the wht2 route is pinned by tests.  The masks of dimension k take
# 4^k bits (half a gigabyte at k = 16), and from k = 14 on the butterfly
# is also the faster route, so larger cosets are unpacked and sent
# through wht2 instead.
PACKED_MAX_K = 13


@lru_cache(maxsize=None)
def parity_masks(k: int) -> tuple[int, ...]:
    """masks[t] has bit c set iff t.c is odd (c ranging over F_2^k)."""
    base = []
    for j in range(k):
        m = 0
        for c in range(1 << k):
            if (c >> j) & 1:
                m |= 1 << c
        base.append(m)
    masks = [0] * (1 << k)
    for t in range(1, 1 << k):
        low = t & -t
        masks[t] = masks[t ^ low] ^ base[low.bit_length() - 1]
    return tuple(masks)


def packed_max_coef_sq(packed: int, count: int, k: int) -> tuple[int, int]:
    """(max coefficient^2 over t != 0, least witness index) for p = 2."""
    if k == 0:
        return 0, 0
    if k > PACKED_MAX_K:
        squares = [c * c for c in wht2(_unpacked(packed, 1 << k))]
        best = max(squares[1:])
        # when every square is 0 this is index 1, as in the mask loop
        return best, squares.index(best, 1)
    masks = parity_masks(k)
    best = 0
    best_t = 1
    for t in range(1, 1 << k):
        d = count - 2 * (packed & masks[t]).bit_count()
        sq = d * d
        if sq > best:
            best = sq
            best_t = t
    return best, best_t
