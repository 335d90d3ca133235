"""Character sums on subspace cosets: transforms and uniformity reports.

For a subset A of F_p^n and a coset x + V with dim V = k, the restricted
spectrum of A on the coset is the table, indexed by characters t in
F_p^k relative to V's RREF basis,

    coefficient(t) = sum over v in V of 1_A(x + v) * e_p(-t . coords(v))

where coords(v) are v's coefficients in that basis and e_p(m) is the
p-th root of unity exp(2*pi*i*m/p): a sign (-1)^m for p = 2, a power of
w = exp(2*pi*i/3) for p = 3.  Coefficients stay unnormalized: integers
for p = 2, and for p = 3 pairs (a, b) standing for a + b*w, whose
squared magnitude a^2 - a*b + b^2 is an integer.  The normalizing scale
|V| is carried alongside so every derived quantity is an exact rational.

Character indices follow the rank convention: t = (t_1..t_k) has index
sum(t_i p^(k-i)), so the numeric index order is the lexicographic order
on character tuples.

The uniformity of A on the coset is the largest squared magnitude
|coefficient(t)/scale|^2 over t != 0.  Its witness is reported both as
the character index and as the lexicographically least ambient
frequency r inducing t on V (r restricted to V acts as r.v = t.coords(v));
that lift never lies in the annihilator of V.  Every transform over
F_2 goes through wht2, one kernel of lane-packed integer butterflies.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_table,
    _unpacked,
    canonical_rep,
    perp,
)


def wht2(table: Sequence[int], block: Optional[int] = None) -> list[int]:
    """Walsh transform F(t) = sum_x f(x) (-1)^(t.x) of each block, exact.

    Unnormalized: applying it twice multiplies the input by 2^k, where
    2^k = block.  Table length and block (by default the length) are
    powers of two, index = rank.  Only the levels at distance < block
    run, so each block is transformed on its own.  Entry i sits in lane
    i of one integer as its value plus a bias b >= max|entry|.  Level j
    maps each lane pair (x, y) at distance 2^j to (x + y, x - y + 2b)
    by whole-integer masks, shifts and adds, and b doubles, so lanes
    stay in [0, 2b] and never borrow or carry.  Lanes take 16, 32 or 64
    bits, the least holding 2^(k+1) b; past 64 bits the table is
    rejected with InputError.  At the end every lane moves from F + b to
    F + 2^(w-1) by one add, and one XOR of the lanes' top bits leaves F
    as w-bit two's complement, read out by a signed memoryview.

    A bytes table (entries 0..255, as _coset_table returns) is packed
    in one step: its entries go to the lanes' low-order bytes and b to
    every lane as one integer add, b = 1 when every entry is 0 or 1.
    Any other sequence is biased entry by entry with b = max|entry|.
    """
    m = len(table)
    if m == 0 or m & (m - 1):
        raise InputError(f"table length {m} is not a power of two")
    block = m if block is None else block
    if not 0 < block <= m or block & (block - 1):
        raise InputError(f"block {block} is not a power of two up to {m}")
    byte_table = isinstance(table, bytes)
    if byte_table:
        # deleting the 0 and 1 bytes leaves nothing exactly on a 0/1 table
        bias = max(table) if table.translate(None, b"\0\1") else 1
    else:
        bias = max(map(abs, table))
    top = bias << block.bit_length()  # 2^(k+1) * bias, the largest lane value
    code = next((c for c in "HIQ" if top >> 8 * array(c).itemsize == 0), None)
    if code is None:
        raise InputError(f"transform of entries up to {bias} overflows 64-bit lanes")
    size = array(code).itemsize
    lane = (1 << 8 * size) - 1
    one = (1).to_bytes(size, sys.byteorder)
    if byte_table:
        buf = bytearray(m * size)
        buf[one.index(1) :: size] = table  # each lane's low-order byte
        lanes = int.from_bytes(buf, sys.byteorder)
        lanes += bias * int.from_bytes(one * m, sys.byteorder)
    else:
        biased = array(code, [v + bias for v in table])
        lanes = int.from_bytes(biased.tobytes(), sys.byteorder)
    h = 1
    while h < block:
        # 1 in each lane whose index has bit j clear, 0 in the others
        ones = one * h + bytes(size * h)
        units = int.from_bytes(ones * (m // (2 * h)), sys.byteorder)
        mask = units * lane
        shift = 8 * size * h
        lo = lanes & mask
        hi = (lanes >> shift) & mask
        lanes = (lo + hi) | (lo + units * (2 * bias) - hi) << shift
        bias *= 2
        h *= 2
    # F + 2^(w-1) in every w-bit lane, then each top bit flipped, leaves F
    # in two's complement, which a signed view reads
    half = 1 << (8 * size - 1)
    units = int.from_bytes(one * m, sys.byteorder)
    lanes = (lanes + (half - bias) * units) ^ (half * units)
    return memoryview(lanes.to_bytes(m * size, sys.byteorder)).cast(code.lower()).tolist()


def _dft3_pairs(vals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Character transform F(t) = sum_c f(c) w^(-t.c) on F_3^k, exact.

    Entries are pairs (a, b) standing for a + b*w.  Radix-3 butterfly
    passes, one per digit; no twiddle factors arise because the group
    is a product of cyclic factors of order 3.
    """
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

    coefficients[t] is the unnormalized character sum at index t: an
    int for p = 2, a pair (a, b) standing for a + b*w for p = 3.  scale
    is the coset size p^k.  The anchor (canonical representative) is
    kept so values at ambient frequencies can be reconstructed: the
    coset transform at ambient r equals
    e_p(-r.anchor) * coefficients[t] / scale, where t is the character
    r induces on the subspace, t_i = r.basis_i, with index
    sum(t_i p^(k-i)).
    """

    p: int
    coefficients: tuple
    scale: int
    basis: Subspace
    anchor: GFVector

    @property
    def count(self) -> int:
        """|A intersect coset| = coefficient at t = 0."""
        c0 = self.coefficients[0]
        return c0 if self.p == 2 else c0[0]

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.scale)

    def uniformity(self) -> UniformityReport:
        """Largest nontrivial squared coefficient magnitude and its witness."""
        if self.p == 2:
            squares = [c * c for c in self.coefficients]
        else:
            squares = [a * a - a * b + b * b for a, b in self.coefficients]
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
    if points.p == 2:
        q = 0  # the quotient index: the rep's free coordinates, read in binary
        for col in space.free_columns:
            q = q << 1 | coset.rep.coords[col - 1]
        size = space.size
        table = _coset_table(points.bits, space)
        coefficients = wht2(table[q * size : (q + 1) * size])
    else:
        mem = _unpacked(points.bits, points.ambient_size)
        coefficients = _dft3_pairs([(mem[r], 0) for r in coset.point_ranks()])
    return Spectrum(
        p=points.p,
        coefficients=tuple(coefficients),
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


def packed_max_coef_sq(packed: int, count: int, k: int) -> tuple[int, int]:
    """(max coefficient^2 over t != 0, least witness index) for p = 2.

    Bit i of `packed` is the i-th coset point's membership.  The witness
    is 1 when every nontrivial coefficient is 0; k = 0 gives (0, 0).
    `count` is not read.  Unused by the package; the bench tracer names it.
    """
    if k == 0:
        return 0, 0
    squares = [c * c for c in wht2(_unpacked(packed, 1 << k))]
    best = max(squares[1:])
    return best, squares.index(best, 1)
