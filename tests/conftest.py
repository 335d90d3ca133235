"""Shared deterministic helpers for the test suite.

All random test data flows through splitmix64 so runs are byte-for-byte
reproducible.  The oracle helpers here (`bf_wht2`, `bf_dft3`, `rec_wht2`,
`tuple_span`, `add_rank`, `raw_coset_counts`, `partition_energy`,
`quotient_index`, `value_at`, `check_union_structure`, and the `ref_*` set
builders) are written from the definitions, independently of the library's
transform, linear-algebra, energy, search and set-codec code paths, so they
can serve as cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from subuniform import (
    AlmostColouring,
    Coset,
    GFVector,
    InputError,
    PointSet,
    Spectrum,
    Subspace,
    UnionStructure,
    canonical_rep,
    lift_from_quotient,
    rref_basis,
    splitmix64,
)
from subuniform import gf_core
from subuniform.ramsey import MAX_COLOURING_M


# ---------------------------------------------------------------------------
# deterministic data generators


def words(seed: int) -> Iterator[int]:
    """Stream of 64-bit words; alias kept short for test-local use."""
    return splitmix64(seed)


def rand_below(stream: Iterator[int], bound: int) -> int:
    """Draw from [0, bound); modulo bias is irrelevant for test data."""
    return next(stream) % bound


def random_vector(stream: Iterator[int], p: int, n: int) -> GFVector:
    return GFVector.from_rank(p, n, rand_below(stream, p**n))


def random_nonzero_vector(stream: Iterator[int], p: int, n: int) -> GFVector:
    return GFVector.from_rank(p, n, 1 + rand_below(stream, p**n - 1))


def random_subspace(stream: Iterator[int], p: int, n: int, dim: int) -> Subspace:
    """Uniform-ish random subspace of exactly the requested dimension."""
    if dim == 0:
        return Subspace.zero(p, n)
    while True:
        space = rref_basis([random_vector(stream, p, n) for _ in range(dim)])
        if space.dim == dim:
            return space


def random_subset(stream: Iterator[int], p: int, n: int, density: Fraction) -> PointSet:
    """Random point set drawn point-by-point from the given stream."""
    num, den = density.numerator, density.denominator
    ranks = [r for r in range(p**n) if next(stream) * den < num << 64]
    return PointSet.from_ranks(p, n, ranks)


def full_set(p: int, n: int) -> PointSet:
    """The whole of F_p^n: every rank's membership bit set."""
    return PointSet(p, n, (1 << p**n) - 1)


def span_ranks(space: Subspace) -> list[int]:
    """The subspace's member ranks in coefficient-index order: its coset through 0."""
    return Coset(space, GFVector.zero(space.p, space.n)).point_ranks()


def random_int_table(stream: Iterator[int], length: int, bound: int = 9) -> list[int]:
    """Random integer-valued function table with entries in [-bound, bound]."""
    return [rand_below(stream, 2 * bound + 1) - bound for _ in range(length)]


# ---------------------------------------------------------------------------
# readers of library objects that several test modules share


def coset_density(points: PointSet, coset: Coset) -> Fraction:
    return Fraction(sum(points.bits >> r & 1 for r in coset.point_ranks()), coset.subspace.size)


def block_spans(p: int, lists: list[list[int]]) -> list[list[int]]:
    """A block's span lists: the F_2 walk gives its rows, the F_3 walk its spans."""
    return gf_core._spans2(lists) if p == 2 else lists


# ---------------------------------------------------------------------------
# a reference subspace walk that builds no objects


def rref_walk(p: int, n: int, k: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """(pivots, RREF rows as digit lists) of each k-dim subspace of F_p^n.

    enumerate_subspaces' own loop and order: pivot combinations, then a
    product over the free entries, row by row, first slot most
    significant; no GFVector or Subspace is built.
    """
    for pivots in combinations(range(1, n + 1), k):
        slots = [
            (i, col - 1)
            for i, pivot in enumerate(pivots)
            for col in range(pivot + 1, n + 1)
            if col not in pivots
        ]
        units = [[int(col == pivot) for col in range(1, n + 1)] for pivot in pivots]
        for entries in product(range(p), repeat=len(slots)):
            rows = [unit[:] for unit in units]
            for (i, j), entry in zip(slots, entries):
                rows[i][j] = entry
            yield pivots, rows


def annihilator_rows(p: int, n: int, pivots: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """W's rows w_f as ranks, built from V's RREF rows (digit lists), one per free column f.

    w_f is 1 at f, -v_i[f] at the pivot of basis row v_i and 0 at the
    other free columns, so w_f . v_i = v_i[f] - v_i[f] = 0.
    """
    out = []
    for f in range(1, n + 1):
        if f in pivots:
            continue
        row = [0] * n
        row[f - 1] = 1
        for v, pivot in zip(rows, pivots):
            row[pivot - 1] = -v[f - 1] % p
        out.append(int("".join(map(str, row)), p))
    return tuple(out)


# ---------------------------------------------------------------------------
# independent oracles


def base_p_digits(p: int, n: int, r: int) -> tuple[int, ...]:
    """Base-p expansion of r, first coordinate most significant."""
    return tuple((r // p ** (n - 1 - i)) % p for i in range(n))


def add_rank(p: int, n: int, x: int, y: int) -> int:
    """Coordinatewise sum mod p of two vectors given by rank, digit by digit."""
    s = 0
    for i in range(n):
        w = p**i
        s += ((x // w + y // w) % p) * w
    return s


def tuple_add(p: int, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple((a + b) % p for a, b in zip(u, v))


def tuple_scale(p: int, c: int, u: Sequence[int]) -> tuple[int, ...]:
    return tuple((c * a) % p for a in u)


def tuple_span(p: int, vectors: Sequence[Sequence[int]]) -> frozenset[tuple[int, ...]]:
    """All linear combinations of the given coordinate tuples (brute force)."""
    if not vectors:
        raise ValueError("need the ambient dimension from at least one vector")
    n = len(vectors[0])
    span = {tuple([0] * n)}
    for v in vectors:
        additions = [tuple_scale(p, c, v) for c in range(1, p)]
        span |= {tuple_add(p, x, a) for x in span for a in additions}
    return frozenset(span)


def raw_coset_counts(points: PointSet, space: Subspace) -> list[int]:
    """Member count of each coset of `space`, in quotient-index order.

    Coset q is lift_from_quotient(space, q) plus the brute-force span of
    the basis; each of its points is looked up in the set one by one.
    """
    p, n = space.p, space.n
    if space.basis:
        span = tuple_span(p, [row.coords for row in space.basis])
    else:
        span = frozenset([(0,) * n])
    counts = []
    for q in range(p**space.codim):
        rep = lift_from_quotient(space, q).coords
        counts.append(
            sum(
                points.bits >> GFVector(p, n, tuple_add(p, rep, v)).rank & 1
                for v in span
            )
        )
    return counts


def partition_energy(points: PointSet, space: Subspace) -> Fraction:
    """Mean squared coset density, sum of c^2 / (cosets * |V|^2), from raw counts."""
    counts = raw_coset_counts(points, space)
    return Fraction(sum(c * c for c in counts), len(counts) * space.size * space.size)


def quotient_index(space: Subspace, x: GFVector) -> int:
    """Index of the coset x + space among all cosets.

    The canonical representative is read off at the non-pivot columns;
    those digits, first column most significant, form the index.  This
    is the rank convention transported to the quotient F_p^m with
    m = codim(space).
    """
    rep = canonical_rep(x, space)
    p = space.p
    idx = 0
    for col in space.free_columns:
        idx = idx * p + rep.coords[col - 1]
    return idx


def bf_wht2(table: Sequence[int]) -> list[int]:
    """Walsh coefficients straight from the double character sum."""
    size = len(table)
    return [
        sum(f * (-1 if ((t & x).bit_count() & 1) else 1) for x, f in enumerate(table))
        for t in range(size)
    ]


def rec_wht2(table: Sequence[int]) -> list[int]:
    """Divide-and-conquer Walsh transform; independent of the butterfly."""
    size = len(table)
    if size == 1:
        return list(table)
    half = size // 2
    even = rec_wht2(table[:half])
    odd = rec_wht2(table[half:])
    return [e + o for e, o in zip(even, odd)] + [e - o for e, o in zip(even, odd)]


def oracle_sup_sq(points: PointSet, coset: Coset) -> Fraction:
    """Uniformity sup recomputed via the independent recursive transform."""
    table = [points.bits >> r & 1 for r in coset.point_ranks()]
    coeffs = rec_wht2(table)
    if len(coeffs) == 1:
        return Fraction(0)
    return Fraction(max(c * c for c in coeffs[1:]), coset.subspace.size**2)


# Eisenstein numbers as plain (a, b) pairs with a + b*omega, omega^2 = -1 - omega.
OMEGA_PAIRS = ((1, 0), (0, 1), (-1, -1))


def pair_mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    a, b = z
    c, d = w
    return (a * c - b * d, a * d + b * c - b * d)


def pair_add(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return (z[0] + w[0], z[1] + w[1])


def pair_norm(z: tuple[int, int]) -> int:
    a, b = z
    return a * a - a * b + b * b


def bf_dft3(table: Sequence[int], k: int) -> list[tuple[int, int]]:
    """_dft3_pairs oracle: coefficient(t) = sum_c f(c) * omega^(-t.c), as (a, b) pairs."""
    assert len(table) == 3**k
    out = []
    for t in range(3**k):
        td = base_p_digits(3, k, t)
        acc = (0, 0)
        for c, f in enumerate(table):
            cd = base_p_digits(3, k, c)
            dot = sum(a * b for a, b in zip(td, cd)) % 3
            acc = pair_add(acc, pair_mul((f, 0), OMEGA_PAIRS[(-dot) % 3]))
        out.append(acc)
    return out


def signed_coset_sum(
    points: PointSet, coset_points: Sequence[GFVector], r: GFVector
) -> int:
    """Unnormalized signed sum of the indicator over a coset at frequency r (p=2)."""
    return sum(
        (points.bits >> y.rank & 1) * (-1 if (r.dot(y) & 1) else 1)
        for y in coset_points
    )


def char_index(space: Subspace, r: GFVector) -> int:
    """Index of the character r induces on the subspace: t_i = r.basis_i."""
    idx = 0
    for row in space.basis:
        idx = idx * space.p + r.dot(row)
    return idx


def value_at(spec: Spectrum, r: GFVector) -> tuple[int | tuple[int, int], int]:
    """The coset transform at ambient frequency r, as (numerator, scale).

    The numerator is e_p(-r.anchor) * coefficients[t], t the character r
    induces on the subspace: an integer for p = 2, an (a, b) pair
    standing for a + b*omega for p = 3.
    """
    coef = spec.coefficients[char_index(spec.basis, r)]
    phase = -r.dot(spec.anchor) % spec.p
    if spec.p == 2:
        return (-1) ** phase * coef, spec.scale
    return pair_mul(OMEGA_PAIRS[phase], coef), spec.scale


def check_union_structure(
    colouring: AlmostColouring, structure: UnionStructure
) -> bool:
    """Re-verify a claimed structure against the colouring from scratch."""
    xs = structure.xs
    if len(xs) < 1 or any((x.p, x.n) != (2, colouring.m) for x in xs):
        return False
    if any(xs[i].rank >= xs[i + 1].rank for i in range(len(xs) - 1)):
        return False
    sums = [0]
    for x in xs:
        sums += [s ^ x.rank for s in sums]
    sums = sums[1:]
    if len(set(sums)) != (1 << len(xs)) - 1 or 0 in sums:
        return False  # dependent: some subset sums collide or vanish
    return all(colouring.colours[s] == structure.colour for s in sums)


# ---------------------------------------------------------------------------
# reference set codec: one mask bit at a time, no bytes rendering


def ref_random_point_set(p: int, n: int, density: Fraction, seed: int) -> PointSet:
    """The documented splitmix64 membership rule, one `1 << rank` per member."""
    threshold = density.numerator << 64
    stream = splitmix64(seed)
    bits = 0
    for rank in range(p**n):
        if next(stream) * density.denominator < threshold:
            bits |= 1 << rank
    return PointSet(p, n, bits)


def ref_member_ranks(points: PointSet) -> list[int]:
    """Member ranks by peeling the lowest set bit off the mask."""
    bits = points.bits
    ranks = []
    while bits:
        low = bits & -bits
        ranks.append(low.bit_length() - 1)
        bits ^= low
    return ranks


def ref_serialize_set_file(points: PointSet) -> str:
    """SetFile text with one `GFVector.digits()` string per member."""
    lines = [f"p={points.p} n={points.n}"]
    for rank in ref_member_ranks(points):
        lines.append(GFVector.from_rank(points.p, points.n, rank).digits())
    return "\n".join(lines) + "\n"


def ref_leading_one_set(n: int) -> PointSet:
    """{x in F_3^n : the first nonzero coordinate of x is 1}, by coordinates."""
    bits = 0
    for rank in range(1, 3**n):
        first = next(c for c in GFVector.from_rank(3, n, rank).coords if c)
        if first == 1:
            bits |= 1 << rank
    return PointSet(3, n, bits)


# ---------------------------------------------------------------------------
# a text format for colourings, for standalone experiments:
#
#     m=<int> C=<int>
#     <bitstring> <colour or ->
#
# one line per point of F_2^m (bitstring of length m, coordinate 1
# first); "-" marks an uncoloured point; "#" starts a comment.


def serialize_colouring(colouring: AlmostColouring) -> str:
    """Canonical text form: header plus one line per point in rank order."""
    lines = [f"m={colouring.m} C={colouring.C}"]
    for rank, colour in enumerate(colouring.colours):
        bitstring = format(rank, f"0{colouring.m}b") if colouring.m else "0"
        lines.append(f"{bitstring} {'-' if colour is None else colour}")
    return "\n".join(lines) + "\n"


def parse_colouring(text: str) -> AlmostColouring:
    """Parse the colouring text format; unlisted points stay uncoloured."""
    header: Optional[tuple[int, int]] = None
    entries: dict[int, Optional[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if (
                len(parts) != 2
                or not parts[0].startswith("m=")
                or not parts[1].startswith("C=")
            ):
                raise InputError(f"line {lineno}: expected header 'm=<int> C=<int>'")
            fields = parts[0][2:], parts[1][2:]
            if not all(field.isascii() and field.isdigit() for field in fields):
                raise InputError(f"line {lineno}: malformed header {line!r}")
            header = (int(fields[0]), int(fields[1]))
            if header[0] > MAX_COLOURING_M:
                raise InputError(
                    f"line {lineno}: m={header[0]} exceeds the cap {MAX_COLOURING_M}"
                )
            continue
        m, C = header
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected '<bitstring> <colour|->'")
        bitstring, colour_text = parts
        # strip() leaves something behind exactly when a character is not
        # a digit; F_2^0's one point is "0", as serialize_colouring writes it
        if len(bitstring) != max(m, 1) or bitstring.strip("01"[: m + 1]):
            raise InputError(f"line {lineno}: bad point {bitstring!r} for m={m}")
        rank = int(bitstring, 2)
        if rank in entries:
            raise InputError(f"line {lineno}: duplicate point {bitstring!r}")
        if colour_text == "-":
            entries[rank] = None
        elif not (colour_text.isascii() and colour_text.isdigit()):
            raise InputError(f"line {lineno}: bad colour {colour_text!r}")
        elif int(colour_text) > C:
            raise InputError(f"line {lineno}: colour {colour_text} out of 0..{C}")
        else:
            entries[rank] = int(colour_text)
    if header is None:
        raise InputError("line 1: missing header 'm=<int> C=<int>'")
    m, C = header
    colours: list[Optional[int]] = [None] * (1 << m)
    for rank, colour in entries.items():
        colours[rank] = colour
    return AlmostColouring(m=m, C=C, colours=tuple(colours))
