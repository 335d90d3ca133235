"""Exact linear algebra over the prime fields F_2 and F_3.

Conventions used throughout the package:

* Vectors live in F_p^n with coordinates numbered 1..n.  The *rank* of a
  vector is the integer obtained by reading its coordinates as base-p
  digits with coordinate 1 most significant, so rank orders vectors
  lexicographically (digit order 0 < 1 < 2).
* A subspace is always stored by its reduced row echelon basis (RREF):
  pivot columns strictly increase, each pivot entry is 1 and is the only
  nonzero entry in its column.  Two subspaces are equal as sets exactly
  when their stored bases are equal, so dataclass equality is set
  equality.
* A coset is stored as (subspace, representative) where the
  representative is the lexicographically least element of the coset.
  That canonical representative is the unique coset element whose pivot
  coordinates are all zero.
* F_3 vectors add on ranks, digit by digit: digit i of r + x is
  (r_i + x_i) mod 3.  _trit_halves splits x into its low n // 2
  digits and the rest, and reads r + x as one entry of each of r's two
  halves, whose tables are cached for the process.  Where the parts of
  a sum share no nonzero digit nothing carries, and their ranks add as
  integers (_trit_block_spans).
* The canonical walk of the subspaces (_rref_blocks) hands them out in
  blocks of as many as fit in _SPAN_CELLS span points, at least one; it
  alone cuts each pivot profile's free entries into head and tail.  An
  F_2 block is its annihilators' rows, whose span lists _spans2 builds
  on demand; an F_3 block is the span lists themselves.  _span_index
  alone reads their point order: which point of each W can equal r.
* Over F_2 a set's coset-major layout (_coset_table) is its mask read
  through a linear bijection of F_2^n, applied to the mask by delta
  swaps; no list of ranks is built.

Ambient sizes are capped so tables of p^n entries stay addressable:
n <= 24 for p = 2 and n <= 12 for p = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError

MAX_N = {2: 24, 3: 12}


def _check_space(p: int, n: int) -> None:
    if p not in (2, 3):
        raise InputError(f"unsupported field characteristic p={p} (expected 2 or 3)")
    if not 1 <= n <= MAX_N[p]:
        raise InputError(f"dimension n={n} out of range for p={p} (1..{MAX_N[p]})")


@lru_cache(maxsize=None)
def _weights(p: int, n: int) -> tuple[int, ...]:
    """Digit weights (p^(n-1), ..., p, 1): coordinate i has weight p^(n-i)."""
    return tuple(p ** (n - i) for i in range(1, n + 1))


@dataclass(frozen=True, order=True)
class GFVector:
    """An immutable vector in F_p^n.  Ordering is lexicographic on coords."""

    p: int
    n: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_space(self.p, self.n)
        if len(self.coords) != self.n:
            raise InputError(
                f"coordinate count {len(self.coords)} does not match n={self.n}"
            )
        if any(not 0 <= c < self.p for c in self.coords):
            raise InputError(f"coordinates {self.coords} not reduced mod {self.p}")

    @classmethod
    def zero(cls, p: int, n: int) -> GFVector:
        return cls(p, n, (0,) * n)

    @classmethod
    def unit(cls, p: int, n: int, j: int) -> GFVector:
        """Standard basis vector e_j (1-based coordinate j)."""
        if not 1 <= j <= n:
            raise InputError(f"unit index {j} out of range 1..{n}")
        return cls(p, n, tuple(1 if i == j else 0 for i in range(1, n + 1)))

    @classmethod
    def from_rank(cls, p: int, n: int, rank: int) -> GFVector:
        _check_space(p, n)
        if not 0 <= rank < p**n:
            raise InputError(f"rank {rank} out of range for F_{p}^{n}")
        return cls(p, n, tuple((rank // w) % p for w in _weights(p, n)))

    @property
    def rank(self) -> int:
        return sum(c * w for c, w in zip(self.coords, _weights(self.p, self.n)))

    def _check_same_space(self, other: GFVector) -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise InputError("vectors live in different ambient spaces")

    def __add__(self, other: GFVector) -> GFVector:
        self._check_same_space(other)
        return GFVector(
            self.p,
            self.n,
            tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)),
        )

    def dot(self, other: GFVector) -> int:
        self._check_same_space(other)
        return sum(a * b for a, b in zip(self.coords, other.coords)) % self.p

    def digits(self) -> str:
        return "".join(str(c) for c in self.coords)


def _rref_rows(p: int, n: int, rows: list[list[int]]) -> list[list[int]]:
    """In-place RREF of integer rows mod p.  Returns the nonzero rows."""
    rank = 0
    for col in range(n):
        pivot_row = next(
            (r for r in range(rank, len(rows)) if rows[r][col] % p != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        head = rows[rank]
        scale = head[col] % p  # every nonzero element of F_2 and F_3 is its own inverse
        if scale != 1:
            rows[rank] = head = [(scale * v) % p for v in head]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p != 0:
                factor = rows[r][col] % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], head)]
        rank += 1
    return rows[:rank]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n stored by its canonical RREF basis."""

    p: int
    n: int
    basis: tuple[GFVector, ...]

    def __post_init__(self) -> None:
        _check_space(self.p, self.n)
        last_pivot = 0
        for row in self.basis:
            if (row.p, row.n) != (self.p, self.n):
                raise InputError("basis row lives in a different ambient space")
            pivot = next((j for j, c in enumerate(row.coords, 1) if c), None)
            if pivot is None or pivot <= last_pivot or row.coords[pivot - 1] != 1:
                raise InputError("basis rows are not in reduced row echelon form")
            if any(other.coords[pivot - 1] for other in self.basis if other != row):
                raise InputError("pivot column has a second nonzero entry")
            last_pivot = pivot

    @classmethod
    def zero(cls, p: int, n: int) -> Subspace:
        return cls(p, n, ())

    @classmethod
    def full(cls, p: int, n: int) -> Subspace:
        return cls(p, n, tuple(GFVector.unit(p, n, j) for j in range(1, n + 1)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.n - len(self.basis)

    @property
    def size(self) -> int:
        return self.p**self.dim

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(
            next(j for j, c in enumerate(row.coords, 1) if c) for row in self.basis
        )

    @property
    def free_columns(self) -> tuple[int, ...]:
        pivot_set = set(self.pivots)
        return tuple(j for j in range(1, self.n + 1) if j not in pivot_set)


def rref_basis(vectors: Sequence[GFVector]) -> Subspace:
    """Canonical RREF span of the given vectors (duplicates and zeros allowed)."""
    if not vectors:
        raise InputError("rref_basis needs at least one vector to fix the ambient space")
    p, n = vectors[0].p, vectors[0].n
    for v in vectors:
        if (v.p, v.n) != (p, n):
            raise InputError("vectors live in different ambient spaces")
    rows = _rref_rows(p, n, [list(v.coords) for v in vectors])
    return Subspace(p, n, tuple(GFVector(p, n, tuple(r)) for r in rows))


def perp(space: Subspace) -> Subspace:
    """Annihilator {r : r.v = 0 for every v in the subspace}."""
    p, n = space.p, space.n
    pivots = space.pivots
    pivot_index = {col: i for i, col in enumerate(pivots)}
    rows: list[list[int]] = []
    for free in range(1, n + 1):
        if free in pivot_index:
            continue
        row = [0] * n
        row[free - 1] = 1
        for col, i in pivot_index.items():
            row[col - 1] = (-space.basis[i].coords[free - 1]) % p
        rows.append(row)
    if not rows:
        return Subspace.zero(p, n)
    reduced = _rref_rows(p, n, rows)
    return Subspace(p, n, tuple(GFVector(p, n, tuple(r)) for r in reduced))


def canonical_rep(x: GFVector, space: Subspace) -> GFVector:
    """Lexicographically least element of the coset x + space.

    Obtained by clearing the pivot coordinates of x against the RREF
    basis; any other coset element first differs from the result at a
    pivot coordinate, where the result holds a 0.
    """
    if (x.p, x.n) != (space.p, space.n):
        raise InputError("vector and subspace live in different ambient spaces")
    coords = list(x.coords)
    for row, pivot in zip(space.basis, space.pivots):
        c = coords[pivot - 1]
        if c:
            coords = [(a - c * b) % space.p for a, b in zip(coords, row.coords)]
    return GFVector(x.p, x.n, tuple(coords))


@dataclass(frozen=True)
class Coset:
    """A coset rep + subspace with the canonical (lex-least) representative."""

    subspace: Subspace
    rep: GFVector

    def __post_init__(self) -> None:
        if (self.rep.p, self.rep.n) != (self.subspace.p, self.subspace.n):
            raise InputError("representative and subspace live in different spaces")
        if any(self.rep.coords[pivot - 1] for pivot in self.subspace.pivots):
            raise InputError("representative is not canonical (pivot coordinate set)")

    @classmethod
    def of(cls, space: Subspace, x: GFVector) -> Coset:
        return cls(space, canonical_rep(x, space))

    @classmethod
    def whole_space(cls, p: int, n: int) -> Coset:
        return cls(Subspace.full(p, n), GFVector.zero(p, n))

    def point_ranks(self) -> list[int]:
        space = self.subspace
        rows = tuple(row.rank for row in space.basis)
        return _span_ranks(space.p, space.n, rows, self.rep.rank)


@dataclass(frozen=True)
class PointSet:
    """A subset of F_p^n stored as a membership bitmask indexed by rank."""

    p: int
    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_space(self.p, self.n)
        if not 0 <= self.bits < 1 << self.p**self.n:
            raise InputError("membership mask does not fit the ambient space")

    @classmethod
    def empty(cls, p: int, n: int) -> PointSet:
        return cls(p, n, 0)

    @classmethod
    def from_ranks(cls, p: int, n: int, ranks: Iterable[int]) -> PointSet:
        _check_space(p, n)
        total = p**n
        digits = bytearray(b"0" * total)  # ASCII bits; the last one is bit 0
        for r in ranks:
            if not 0 <= r < total:
                raise InputError(f"rank {r} out of range for F_{p}^{n}")
            digits[~r] = 49  # ord("1")
        return cls(p, n, int(digits, 2))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def ambient_size(self) -> int:
        return self.p**self.n

    def member_ranks(self) -> Iterator[int]:
        size = self.ambient_size
        return compress(range(size), _unpacked(self.bits, size))

    def membership_table(self) -> list[int]:
        """0/1 list of length p^n indexed by rank."""
        return list(_unpacked(self.bits, self.ambient_size))


def _unpacked(bits: int, size: int) -> bytes:
    """0/1 bytes of the low `size` bits of `bits`; entry i is bit i."""
    # the one mask decoder, as PointSet.from_ranks is the one encoder
    digits = format(bits & (1 << size) - 1, f"0{size}b")[::-1].encode()  # bit 0 first
    return digits.translate(bytes.maketrans(b"01", b"\0\1"))


def _span_ranks(p: int, n: int, rows: tuple[int, ...], start: int = 0) -> list[int]:
    """Ranks of start + the span of rows, ordered by coefficient index.

    Index c = sum(c_i p^(k-i)) maps to start + sum(c_i rows_i); the first
    row is the most significant digit, so rows are folded in reverse.
    Over F_3 each row adds x + row, then (x + row) + row = x - row.
    """
    pts = [start]
    if p == 3:
        cut = 3 ** (n // 2)
        for row in reversed(rows):
            H, L = _trit_halves(n, row)
            once = [H[x // cut] + L[x % cut] for x in pts]
            pts += once + [H[x // cut] + L[x % cut] for x in once]
        return pts
    for r in reversed(rows):
        for x in pts[:]:  # faster than a comprehension on small spans
            pts.append(x ^ r)
    return pts


@lru_cache(maxsize=None)
def _trit_shifts(n: int, r: int, scale: int) -> tuple[int, ...]:
    """scale * (r + x) on ranks of F_3^n for x = 0 .. 3^n - 1, in that order.

    Built digit by digit, most significant first, as sums of one value
    per digit, (r_i + x_i) mod 3 times its weight.  Kept for the life
    of the process: per ambient n, _trit_halves asks for at most
    3^ceil(n/2) + 3^floor(n/2) tables, each of at most 3^ceil(n/2)
    entries.  The tables are shared by every caller, hence tuples.
    """
    out = [0]
    for w in _weights(3, n):
        d = r // w % 3
        column = [(d + e) % 3 * w * scale for e in range(3)]
        out = [o + v for o in out for v in column]
    return tuple(out)


def _trit_halves(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(H, L) with r + x = H[x // cut] + L[x % cut] for every rank x of F_3^n.

    cut = 3^(n // 2): x % cut holds the low n // 2 digits of x and
    x // cut the rest, and each half of r + x is that of r plus that of
    x, digit by digit.  H is pre-scaled by cut.
    """
    cut = 3 ** (n // 2)
    high, low = divmod(r, cut)
    return _trit_shifts(n - n // 2, high, cut), _trit_shifts(n // 2, low, 1)


@lru_cache(maxsize=1 << 12)
def _pivot_digits(head: int, coeffs: tuple[int, ...], weight: int) -> tuple[int, ...]:
    """weight * ((head - sum_s coeffs[s] d_s) mod 3 - head) for every d in {0, 1, 2}^s.

    What one pivot's tail slots add to a rank whose digit at that pivot
    is head, for each of their entries d, first slot most significant
    (_trit_block_spans).
    """
    vals = [head]
    for c in coeffs:
        vals = [v - c * d for v in vals for d in range(3)]
    return tuple((v % 3 - head) * weight for v in vals)


def _trit_block_spans(n: int, first: Sequence[int], tail: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The spans of a block of annihilators in F_3^n, as rank lists.

    first holds the ranks of the rows w_f of the block's first
    annihilator W (none for the whole space's block), and tail the block's tail
    slots as (f, weight of the slot's pivot column), as _rref_blocks(3,
    n, k) cuts them.  Entry j of list i is the rank of point i of the
    block's j-th W, in the order of _span_ranks.

    Point i is the sum of c_f w_f over the rows, c_f the base-3 digits
    of i with the first row most significant.  As w_f = e_f - sum over
    pivots g of A[g][f] e_g, the point has digit c_f at each free column
    f and -sum_f c_f A[g][f] at each pivot column g: every digit is one
    column's.  A tail slot (g, f) moves only the digit at pivot g.  So
    point i of every W is point i of the first W plus one move per tail
    pivot, from a small list over that pivot's tail slots; the moves
    touch disjoint digits, so nothing carries.
    """
    groups: dict[int, list[int]] = {}
    for f, weight in tail:
        groups.setdefault(weight, []).append(f)
    spans = []
    for coeffs, x in zip(product(range(3), repeat=len(first)), _span_ranks(3, n, first)):
        point = [x]
        for weight, rows in groups.items():
            part = _pivot_digits(x // weight % 3, tuple(coeffs[f] for f in rows), weight)
            point = [u + v for u in point for v in part]
        spans.append(point)
    return spans


# Blocks are cut so that their span lists hold at most _SPAN_CELLS
# ranks, about 0.5 MB of list slots; ranks above 256 are int objects
# of their own, so a full block costs more than its slots.
_SPAN_CELLS = 1 << 16


def _spans2(rows: list[list[int]]) -> list[list[int]]:
    """The rank lists of a block's spans over F_2, in the order of _span_ranks.

    rows holds one rank list per row of the block's W (_rref_blocks);
    no rows is the whole space's block, whose one W is {0}.
    """
    spans = [[0] * len(rows[0])] if rows else [[0]]
    for row in reversed(rows):
        spans += [list(map(xor, span, row)) for span in spans]
    return spans


def _span_index(p: int, n: int, free: Sequence[int]) -> Callable[[int], int]:
    """r -> the point of each W in a block that can equal r: sum_f r_(free[f]) p^(c-1-f).

    c = len(free), free the block's free columns (_rref_blocks).  Row f
    of each W is e_f there, so point i (_spans2, _trit_block_spans) has
    the base-p digits of i there, the first row most significant.
    """
    c, weights = len(free), _weights(p, n)
    steps = [(weights[col - 1], p ** (c - 1 - f)) for f, col in enumerate(free)]
    return lambda r: sum(r // w % p * step for w, step in steps)


def _rref_blocks(p: int, n: int, k: int) -> Iterator[tuple[list[int], list[list[int]]]]:
    """The canonical walk of the k-dim subspaces V, one block at a time.

    Profiles are emitted in lexicographic order of the pivot-column
    tuple; within a profile the free entries A[i][f] (row i, non-pivot
    column f right of pivot i) are enumerated lexicographically,
    earliest (row, column) slot most significant, as enumerate_subspaces
    lists them.  V is given by the rows w_f = e_f - sum_i A[i][f]
    e_{pivot i}, one per non-pivot column f, which span its annihilator.

    This is the one place that cuts a profile's slots into head and
    tail: the tail is the most trailing slots whose subspaces fit in
    _SPAN_CELLS // p^c, c = n - k, and the head the rest.  One block is
    yielded per (profile, head), the tail running inside it, so a block
    holds at most that many subspaces and never fewer than one.  A
    block is yielded as (free, lists): the free columns of its profile,
    and one list per row or span point of its annihilators, entry j
    for the block's j-th W.  The head fixes the block's first W, whose
    row f is e_f plus the head's entries in row f; each slot owns one
    digit of one row, so head and tail touch disjoint digits and their
    ranks add.  Over F_2 the lists are the rows: row f's ranks are the
    first W's plus the profile's tail list for row f, built once by
    doubling over the tail slots, last slot first, and _spans2 turns
    them into span lists for the subspaces that need them.  Over F_3
    the lists are the spans, lists[i][j] the rank of point i
    (_span_ranks order) of the j-th W, from the first W's rows and the
    tail slots (_trit_block_spans).  At k = n the one block is ([], [])
    over F_2 and ([], [[0]]) over F_3: V is the whole space and W = {0}.
    """
    weights = _weights(p, n)
    cap = _SPAN_CELLS // p ** (n - k)
    for pivots in combinations(range(1, n + 1), k):
        free = [col for col in range(1, n + 1) if col not in pivots]
        base = [weights[col - 1] for col in free]
        # one slot per free entry: the row it writes and its pivot's weight
        slots = [(f, weights[pivot - 1]) for pivot in pivots for f, col in enumerate(free) if col > pivot]
        cut, size = len(slots), 1
        while cut and size * p <= cap:
            cut, size = cut - 1, size * p
        head, tail = slots[:cut], slots[cut:]
        if p == 2:
            tails = [[0] for _ in free]
            for row, weight in reversed(tail):
                tails = [t + [v + weight for v in t] if f == row else t + t for f, t in enumerate(tails)]
        head_rows = [f for f, _ in head]
        for entries in product(*[[-d % p * weight for d in range(p)] for _, weight in head]):
            first = base[:]
            for f, v in zip(head_rows, entries):
                first[f] += v
            if p == 2:
                yield free, [[s + t for t in row] for s, row in zip(first, tails)]
            else:
                yield free, _trit_block_spans(n, first, tail)


def enumerate_subspaces(p: int, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_p^n, each exactly once.

    Deterministic order: by pivot-column profile, then the free entries
    of the RREF basis (row i, non-pivot column right of pivot i), row by
    row, first entry most significant.  The total count is the Gaussian
    binomial (n choose k)_p.
    """
    _check_space(p, n)
    if not 0 <= k <= n:
        raise InputError(f"subspace dimension {k} out of range 0..{n}")
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
            yield Subspace(p, n, tuple(GFVector(p, n, tuple(row)) for row in rows))


def extend_span(space: Subspace, vectors: Sequence[GFVector]) -> Subspace:
    """Canonical span of the subspace together with extra vectors."""
    for v in vectors:
        if (v.p, v.n) != (space.p, space.n):
            raise InputError("vectors live in different ambient spaces")
    if not vectors and not space.basis:
        return space
    return rref_basis(list(space.basis) + list(vectors))


@lru_cache(maxsize=None)
def gaussian_binomial(p: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def coset_reps(space: Subspace) -> list[GFVector]:
    """Canonical coset reps by quotient index (for tests and the bench tracer)."""
    return [lift_from_quotient(space, q) for q in range(space.p**space.codim)]


def _bit_masks(n: int, bits: Iterable[int]) -> dict[int, int]:
    """{b: the 2^n-bit int whose bit x is bit b of x} for each b in bits."""
    size = 1 << n
    full = (1 << size) - 1  # trims the one-byte patterns at n < 3
    masks = {}
    for b in bits:
        if b < 3:
            unit = bytes([(0xAA, 0xCC, 0xF0)[b]])
        else:
            unit = bytes(1 << b - 3) + b"\xff" * (1 << b - 3)
        reps = -(-size // (8 * len(unit)))
        masks[b] = int.from_bytes(unit * reps, "little") & full
    return masks


def _coset_table(bits: int, space: Subspace) -> bytes:
    """Entry q 2^k + i is bit r of `bits`, r point i (point_ranks order) of coset q.

    F_2 only; k = dim, q the quotient index.  The layout is the mask
    read through a linear bijection of F_2^n, built on the mask itself.
    Bit b of a rank is column n - b.  Each off-pivot 1 of row j, at
    free column f, is the transvection y -> y + y_(pivot j) e_f; then at
    most n - 1 transpositions of the index bits put the free columns
    above the pivots, each group in column order.  Each step (d, x, y)
    is one delta swap on the whole mask, of the bits at the indices with
    bit x set and bit y clear with those d above them.  The 0/1 entries
    come back as bytes, the form wht2 packs in one step.
    """
    n = space.n
    free = space.free_columns
    steps = [
        (1 << n - col, n - pivot, n - col)
        for row, pivot in zip(space.basis, space.pivots)
        for col in free
        if row.coords[col - 1]
    ]
    # index bit b reads rank bit target[b]: the pivots low, the free columns high
    target = [n - col for col in reversed(free + space.pivots)]
    label = list(range(n))
    for b in range(n):
        if label[b] != target[b]:
            c = label.index(target[b])
            steps.append(((1 << c) - (1 << b), b, c))
            label[b], label[c] = label[c], label[b]
    masks = _bit_masks(n, {x for _, a, b in steps for x in (a, b)})
    g = bits
    for d, x, y in steps:
        t = (g ^ g >> d) & masks[x] & ~masks[y]
        g ^= t | t << d
    return _unpacked(g, 1 << n)


def lift_from_quotient(space: Subspace, index: int) -> GFVector:
    """Canonical coset representative with the given quotient index."""
    p, n = space.p, space.n
    m = space.codim
    if not 0 <= index < p**m:
        raise InputError(f"quotient index {index} out of range for codim {m}")
    coords = [0] * n
    for col in reversed(space.free_columns):
        coords[col - 1] = index % p
        index //= p
    return GFVector(p, n, tuple(coords))


def _quotient_index(space: Subspace, rep: GFVector) -> int:
    """The quotient index of a canonical rep, inverse to lift_from_quotient.

    The free coordinates read as base-p digits, the first free column
    most significant.  Only canonical reps (zero at every pivot) are
    read right; any other vector of the coset may give another index.
    """
    q = 0
    for col in space.free_columns:
        q = q * space.p + rep.coords[col - 1]
    return q
