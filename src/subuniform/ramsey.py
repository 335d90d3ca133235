"""Almost-colourings of F_2^m and monochromatic subset-sum structures.

A union structure of size d is a tuple of linearly independent vectors
x_1 < ... < x_d (lex order) such that every nonempty subset sum
sum_{i in I} x_i is coloured and all 2^d - 1 of those sums carry the
same colour.  Since the x_i are independent, the sums are pairwise
distinct and nonzero, so the colour of 0 never matters.

The search is exhaustive in lexicographic order on candidate tuples and
therefore returns the lex-least structure when one exists; absence is a
definite answer, not a timeout.  Independence is checked incrementally:
x is independent of x_1..x_j exactly when x avoids their subset sums
(including 0).

The bucket colouring assigns c(q) = floor(B * density(A on coset q of
W)) to the quotient index q of every good coset of a subspace W, leaving
bad cosets uncoloured; colours range over 0..B.  It reads the per-coset
member counts that the regularity scan already took
(RegularityResult.coset_counts) and never recounts the set.

A simple text format for standalone colouring experiments:

    m=<int> C=<int>
    <bitstring> <colour or ->

one line per point of F_2^m (bitstring of length m, coordinate 1
first); "-" marks an uncoloured point; "#" starts a comment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Sequence

from .errors import BudgetExceededError, InputError
from .gf_core import GFVector, Subspace

MAX_COLOURING_M = 24

# Candidates find_union_structure may try, summed over all extension
# steps; at about 350k candidates per second this is about 30 s.
SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class AlmostColouring:
    """A partial colouring of F_2^m with colours 0..C (None = uncoloured)."""

    m: int
    C: int
    colours: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.m <= MAX_COLOURING_M:
            raise InputError(f"colouring dimension m={self.m} out of range")
        if self.C < 0:
            raise InputError(f"maximum colour must be >= 0, got {self.C}")
        if len(self.colours) != 1 << self.m:
            raise InputError(
                f"colour table length {len(self.colours)} != 2^{self.m}"
            )
        for c in self.colours:
            if c is not None and not 0 <= c <= self.C:
                raise InputError(f"colour {c} out of range 0..{self.C}")

    @property
    def coloured_fraction(self) -> Fraction:
        coloured = sum(1 for c in self.colours if c is not None)
        return Fraction(coloured, len(self.colours))

    def colour_of(self, rank: int) -> Optional[int]:
        return self.colours[rank]


@dataclass(frozen=True)
class UnionStructure:
    """d independent vectors whose nonempty subset sums share one colour."""

    xs: tuple[GFVector, ...]
    colour: int

    @property
    def d(self) -> int:
        return len(self.xs)

    def subset_sum_ranks(self) -> list[int]:
        """Ranks of all 2^d - 1 nonempty subset sums."""
        sums = [0]
        for x in self.xs:
            r = x.rank
            sums += [s ^ r for s in sums]
        return sums[1:]


def bucket_colouring(
    counts: Sequence[int],
    space: Subspace,
    buckets: int,
    good: Collection[int],
) -> AlmostColouring:
    """Colour the good cosets of `space` by density bucket floor(B * density).

    counts[q] is the set's member count in the coset with quotient index
    q, as in RegularityResult.coset_counts; `good` lists the quotient
    indices to colour.  The colouring lives on the quotient F_2^m
    (m = codim of `space`), indexed by quotient index; cosets not listed
    stay uncoloured.
    """
    if space.p != 2:
        raise InputError("bucket_colouring is defined over F_2 only")
    if len(counts) != 1 << space.codim:
        raise InputError(f"expected {1 << space.codim} coset counts, got {len(counts)}")
    if buckets < 1:
        raise InputError(f"bucket count must be >= 1, got {buckets}")
    colours: list[Optional[int]] = [None] * len(counts)
    for q in good:
        if not 0 <= q < len(counts):
            raise InputError(f"quotient index {q} out of range for codim {space.codim}")
        colours[q] = buckets * counts[q] // space.size
    return AlmostColouring(m=space.codim, C=buckets, colours=tuple(colours))


def find_union_structure(
    colouring: AlmostColouring, d: int
) -> Optional[UnionStructure]:
    """Exhaustive lex-least search for a size-d union structure.

    Candidates x_1 < ... < x_d are scanned in increasing rank order with
    pruning by colour agreement and linear independence; the first
    structure found is the lex-least one.  Returns None when no
    structure exists.  Raises BudgetExceededError once more than
    SEARCH_BUDGET candidates have been tried.
    """
    if d < 1:
        raise InputError(f"structure size d must be >= 1, got {d}")
    m = colouring.m
    colours = colouring.colours
    total = 1 << m
    classes: dict[int, list[int]] = {}
    for x in range(1, total):
        c = colours[x]
        if c is not None:
            classes.setdefault(c, []).append(x)
    tried = 0

    def extend(
        chosen: list[int], sums: list[int], colour: int, candidates: list[int]
    ) -> Optional[list[int]]:
        nonlocal tried
        if len(chosen) == d:
            return chosen
        span = set(sums)
        span.add(0)
        start = bisect_right(candidates, chosen[-1])
        for x in candidates[start:]:
            tried += 1
            if tried > SEARCH_BUDGET:
                raise BudgetExceededError(
                    f"subset-sum search tried more than {SEARCH_BUDGET} candidates;"
                    f" it stopped at x_1 of rank {chosen[0]} of {total - 1}"
                )
            if x in span:
                continue
            shifted = [s ^ x for s in sums]
            if any(colours[s] != colour for s in shifted):
                continue
            found = extend(chosen + [x], sums + shifted + [x], colour, candidates)
            if found is not None:
                return found
        return None

    for x1 in sorted(x for xs in classes.values() for x in xs):
        colour = colours[x1]
        found = extend([x1], [x1], colour, classes[colour])
        if found is not None:
            return UnionStructure(
                xs=tuple(GFVector.from_rank(2, m, x) for x in found),
                colour=colour,
            )
    return None


def check_union_structure(
    colouring: AlmostColouring, structure: UnionStructure
) -> bool:
    """Re-verify a claimed structure against the colouring from scratch."""
    xs = structure.xs
    if len(xs) < 1 or any((x.p, x.n) != (2, colouring.m) for x in xs):
        return False
    if any(xs[i].rank >= xs[i + 1].rank for i in range(len(xs) - 1)):
        return False
    sums = structure.subset_sum_ranks()
    if len(set(sums)) != (1 << len(xs)) - 1 or 0 in sums:
        return False  # dependent: some subset sums collide or vanish
    return all(colouring.colours[s] == structure.colour for s in sums)


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
