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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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


@dataclass(frozen=True)
class UnionStructure:
    """d independent vectors whose nonempty subset sums share one colour."""

    xs: tuple[GFVector, ...]
    colour: int

    @property
    def d(self) -> int:
        return len(self.xs)


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

