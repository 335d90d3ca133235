"""Bucket colourings and the monochromatic subset-sum structure search.

`oracle_pair` / `oracle_triple` are brute-force searches written directly
from the definition (lex-least loops, explicit independence checks); the
completeness test compares the library search against them on every total
two-colouring for small m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from subuniform import (
    AlmostColouring,
    BudgetExceededError,
    GFVector,
    InputError,
    PointSet,
    UnionStructure,
    bucket_colouring,
    find_union_structure,
    rref_basis,
)
from subuniform import ramsey

from conftest import (
    check_union_structure,
    parse_colouring,
    rand_below,
    raw_coset_counts,
    serialize_colouring,
    words,
)


def oracle_pair(colours) -> tuple[int, int] | None:
    """Least (x, y), x < y, with c(x) = c(y) = c(x^y) all defined."""
    size = len(colours)
    for x in range(1, size):
        if colours[x] is None:
            continue
        for y in range(x + 1, size):
            if colours[y] == colours[x] and colours[x ^ y] == colours[x]:
                return (x, y)
    return None


def oracle_triple(colours) -> tuple[int, int, int] | None:
    """Least independent (x, y, z) whose seven subset sums share a colour."""
    size = len(colours)
    for x in range(1, size):
        if colours[x] is None:
            continue
        for y in range(x + 1, size):
            if colours[y] != colours[x]:
                continue
            for z in range(y + 1, size):
                if colours[z] != colours[x] or z in (x ^ y,):
                    continue
                sums = {x, y, z, x ^ y, x ^ z, y ^ z, x ^ y ^ z}
                if len(sums) == 7 and all(colours[s] == colours[x] for s in sums):
                    return (x, y, z)
    return None


def random_colouring(stream, m: int, C: int, coloured_prob=(3, 4)) -> AlmostColouring:
    colours = [None]
    for _ in range((1 << m) - 1):
        if rand_below(stream, coloured_prob[1]) < coloured_prob[0]:
            colours.append(rand_below(stream, C + 1))
        else:
            colours.append(None)
    return AlmostColouring(m, C, tuple(colours))


# ---------------------------------------------------------------------------
# bucket colourings


def test_bucket_colouring_frozen_example():
    W = rref_basis([GFVector(2, 4, (0, 0, 1, 0)), GFVector(2, 4, (0, 0, 0, 1))])
    A = PointSet.from_ranks(2, 4, [r for r in range(16) if r & 8])
    col = bucket_colouring(raw_coset_counts(A, W), W, 4, range(4))
    assert (col.m, col.C) == (2, 4)
    # quotient indexes 00,01,10,11 carry densities 0,0,1,1 -> colours 0,0,4,4
    assert col.colours == (0, 0, 4, 4)


def test_bucket_colour_is_floor_of_scaled_density():
    # floor(B * density): B=4 with densities 0, 3/8, 1/2, 1 -> 0, 1, 2, 4
    for count, size, buckets, expect in [
        (0, 8, 4, 0),
        (3, 8, 4, 1),
        (4, 8, 4, 2),
        (8, 8, 4, 4),
        (37, 100, 4, 1),
    ]:
        assert buckets * count // size == expect
        assert int(buckets * Fraction(count, size)) == expect


def test_bucket_colouring_respects_good_reps():
    W = rref_basis([GFVector(2, 4, (0, 0, 1, 0)), GFVector(2, 4, (0, 0, 0, 1))])
    A = PointSet.from_ranks(2, 4, [r for r in range(16) if r & 8])
    counts = raw_coset_counts(A, W)
    col = bucket_colouring(counts, W, 4, [0, 1])
    assert col.colours == (0, 0, None, None)
    assert col.colours[GFVector(2, 2, (0, 1)).rank] == 0
    assert col.colours[GFVector(2, 2, (1, 1)).rank] is None
    for bad_counts, good in ((counts, [4]), (counts, [-1]), (counts[:3], [0])):
        with pytest.raises(InputError):
            bucket_colouring(bad_counts, W, 4, good)


def test_bucket_colouring_with_dyadic_density_mix():
    # one coset full, one half-full, two empty, B = 2
    W = rref_basis([GFVector(2, 3, (0, 0, 1))])
    A = PointSet.from_ranks(2, 3, [4, 5, 6])
    col = bucket_colouring(raw_coset_counts(A, W), W, 2, range(4))
    assert col.colours == (0, 0, 2, 1)


# ---------------------------------------------------------------------------
# structure search: frozen examples


def test_structure_frozen_examples():
    full = AlmostColouring(2, 1, (None, 1, 1, 1))
    s = find_union_structure(full, 2)
    assert [x.digits() for x in s.xs] == ["01", "10"]
    assert s.colour == 1
    assert len(s.xs) == 2
    assert check_union_structure(full, s)

    blocked = AlmostColouring(2, 2, (None, 2, 1, 1))
    assert find_union_structure(blocked, 2) is None

    single = AlmostColouring(2, 3, (None, None, None, 3))
    s1 = find_union_structure(single, 1)
    assert [x.digits() for x in s1.xs] == ["11"] and s1.colour == 3

    mono3 = AlmostColouring(3, 1, tuple([None] + [1] * 7))
    assert [x.rank for x in find_union_structure(mono3, 2).xs] == [1, 2]
    assert [x.rank for x in find_union_structure(mono3, 3).xs] == [1, 2, 4]


def test_structure_requires_coloured_sums():
    # x=01, y=10 share colour 1 but the sum 11 is uncoloured
    c = AlmostColouring(2, 1, (None, 1, 1, None))
    assert find_union_structure(c, 2) is None


def test_structure_needs_enough_dimensions():
    mono = AlmostColouring(2, 1, (None, 1, 1, 1))
    assert find_union_structure(mono, 3) is None
    with pytest.raises(InputError):
        find_union_structure(mono, 0)


def test_search_budget_counts_candidates(monkeypatch):
    # d = 3 on F_2^2 tries 4 candidates: 2, then 3 after (1, 2), then 3
    # after x_1 = 1, and 3 after x_1 = 2
    mono = AlmostColouring(2, 1, (None, 1, 1, 1))
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 4)
    assert find_union_structure(mono, 3) is None
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 3)
    with pytest.raises(
        BudgetExceededError,
        match="tried more than 3 candidates; it stopped at x_1 of rank 2 of 3",
    ):
        find_union_structure(mono, 3)
    # the pair (1, 2) is found at the first candidate
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 1)
    assert [x.rank for x in find_union_structure(mono, 2).xs] == [1, 2]
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 0)
    with pytest.raises(BudgetExceededError, match="x_1 of rank 1 of 3"):
        find_union_structure(mono, 2)


# ---------------------------------------------------------------------------
# soundness and completeness against the oracles


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pair_search_agrees_with_oracle_on_all_total_colourings(m):
    size = 1 << m
    for assignment in product((0, 1), repeat=size - 1):
        colours = (None,) + assignment
        col = AlmostColouring(m, 1, colours)
        found = find_union_structure(col, 2)
        expect = oracle_pair(colours)
        if expect is None:
            assert found is None
        else:
            assert found is not None
            assert (found.xs[0].rank, found.xs[1].rank) == expect
            assert check_union_structure(col, found)


def test_triple_search_agrees_with_oracle_on_sampled_colourings():
    stream = words(71)
    for _ in range(60):
        col = random_colouring(stream, 3, 1)
        found = find_union_structure(col, 3)
        expect = oracle_triple(col.colours)
        if expect is None:
            assert found is None
        else:
            assert found is not None
            assert tuple(x.rank for x in found.xs) == expect
            assert check_union_structure(col, found)


def test_pair_search_agrees_with_oracle_on_partial_colourings():
    stream = words(72)
    for m, reps in ((3, 60), (4, 25)):
        for _ in range(reps):
            col = random_colouring(stream, m, 2)
            found = find_union_structure(col, 2)
            expect = oracle_pair(col.colours)
            assert (found is None) == (expect is None)
            if found is not None:
                assert (found.xs[0].rank, found.xs[1].rank) == expect


def test_search_monotone_under_extra_colour():
    stream = words(73)
    for _ in range(30):
        col = random_colouring(stream, 3, 1)
        found = find_union_structure(col, 2)
        if found is None:
            continue
        uncoloured = [r for r in range(1, 8) if col.colours[r] is None]
        if not uncoloured:
            continue
        extended = list(col.colours)
        extended[uncoloured[0]] = rand_below(stream, 2)
        again = find_union_structure(AlmostColouring(3, 1, tuple(extended)), 2)
        assert again is not None


def test_check_rejects_tampered_structures():
    mono = AlmostColouring(3, 1, tuple([None] + [1] * 7))
    good = find_union_structure(mono, 2)
    assert check_union_structure(mono, good)
    # wrong colour label
    bad_colour = UnionStructure(xs=good.xs, colour=0)
    assert not check_union_structure(mono, bad_colour)
    # dependent vectors
    dep = UnionStructure(
        xs=(GFVector(2, 3, (0, 0, 1)), GFVector(2, 3, (0, 0, 1))), colour=1
    )
    assert not check_union_structure(mono, dep)
    # zero vector is not allowed
    zero = UnionStructure(xs=(GFVector.zero(2, 3),), colour=1)
    assert not check_union_structure(mono, zero)
    # uncoloured sum
    holed = AlmostColouring(3, 1, (None, 1, 1, None, 1, 1, 1, 1))
    assert not check_union_structure(holed, good)


# ---------------------------------------------------------------------------
# validation and the text format


def test_almost_colouring_validation():
    with pytest.raises(InputError):
        AlmostColouring(2, 1, (None, 5, None, None))
    with pytest.raises(InputError):
        AlmostColouring(2, 1, (None, 1))
    with pytest.raises(InputError):
        AlmostColouring(25, 1, tuple([None] * (1 << 25)))
    with pytest.raises(InputError):
        AlmostColouring(2, -1, (None, None, None, None))


def test_colouring_round_trip():
    stream = words(74)
    for _ in range(10):
        col = random_colouring(stream, 3, 3)
        assert parse_colouring(serialize_colouring(col)) == col


def test_colouring_serialization_layout():
    col = AlmostColouring(2, 2, (None, 2, 1, 1))
    assert serialize_colouring(col) == "m=2 C=2\n00 -\n01 2\n10 1\n11 1\n"


def test_colouring_parse_accepts_comments_and_partial_files():
    text = "# experiment 7\nm=2 C=1\n\n01 1  # the first point\n"
    col = parse_colouring(text)
    assert col.colours == (None, 1, None, None)


def test_colouring_parse_errors_carry_line_numbers():
    cases = [
        ("01 1\n", "line 1"),           # header missing
        ("m=2\n", "line 1"),            # malformed header
        ("m=2 C=1\n0 1\n", "line 2"),   # wrong length
        ("m=2 C=1\n02 1\n", "line 2"),  # bad digit
        ("m=2 C=1\n01 5\n", "line 2"),  # colour out of range
        ("m=2 C=1\n01 x\n", "line 2"),  # bad colour token
        ("m=2 C=1\n01 1\n01 0\n", "line 3"),  # duplicate
        ("m=99 C=1\n", "line 1"),       # m over the cap
        ("", "line 1"),                 # empty file
    ]
    for text, fragment in cases:
        with pytest.raises(InputError, match=fragment):
            parse_colouring(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # serialize_colouring writes the one point of F_2^0 as "0"
        ("m=0 C=2\n1 2\n", "line 2: bad point '1' for m=0"),
        # int() would read these as 10, 1 and 2
        ("m=2 C=20\n01 1_0\n", "line 2: bad colour '1_0'"),
        ("m=2 C=2\n01 +1\n", "line 2: bad colour '+1'"),
        ("m=+2 C=1\n", "line 1: malformed header 'm=+2 C=1'"),
    ],
)
def test_colouring_parse_takes_only_decimal_digits(text, message):
    with pytest.raises(InputError) as excinfo:
        parse_colouring(text)
    assert str(excinfo.value) == message
