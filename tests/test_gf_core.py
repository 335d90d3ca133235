"""Finite-vector-space core: vectors, RREF subspaces, cosets, enumeration.

Independent oracles:
  * `tuple_span` computes spans by brute-force closure on coordinate tuples;
  * `add_rank` adds two ranks digit by digit, the reference for the F_3
    rank adder and span order;
  * `base_p_digits` re-derives the rank convention from scratch;
  * `gb_oracle` counts subspaces via the q-Pascal recursion
    G(n, k) = G(n-1, k-1) + p^k * G(n-1, k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import (
    Coset,
    GFVector,
    InputError,
    PointSet,
    Subspace,
    canonical_rep,
    coset_reps,
    enumerate_subspaces,
    extend_span,
    gaussian_binomial,
    lift_from_quotient,
    perp,
    restricted_spectrum,
    rref_basis,
)
from subuniform import gf_core
from subuniform.gf_core import (
    _coset_table,
    _quotient_index,
    _span_ranks,
    _trit_halves,
    _trit_shifts,
    _unpacked,
)

from conftest import (
    add_rank,
    annihilator_rows,
    base_p_digits,
    block_spans,
    full_set,
    rand_below,
    random_subset,
    random_subspace,
    random_vector,
    raw_coset_counts,
    rec_wht2,
    quotient_index,
    ref_member_ranks,
    rref_walk,
    span_ranks,
    tuple_add,
    tuple_scale,
    tuple_span,
    words,
)


@lru_cache(maxsize=None)
def gb_oracle(p: int, n: int, k: int) -> int:
    """q-Pascal recursion for the number of k-dim subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gb_oracle(p, n - 1, k - 1) + p**k * gb_oracle(p, n - 1, k)


def vectors_strategy(p: int, n: int, max_count: int = 5):
    vec = st.integers(min_value=0, max_value=p**n - 1).map(
        lambda r: GFVector.from_rank(p, n, r)
    )
    return st.lists(vec, min_size=1, max_size=max_count)


# ---------------------------------------------------------------------------
# vectors and ranks


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_rank_round_trip_exhaustive(p, n):
    for r in range(p**n):
        v = GFVector.from_rank(p, n, r)
        assert v.rank == r
        assert v.coords == base_p_digits(p, n, r)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_rank_order_is_lex_order(p, n):
    vs = [GFVector.from_rank(p, n, r) for r in range(p**n)]
    assert sorted(vs) == sorted(vs, key=lambda v: v.rank) == vs


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2)])
def test_vector_arithmetic_matches_tuple_oracle(p, n):
    for ru in range(p**n):
        for rv in range(p**n):
            u = GFVector.from_rank(p, n, ru)
            v = GFVector.from_rank(p, n, rv)
            assert (u + v).coords == tuple_add(p, u.coords, v.coords)
            assert u.dot(v) == sum(a * b for a, b in zip(u.coords, v.coords)) % p
            assert add_rank(p, n, ru, rv) == (u + v).rank


def test_vector_scale_and_units():
    assert GFVector.unit(3, 2, 2).coords == (0, 1)
    assert GFVector.zero(2, 3).coords == (0, 0, 0)
    assert GFVector(2, 3, (1, 0, 1)).digits() == "101"


def test_vector_validation():
    with pytest.raises(InputError):
        GFVector(5, 2, (0, 0))
    with pytest.raises(InputError):
        GFVector(2, 2, (0, 2))
    with pytest.raises(InputError):
        GFVector(2, 3, (0, 1))
    with pytest.raises(InputError):
        GFVector(2, 25, tuple([0] * 25))
    with pytest.raises(InputError):
        GFVector(3, 13, tuple([0] * 13))
    with pytest.raises(InputError):
        GFVector(2, 3, (0, 1, 0)) + GFVector(2, 4, (0, 1, 0, 0))


# ---------------------------------------------------------------------------
# RREF spans


def test_rref_frozen_examples():
    V = rref_basis(
        [GFVector(2, 3, (1, 1, 0)), GFVector(2, 3, (0, 1, 1)), GFVector(2, 3, (1, 0, 1))]
    )
    assert [row.digits() for row in V.basis] == ["101", "011"]
    assert V.dim == 2 and V.pivots == (1, 2)

    L = rref_basis([GFVector(3, 2, (1, 2)), GFVector(3, 2, (2, 1))])
    assert [row.digits() for row in L.basis] == ["12"]


@given(vectors_strategy(2, 4))
def test_rref_preserves_span_p2(vs):
    space = rref_basis(vs)
    expect = tuple_span(2, [v.coords for v in vs])
    assert frozenset(base_p_digits(space.p, space.n, r) for r in span_ranks(space)) == expect
    assert space.size == len(expect)


@given(vectors_strategy(3, 3, max_count=3))
def test_rref_preserves_span_p3(vs):
    space = rref_basis(vs)
    expect = tuple_span(3, [v.coords for v in vs])
    assert frozenset(base_p_digits(space.p, space.n, r) for r in span_ranks(space)) == expect


@given(vectors_strategy(2, 5))
def test_rref_shape_and_idempotence(vs):
    space = rref_basis(vs)
    pivots = space.pivots
    assert list(pivots) == sorted(set(pivots))
    for i, row in enumerate(space.basis):
        assert row.coords[pivots[i] - 1] == 1
        assert all(c == 0 for c in row.coords[: pivots[i] - 1])
        for j, other in enumerate(space.basis):
            if i != j:
                assert other.coords[pivots[i] - 1] == 0
    assert rref_basis(space.basis) == space if space.dim else True


def test_subspace_constructor_validates_rref():
    with pytest.raises(InputError):
        Subspace(2, 3, (GFVector(2, 3, (1, 1, 0)), GFVector(2, 3, (0, 1, 1))))
    with pytest.raises(InputError):
        Subspace(2, 3, (GFVector(2, 3, (0, 0, 0)),))
    # a valid RREF basis is accepted as-is
    ok = Subspace(2, 3, (GFVector(2, 3, (1, 0, 1)), GFVector(2, 3, (0, 1, 1))))
    assert ok.dim == 2


def test_structural_equality_is_set_equality():
    a = rref_basis([GFVector(2, 3, (1, 1, 0)), GFVector(2, 3, (0, 1, 1))])
    b = rref_basis([GFVector(2, 3, (1, 0, 1)), GFVector(2, 3, (1, 1, 0))])
    assert a == b
    assert hash(a) == hash(b)


def test_contains_and_contains_subspace():
    # v lies in a subspace exactly when its canonical rep is 0, and a
    # subspace contains another when it contains every basis row
    zero = GFVector.zero(2, 3)

    def contains_subspace(big: Subspace, small: Subspace) -> bool:
        return all(canonical_rep(row, big) == zero for row in small.basis)

    V = rref_basis([GFVector(2, 3, (1, 0, 1)), GFVector(2, 3, (0, 1, 1))])
    W = rref_basis([GFVector(2, 3, (1, 1, 0))])
    assert canonical_rep(GFVector(2, 3, (1, 1, 0)), V) == zero
    assert canonical_rep(GFVector(2, 3, (1, 1, 1)), V) != zero
    assert contains_subspace(V, W)
    assert not contains_subspace(W, V)
    assert contains_subspace(Subspace.full(2, 3), V)
    assert contains_subspace(V, Subspace.zero(2, 3))


# ---------------------------------------------------------------------------
# annihilators


def test_perp_frozen_example():
    V = rref_basis([GFVector(2, 3, (1, 0, 1)), GFVector(2, 3, (0, 1, 1))])
    assert [row.digits() for row in perp(V).basis] == ["111"]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_perp_involution_and_pairing_exhaustive(p, n):
    for k in range(n + 1):
        for space in enumerate_subspaces(p, n, k):
            dual = perp(space)
            assert dual.dim + space.dim == n
            for row in space.basis:
                for r in dual.basis:
                    assert row.dot(r) == 0
            assert perp(dual) == space


def test_perp_of_extremes():
    assert perp(Subspace.full(2, 5)) == Subspace.zero(2, 5)
    assert perp(Subspace.zero(3, 3)) == Subspace.full(3, 3)


# ---------------------------------------------------------------------------
# canonical representatives and cosets


def test_canonical_rep_frozen_example():
    L = rref_basis([GFVector(3, 2, (1, 2))])
    assert canonical_rep(GFVector(3, 2, (1, 0)), L).coords == (0, 1)


@pytest.mark.parametrize("p,n,dim,seed", [(2, 5, 2, 11), (2, 6, 3, 12), (3, 4, 2, 13)])
def test_canonical_rep_properties(p, n, dim, seed):
    stream = words(seed)
    for _ in range(20):
        space = random_subspace(stream, p, n, dim)
        x = random_vector(stream, p, n)
        rep = canonical_rep(x, space)
        # same coset: difference lies in the space
        diff = GFVector(p, n, tuple((a - b) % p for a, b in zip(x.coords, rep.coords)))
        assert canonical_rep(diff, space) == GFVector.zero(p, n)
        # idempotent and translation invariant
        assert canonical_rep(rep, space) == rep
        for row in space.basis:
            assert canonical_rep(x + row, space) == rep
        # lex-least element of the coset, by brute force
        coset_pts = [rep + GFVector.from_rank(p, n, r) for r in span_ranks(space)]
        assert rep == min(coset_pts)


def test_coset_canonicalization_and_validation():
    V = rref_basis([GFVector(2, 3, (1, 0, 1))])
    # rep with a set pivot coordinate is not canonical
    with pytest.raises(InputError):
        Coset(V, GFVector(2, 3, (1, 0, 0)))
    coset = Coset.of(V, GFVector(2, 3, (1, 0, 0)))
    assert coset.rep == GFVector(2, 3, (0, 0, 1))
    assert canonical_rep(GFVector(2, 3, (1, 0, 0)), V) == coset.rep
    assert coset.subspace.size == 2
    whole = Coset.whole_space(2, 3)
    assert whole.subspace == Subspace.full(2, 3) and whole.rep == GFVector.zero(2, 3)


@pytest.mark.parametrize(
    "p,n,dim,seed",
    [(2, 6, 3, 23), (2, 5, 5, 24), (3, 4, 2, 25), (3, 12, 3, 26), (3, 5, 5, 27)],
)
def test_coset_point_ranks_translate_the_span(p, n, dim, seed):
    stream = words(seed)
    for _ in range(10):
        space = random_subspace(stream, p, n, dim)
        coset = Coset.of(space, random_vector(stream, p, n))
        rep = coset.rep.coords
        points = [GFVector.from_rank(p, n, r).coords for r in coset.point_ranks()]
        span = tuple_span(p, [row.coords for row in space.basis])
        assert len(points) == len(span)
        assert set(points) == {tuple_add(p, rep, v) for v in span}
        # index c is rep + sum c_i basis_i, the first row most significant
        for c, point in enumerate(points):
            expect = rep
            for digit, row in zip(base_p_digits(p, dim, c), space.basis):
                expect = tuple_add(p, expect, tuple_scale(p, digit, row.coords))
            assert point == expect


@pytest.mark.parametrize("p,n,dim,seed", [(2, 5, 3, 21), (3, 3, 1, 22)])
def test_coset_reps_partition_ambient(p, n, dim, seed):
    stream = words(seed)
    for _ in range(10):
        space = random_subspace(stream, p, n, dim)
        reps = coset_reps(space)
        assert len(reps) == p ** space.codim
        seen: set[int] = set()
        for i, rep in enumerate(reps):
            assert quotient_index(space, rep) == i
            assert lift_from_quotient(space, i) == rep
            pts = set(Coset.of(space, rep).point_ranks())
            assert len(pts) == space.size
            assert not (seen & pts)
            seen |= pts
        assert len(seen) == p**n


@pytest.mark.parametrize("p,n,dim,seed", [(2, 6, 2, 31), (3, 4, 2, 32)])
def test_quotient_index_constant_on_cosets(p, n, dim, seed):
    stream = words(seed)
    for _ in range(10):
        space = random_subspace(stream, p, n, dim)
        x = random_vector(stream, p, n)
        idx = quotient_index(space, x)
        for r in span_ranks(space):
            assert quotient_index(space, x + GFVector.from_rank(p, n, r)) == idx
        assert canonical_rep(x, space) == lift_from_quotient(space, idx)


@pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)])
def test_quotient_index_inverts_lift_on_canonical_reps(p, n):
    points = [GFVector.from_rank(p, n, r) for r in range(p**n)]
    for k in range(n + 1):
        for space in enumerate_subspaces(p, n, k):
            for q in range(p**space.codim):
                assert _quotient_index(space, lift_from_quotient(space, q)) == q
            for x in points:
                assert _quotient_index(space, canonical_rep(x, space)) == quotient_index(space, x)


# ---------------------------------------------------------------------------
# enumeration and counting


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
def test_enumeration_counts_match_recursion_oracle(p, n):
    for k in range(n + 1):
        spaces = list(enumerate_subspaces(p, n, k))
        assert len(spaces) == gb_oracle(p, n, k) == gaussian_binomial(p, n, k)
        assert len(set(spaces)) == len(spaces)
        assert all(s.dim == k for s in spaces)


def _slot_entries(space: Subspace) -> tuple[int, ...]:
    """Free entries of the RREF basis, row by row, left to right."""
    pivots = space.pivots
    return tuple(
        row.coords[col - 1]
        for row, pivot in zip(space.basis, pivots)
        for col in range(pivot + 1, space.n + 1)
        if col not in pivots
    )


def _flat(p, blocks):
    """(free columns, W's span) per subspace, from _rref_blocks' blocks."""
    return [(free, span) for free, lists in blocks for span in zip(*block_spans(p, lists))]


def _rows(p, free, span):
    """W's rows w_f, one per free column: span point p^(c-1-f), c = len(free)."""
    return tuple(span[p ** (len(free) - 1 - f)] for f in range(len(free)))


# most * p^c span cells cap the codim-c blocks at most subspaces: 4096
# leaves every profile whole, 1 puts every slot in the heads, 4 splits them
@pytest.mark.parametrize("most", [4096, 1, 4])
@pytest.mark.parametrize("p,n", [(2, 5), (3, 3)])
def test_enumeration_order_and_annihilator_rows(monkeypatch, most, p, n):
    for k in range(n + 1):
        monkeypatch.setattr(gf_core, "_SPAN_CELLS", most * p ** (n - k))
        spaces = list(enumerate_subspaces(p, n, k))
        # canonical order: pivot profile, then free entries lexicographically
        keys = [(s.pivots, _slot_entries(s)) for s in spaces]
        assert keys == sorted(keys)
        walk = _flat(p, gf_core._rref_blocks(p, n, k))
        assert len(walk) == len(spaces)
        for space, (free, span) in zip(spaces, walk):
            assert tuple(free) == space.free_columns
            rows = _rows(p, free, span)
            assert list(span) == _span_ranks(p, n, rows)
            dual = [GFVector.from_rank(p, n, r) for r in rows]
            # one row w_f per non-pivot column f: 1 at f, 0 at the others
            for row, f in zip(dual, space.free_columns):
                assert [row.coords[c - 1] for c in space.free_columns] == [
                    int(c == f) for c in space.free_columns
                ]
            assert (rref_basis(dual) if dual else Subspace.zero(p, n)) == perp(space)


def _block_sizes(p, n, k, cap):
    """The subspace count of each block of the walk, with blocks as large as cap allows.

    A profile's s slots give p^s subspaces in blocks of p^t, t the
    most slots, up to s, whose p^t subspaces fit under the cap.
    """
    sizes = []
    for pivots in combinations(range(1, n + 1), k):
        slots = sum(n - pivot - (k - 1 - i) for i, pivot in enumerate(pivots))
        t = 0
        while t < slots and p ** (t + 1) <= cap:
            t += 1
        sizes += [p**t] * p ** (slots - t)
    return sizes


@pytest.mark.parametrize("most", [1, 3, 8, 1 << 20])
def test_rref_blocks_cap_keeps_the_walk(monkeypatch, most):
    # span cells of most * p^c cap the codim-c blocks at most subspaces;
    # under p^c cells a block still holds one subspace
    p, n, k = 2, 7, 3
    whole = _flat(p, gf_core._rref_blocks(p, n, k))
    for cells in (most * p ** (n - k), 1) if most == 1 else (most * p ** (n - k),):
        monkeypatch.setattr(gf_core, "_SPAN_CELLS", cells)
        cap = cells // p ** (n - k)
        blocks = list(gf_core._rref_blocks(p, n, k))
        sizes = [len(lists[0]) for _, lists in blocks]
        assert sizes == _block_sizes(p, n, k, max(1, cap))
        assert all(1 <= size <= max(1, cap) for size in sizes)
        assert _flat(p, blocks) == whole


def test_rref_blocks_are_cut_by_span_cells_alone():
    # at the default _SPAN_CELLS a codim-c block holds up to
    # _SPAN_CELLS // p^c subspaces: codim 3 in F_2^8 has profiles of up
    # to 2^15 subspaces, cut into 60 blocks of at most 8,192, and codim 2
    # in F_3^7 profiles of up to 3^10, cut into 31 blocks of at most 6,561
    for p, n, c, count, most in ((2, 8, 3, 60, 8192), (3, 7, 2, 31, 6561)):
        sizes = [len(lists[0]) for _, lists in gf_core._rref_blocks(p, n, n - c)]
        assert sizes == _block_sizes(p, n, n - c, gf_core._SPAN_CELLS // p**c)
        assert (len(sizes), max(sizes)) == (count, most)
        assert sum(sizes) == gaussian_binomial(p, n, n - c)


@pytest.mark.parametrize("p,n", [*((2, n) for n in range(1, 6)), *((3, n) for n in range(1, 5))])
def test_span_index_names_the_one_point_that_can_equal_r(p, n):
    # every block at every k, the whole space's (k = n, W = {0}) included:
    # r lies in W exactly when W's point at _span_index's index is r
    for k in range(n + 1):
        for free, lists in gf_core._rref_blocks(p, n, k):
            at = gf_core._span_index(p, n, free)
            spans = list(zip(*block_spans(p, lists)))
            for r in range(p**n):
                i = at(r)
                assert all((span[i] == r) == (r in span) for span in spans)


def test_reference_walk_is_enumerate_subspaces():
    # conftest's rref_walk stands in for enumerate_subspaces where objects cost too much
    for p, n in product((2, 3), range(1, 5)):
        for k in range(n + 1):
            assert [(pivots, [tuple(row) for row in rows]) for pivots, rows in rref_walk(p, n, k)] == [
                (V.pivots, [v.coords for v in V.basis]) for V in enumerate_subspaces(p, n, k)
            ]


def test_enumeration_is_deterministic_with_frozen_head():
    first = next(iter(enumerate_subspaces(2, 4, 2)))
    assert [row.digits() for row in first.basis] == ["1000", "0100"]
    assert list(enumerate_subspaces(3, 3, 1)) == list(enumerate_subspaces(3, 3, 1))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 4, 2) == 35
    assert gaussian_binomial(3, 2, 1) == 4
    assert gaussian_binomial(2, 10, 3) == gb_oracle(2, 10, 3)
    assert gaussian_binomial(3, 8, 4) == gb_oracle(3, 8, 4)
    assert gaussian_binomial(2, 5, 2) == gaussian_binomial(2, 5, 3)
    assert gaussian_binomial(2, 3, 7) == 0


def test_extend_span():
    W = rref_basis([GFVector(2, 3, (1, 1, 0))])
    E = extend_span(W, [GFVector(2, 3, (0, 1, 1))])
    assert E == rref_basis([GFVector(2, 3, (1, 1, 0)), GFVector(2, 3, (0, 1, 1))])
    assert E.dim == 2
    assert extend_span(E, [GFVector(2, 3, (1, 0, 1))]) == E  # contained vector
    assert extend_span(Subspace.zero(3, 2), [GFVector(3, 2, (2, 1))]) == rref_basis(
        [GFVector(3, 2, (1, 2))]
    )


# ---------------------------------------------------------------------------
# point sets


def test_pointset_round_trip_and_operations():
    A = PointSet.from_ranks(2, 3, [5, 1, 5, 7])
    assert A.size == 3
    assert list(A.member_ranks()) == [1, 5, 7]
    assert A.bits == 0b10100010
    table = A.membership_table()
    assert len(table) == 8 and [i for i, m in enumerate(table) if m] == [1, 5, 7]
    assert list(PointSet.from_ranks(3, 2, [5]).member_ranks()) == [5]
    assert PointSet.empty(2, 4).size == 0
    assert full_set(2, 4).size == 16
    assert full_set(3, 2).ambient_size == 9


def test_pointset_validation():
    with pytest.raises(InputError, match="rank 8 out of range for F_2\\^3"):
        PointSet.from_ranks(2, 3, [8])
    with pytest.raises(InputError, match="rank -1 out of range for F_2\\^3"):
        PointSet.from_ranks(2, 3, [-1])
    with pytest.raises(InputError):
        PointSet.empty(2, 25)
    with pytest.raises(InputError):
        PointSet.empty(3, 13)


@settings(max_examples=25)
@given(st.sets(st.integers(min_value=0, max_value=63)))
def test_pointset_membership_matches_rank_set(ranks):
    A = PointSet.from_ranks(2, 6, sorted(ranks))
    assert set(A.member_ranks()) == ranks
    assert A.size == len(ranks)


def test_pointset_decoder_shapes():
    stream = words(91)
    for p, n in ((2, 1), (2, 7), (3, 1), (3, 4)):
        A = random_subset(stream, p, n, Fraction(1, 2))
        table = A.membership_table()
        assert type(table) is list
        assert table == [A.bits >> r & 1 for r in range(p**n)]
        ranks = list(A.member_ranks())
        assert ranks == sorted(ranks) == ref_member_ranks(A)
    # the top and bottom ranks decode to the ends of the table
    B = PointSet.from_ranks(2, 5, [0, 31])
    assert B.membership_table() == [1] + [0] * 30 + [1]
    assert list(B.member_ranks()) == [0, 31]
    assert list(PointSet.empty(3, 3).member_ranks()) == []
    assert full_set(3, 2).membership_table() == [1] * 9


def test_unpacked_reads_only_the_low_bits():
    assert _unpacked(0b111, 2) == b"\1\1"
    assert _unpacked(0b1011, 3) == b"\1\1\0"
    assert _unpacked(1 << 8 | 1, 8) == b"\1" + bytes(7)
    assert _unpacked(0, 4) == bytes(4)


# ---------------------------------------------------------------------------
# the F_2 coset layout


def gathered_table(points: PointSet, space: Subspace) -> bytes:
    """The coset-major table gathered point by point, coset q's block q-th."""
    return bytes(
        points.bits >> r & 1
        for q in range(2**space.codim)
        for r in Coset(space, lift_from_quotient(space, q)).point_ranks()
    )


def check_layout(points: PointSet, space: Subspace, quotients) -> None:
    # the table, and restricted_spectrum of each coset q listed, against
    # the gathered points of the coset and the recursive transform
    assert _coset_table(points.bits, space) == gathered_table(points, space)
    for q in quotients:
        coset = Coset(space, lift_from_quotient(space, q))
        block = [points.bits >> r & 1 for r in coset.point_ranks()]
        spectrum = restricted_spectrum(points, coset)
        assert spectrum.coefficients == tuple(rec_wht2(block))


@pytest.mark.parametrize("n", range(1, 5))
def test_coset_layout_on_every_subspace_and_coset(n):
    # every set at n <= 2 (n = 1 and 2 have masks shorter than a byte),
    # random sets, the empty and the full set above
    if n <= 2:
        sets = [PointSet(2, n, bits) for bits in range(1 << (1 << n))]
    else:
        stream = words(95 + n)
        sets = [random_subset(stream, 2, n, Fraction(1, 2)) for _ in range(6)]
        sets += [PointSet.empty(2, n), full_set(2, n)]
    for k in range(n + 1):
        for space in enumerate_subspaces(2, n, k):
            for A in sets:
                check_layout(A, space, range(2**space.codim))


@pytest.mark.parametrize("n,seed", [(9, 97), (16, 98)])
def test_coset_layout_on_random_subspaces(n, seed):
    # every dim at n = 9, every dim down to codim 9 at n = 16; each
    # subspace's first, last and one random coset through restricted_spectrum
    stream = words(seed)
    A = random_subset(stream, 2, n, Fraction(1, 2))
    for k in range(max(n - 9, 0), n + 1):
        space = random_subspace(stream, 2, n, k)
        last = 2**space.codim - 1
        check_layout(A, space, sorted({0, rand_below(stream, last + 1), last}))


# ---------------------------------------------------------------------------
# the F_3 rank adder and span order


def test_trit_adder_matches_digit_loop():
    # every pair in F_3^1 .. F_3^4, read by x's halves and as the full
    # list in rank order, high half major, as the shifted tables read it
    for n in range(1, 5):
        cut = 3 ** (n // 2)
        for r in range(3**n):
            expected = [add_rank(3, n, r, x) for x in range(3**n)]
            H, L = _trit_halves(n, r)
            assert [H[x // cut] + L[x % cut] for x in range(3**n)] == expected
            assert [h + l for h in H for l in L] == expected
    stream = words(31)
    n = 12
    cut = 3 ** (n // 2)
    xs = [rand_below(stream, 3**n) for _ in range(50)]
    ys = [rand_below(stream, 3**n) for _ in range(50)]
    for x in xs:
        H, L = _trit_halves(n, x)
        assert [H[y // cut] + L[y % cut] for y in ys] == [
            add_rank(3, n, x, y) for y in ys
        ]


@pytest.mark.parametrize("n,dim,seed", [(3, 2, 35), (6, 3, 36), (12, 4, 37)])
def test_trit_span_order_is_coefficient_index(n, dim, seed):
    # point i is start + sum c_f rows_f, c the base-3 digits of i with the
    # first row most significant
    stream = words(seed)
    rows = tuple(row.rank for row in random_subspace(stream, 3, n, dim).basis)
    start = 1 + rand_below(stream, 3**n - 1)
    expected = []
    for i in range(3**dim):
        point = start
        for c, row in zip(base_p_digits(3, dim, i), rows):
            for _ in range(c):
                point = add_rank(3, n, point, row)
        expected.append(point)
    assert _span_ranks(3, n, rows, start) == expected


# the wht command's contract: coefficient index = rank on the whole space
@pytest.mark.parametrize("p,n", [(2, 1), (2, 8), (2, 16), (3, 1), (3, 6), (3, 12)])
def test_whole_space_point_ranks_are_the_ranks(p, n):
    assert Coset.whole_space(p, n).point_ranks() == list(range(p**n))


@pytest.mark.parametrize("n,dim,seed", [(3, 2, 32), (6, 3, 33), (12, 2, 34)])
def test_trit_span_and_coset_scan_match_tuple_span(n, dim, seed):
    stream = words(seed)
    space = random_subspace(stream, 3, n, dim)
    rows = tuple(row.rank for row in space.basis)
    span = tuple_span(3, [row.coords for row in space.basis])
    ranks = _span_ranks(3, n, rows)
    assert {GFVector.from_rank(3, n, r).coords for r in ranks} == span
    assert len(ranks) == len(span) == space.size
    if n > 6:
        return  # the coset scan below reads all 3^n points
    A = random_subset(stream, 3, n, Fraction(1, 2))
    mem = A.membership_table()
    blocks = [
        [mem[r] for r in Coset(space, lift_from_quotient(space, q)).point_ranks()]
        for q in range(3**space.codim)
    ]
    assert [sum(block) for block in blocks] == raw_coset_counts(A, space)


# annihilator blocks, as the oracle and the ternary scan walk them
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (5, 3)], ids=["3-1", "4-2", "5-2", "5-3"])
def test_trit_block_spans_match_tuple_span(n, k):
    # every block of the walk, zipped, against one span each and against
    # the annihilator of the matching enumerate_subspaces V; codim 2 in
    # F_3^5 has profiles of up to 6 slots, 729 subspaces
    spaces = enumerate_subspaces(3, n, k)
    for free, spans in gf_core._rref_blocks(3, n, k):
        assert len(spans) == 3 ** len(free)
        for span in zip(*spans):
            V = next(spaces)
            rows = _rows(3, free, span)
            assert list(span) == _span_ranks(3, n, rows)
            assert rows == annihilator_rows(3, n, V.pivots, [v.coords for v in V.basis])
            W = perp(V)
            assert set(span) == set(_span_ranks(3, n, [w.rank for w in W.basis]))
            assert rref_basis([GFVector.from_rank(3, n, w) for w in rows]) == W
            vectors = [GFVector.from_rank(3, n, w).coords for w in rows]
            # row f is e_f at the free columns
            assert [[v[col - 1] for col in free] for v in vectors] == [
                [int(col == f) for col in free] for f in free
            ]
            assert {GFVector.from_rank(3, n, r).coords for r in span} == tuple_span(3, vectors)
    assert next(spaces, None) is None


def _cut_groups(n, spans):
    """Pivots of a block with one slot fixed by its head and one in its tail."""
    spaces = [perp(rref_basis([GFVector.from_rank(3, n, w) for w in span])) for span in zip(*spans)]
    cut = []
    for g, pivot in enumerate(spaces[0].pivots):
        slots = [col for col in spaces[0].free_columns if col > pivot]
        moves = [len({V.basis[g].coords[col - 1] for V in spaces}) > 1 for col in slots]
        if any(moves) and not all(moves):
            cut.append(pivot)
    return cut


# every annihilator block of F_3^n and every codim: up to n = 6 at the
# default span cells and under a cap of 30 subspaces, up to n = 5 under
# caps of 4, 5 and 1; caps of 4, 5 and 30 cut pivot groups between head
# and tail, a cap of 1 leaves one subspace a block.  A cap of `most`
# subspaces is most * 3^c span cells at codim c, 0 the default
@pytest.mark.parametrize(
    "most,top,cuts",
    [(0, 6, False), (30, 6, True), (4, 5, True), (1, 5, False), (5, 5, True)],
)
def test_trit_block_spans_on_every_annihilator_block(monkeypatch, most, top, cuts):
    cells, cut, more = gf_core._SPAN_CELLS, [], False
    for n in range(1, top + 1):
        for c in range(1, n + 1):
            monkeypatch.setattr(gf_core, "_SPAN_CELLS", cells)
            unpatched = sum(1 for _ in gf_core._rref_blocks(3, n, n - c))
            monkeypatch.setattr(gf_core, "_SPAN_CELLS", most * 3**c or cells)
            blocks = list(gf_core._rref_blocks(3, n, n - c))
            more |= len(blocks) > unpatched
            spaces = rref_walk(3, n, n - c)
            for free, spans in blocks:
                # each span is the span of W's rows w_f, built here from
                # the matching V, and those rows are the span's own
                for span in zip(*spans):
                    rows = annihilator_rows(3, n, *next(spaces))
                    assert _rows(3, free, span) == rows
                    assert span == tuple(_span_ranks(3, n, rows))
                if n == 4:
                    cut += _cut_groups(n, spans)
            assert next(spaces, None) is None
    assert bool(cut) == cuts
    # the caps reach the walk: they split blocks that it yields whole
    assert more == bool(most)


def test_trit_shifts_match_digit_loop():
    # the tables are cached and shared by every caller, so they are tuples
    for n in range(1, 5):
        for r in range(3**n):
            assert _trit_shifts(n, r, 1) == tuple(add_rank(3, n, r, x) for x in range(3**n))
            assert _trit_shifts(n, r, 3) == tuple(3 * add_rank(3, n, r, x) for x in range(3**n))
