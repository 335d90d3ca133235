"""Density increment and energy increment over F_2.

Two classical ways to exploit a large nontrivial character coefficient:

* density_increment walks down a chain of cosets.  While the current
  coset has a coefficient of magnitude above eps, the witness frequency
  splits it into two halves whose densities differ by more than 2*eps,
  so recursing into the denser half raises the density by more than eps
  per step and the walk stops within ceil(1/eps) steps.

* regularity_decompose refines a coordinate subspace W until at most an
  eta fraction of its cosets fail to be eps-uniform.  Each round refines
  W by the span of the witnesses of all bad cosets at once, which splits
  every bad coset along its own witness, so the mean squared coset
  density (the partition energy) rises by more than eta*eps^2 per round.
  The energy is at most 1, bounding the number of rounds; the codimension
  also grows every round, so the loop terminates even when eta = 0.
  Each round reads every coset's spectrum from one wht2 call on the
  coset-major membership table, one block per coset.

Both routines are specific to p = 2; no increment step is provided for
p = 3, where a bounded-magnitude obstruction can block any such walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .errors import InputError
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    _coset_rep_ranks,
    _coset_table,
    extend_span,
    perp,
)
from .spectra import lift_class, restricted_spectrum, wht2


@dataclass(frozen=True)
class IncrementStep:
    """One visited coset: its density and the witness used to leave it."""

    coset: Coset
    density: Fraction
    witness_r: Optional[GFVector]


@dataclass(frozen=True)
class IncrementTrace:
    """Full record of a density-increment walk."""

    steps: tuple[IncrementStep, ...]
    final: Coset
    final_density: Fraction
    final_sup_sq: Fraction

    @property
    def step_count(self) -> int:
        return len(self.steps) - 1


def density_increment(points: PointSet, eps: Fraction) -> IncrementTrace:
    """Walk to a coset on which the set is eps-uniform (p = 2 only).

    Each step halves the current coset along the witness hyperplane
    r.y = const and keeps the denser half.  The split is read off the
    witness coefficient itself: it is (members in the anchor's half
    minus members in the other half), so its sign names the denser
    half, and it cannot be 0 because its magnitude exceeds eps, which
    forces the two half densities apart by more than 2*eps.
    """
    if points.p != 2:
        raise InputError("density_increment is defined over F_2 only")
    if not 0 < eps <= 1:
        raise InputError(f"eps must satisfy 0 < eps <= 1, got {eps}")
    coset = Coset.whole_space(2, points.n)
    eps_sq = eps * eps
    steps: list[IncrementStep] = []
    max_steps = ceil(1 / eps) + 1
    for _ in range(max_steps + 1):
        spectrum = restricted_spectrum(points, coset)
        report = spectrum.uniformity()
        if report.sup_sq <= eps_sq:
            steps.append(IncrementStep(coset, report.density, None))
            return IncrementTrace(
                steps=tuple(steps),
                final=coset,
                final_density=report.density,
                final_sup_sq=report.sup_sq,
            )
        r = report.witness_r
        assert r is not None
        steps.append(IncrementStep(coset, report.density, r))
        space = coset.subspace
        half_space = perp(extend_span(perp(space), [r]))
        anchor = coset.rep
        if spectrum.coefficients[report.witness_t] < 0:
            # r is not in the annihilator of the coset's subspace, so
            # some basis row crosses over to the other half
            anchor = anchor + next(row for row in space.basis if r.dot(row))
        coset = Coset.of(half_space, anchor)
    raise AssertionError("density increment failed to terminate within its bound")


def _energy(counts: Sequence[int], coset_size: int) -> Fraction:
    """Mean squared coset density from per-coset member counts."""
    return Fraction(sum(c * c for c in counts), len(counts) * coset_size * coset_size)


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of an energy-increment decomposition.

    On success at most an eta fraction of the cosets of W are bad
    (sup_sq > eps^2); bad_reps lists their canonical representatives.
    coset_counts[q] is |A intersect coset q| for every coset of the final
    W, in quotient-index order; the last energy_trace entry is read from
    these counts and bucket_colouring colours from them.  On failure (the
    next refinement would exceed max_codim) the partial state is returned
    with succeeded = False.
    """

    succeeded: bool
    space: Subspace
    good_fraction: Fraction
    bad_reps: tuple[GFVector, ...]
    rounds: int
    energy_trace: tuple[Fraction, ...]
    coset_counts: tuple[int, ...]


def coordinate_subspace(p: int, n: int, codim: int) -> Subspace:
    """{x : x_1 = ... = x_codim = 0}, the starting foliation."""
    if not 0 <= codim <= n:
        raise InputError(f"codim {codim} out of range 0..{n}")
    return Subspace(
        p, n, tuple(GFVector.unit(p, n, j) for j in range(codim + 1, n + 1))
    )


def _scan_cosets(
    bits: int, space: Subspace, eps: Fraction
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """One pass over the cosets: ([(rep rank, witness t) of bad cosets], counts).

    One wht2 call transforms the coset-major table block by block; lane
    0 of block q is coset q's count, its witness the least t > 0 of
    largest |c|, whatever the sign of c.
    """
    size = space.size
    # sup_sq > eps^2 reads |c| > eps |V|, and |c| is an integer
    limit = eps.numerator * size // eps.denominator
    coefs = wht2(_coset_table(bits, space), size)
    mags = list(map(abs, coefs))
    bad: list[tuple[int, int]] = []
    for start, rep in zip(range(0, len(coefs), size), _coset_rep_ranks(space)):
        top = max(mags[start + 1 : start + size], default=0)
        if top > limit:
            bad.append((rep, mags.index(top, start + 1) - start))
    return bad, tuple(coefs[::size])


def regularity_decompose(
    points: PointSet,
    eps: Fraction,
    eta: Fraction,
    min_codim: int = 0,
    max_codim: Optional[int] = None,
) -> RegularityResult:
    """Refine a coordinate subspace until almost all cosets are eps-uniform.

    Starts from W = {x : x_1 = ... = x_min_codim = 0}.  A coset is bad
    when its uniformity sup_sq exceeds eps^2.  While more than an eta
    fraction of cosets are bad, W is replaced by its intersection with
    the annihilator of the span of the deduplicated bad-coset witnesses.
    Fails (succeeded=False, partial state) if that would push the
    codimension beyond max_codim.
    """
    if points.p != 2:
        raise InputError("regularity_decompose is defined over F_2 only")
    if not 0 < eps <= 1:
        raise InputError(f"eps must satisfy 0 < eps <= 1, got {eps}")
    if not 0 <= eta < 1:
        raise InputError(f"eta must satisfy 0 <= eta < 1, got {eta}")
    n = points.n
    if max_codim is None:
        max_codim = n
    if not 0 <= min_codim <= max_codim <= n:
        raise InputError(
            f"need 0 <= min_codim <= max_codim <= n, got {min_codim}, {max_codim}, {n}"
        )
    space = coordinate_subspace(2, n, min_codim)
    energy_trace: list[Fraction] = []
    rounds = 0
    # codim grows strictly every round, so n + 1 scans always suffice
    for _ in range(n + 1):
        bad, counts = _scan_cosets(points.bits, space, eps)
        cosets = len(counts)
        energy_trace.append(_energy(counts, space.size))
        good_fraction = Fraction(cosets - len(bad), cosets)
        bad_reps = tuple(GFVector.from_rank(2, n, rep) for rep, _ in bad)
        if Fraction(len(bad), cosets) <= eta:
            return RegularityResult(
                succeeded=True,
                space=space,
                good_fraction=good_fraction,
                bad_reps=bad_reps,
                rounds=rounds,
                energy_trace=tuple(energy_trace),
                coset_counts=counts,
            )
        witness_ranks = sorted({lift_class(space, t).rank for _, t in bad})
        witnesses = [GFVector.from_rank(2, n, r) for r in witness_ranks]
        refined = perp(extend_span(perp(space), witnesses))
        if refined.codim > max_codim:
            return RegularityResult(
                succeeded=False,
                space=space,
                good_fraction=good_fraction,
                bad_reps=bad_reps,
                rounds=rounds,
                energy_trace=tuple(energy_trace),
                coset_counts=counts,
            )
        space = refined
        rounds += 1
    raise AssertionError("regularity decomposition failed to terminate")


@dataclass(frozen=True)
class PipelineParams:
    """Parameters for the end-to-end subspace search.

    eps is the uniformity target; eta the allowed bad-coset fraction per
    regularity round.  d (structure size) defaults to
    ceil(log2(1/eps)) + 1 and buckets (density resolution B) to
    ceil(1/eps); slack C fixes the verified guarantee sup <= C*eps.
    min_codim/max_codim bound the foliation depth; max_codim defaults to
    the ambient dimension at run time.
    """

    eps: Fraction
    eta: Fraction = Fraction(1, 8)
    d: Optional[int] = None
    buckets: Optional[int] = None
    min_codim: int = 0
    max_codim: Optional[int] = None
    slack: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise InputError(f"eps must satisfy 0 < eps <= 1, got {self.eps}")
        if not 0 <= self.eta < 1:
            raise InputError(f"eta must satisfy 0 <= eta < 1, got {self.eta}")
        if self.d is not None and self.d < 1:
            raise InputError(f"structure size d must be >= 1, got {self.d}")
        if self.buckets is not None and self.buckets < 1:
            raise InputError(f"bucket count must be >= 1, got {self.buckets}")
        if self.min_codim < 0:
            raise InputError(f"min_codim must be >= 0, got {self.min_codim}")
        if self.max_codim is not None and self.max_codim < self.min_codim:
            raise InputError(
                f"max_codim {self.max_codim} is below min_codim {self.min_codim}"
            )
        if self.slack < 1:
            raise InputError(f"slack must be >= 1, got {self.slack}")

    @property
    def resolved_d(self) -> int:
        if self.d is not None:
            return self.d
        # smallest t with 2^t >= 1/eps, plus one
        inv_num, inv_den = self.eps.denominator, self.eps.numerator
        t = 0
        while (inv_den << t) < inv_num:
            t += 1
        return t + 1

    @property
    def resolved_buckets(self) -> int:
        if self.buckets is not None:
            return self.buckets
        return -(-self.eps.denominator // self.eps.numerator)
